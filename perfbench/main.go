// Command perfbench is the repository's benchmark. It drives the Gables
// stack from outside, through the layers' public entry points, on one of
// three seeded workloads:
//
//   - serve_hot: closed-loop clients against web.NewHandler on loopback,
//     asking a finite question mix whose every timed answer is a cache
//     read (web, eval outcome cache, simcache hits);
//   - serve_cold: the same server and clients, every question new, so
//     every answer runs the simulator into a full simcache;
//   - repro: repeated full gables-repro processes with a cold simcache.
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced run
// (-trace 1) replays the same seeded inputs with spans around each layer
// and prints the per-layer metrics. The last stdout line is the result
// object; the lines before it are the human-readable report. Usage:
//
//	bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare old.txt new.txt
//
// run.sh builds this package and gables-repro from the checkout first.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // the checkout
	repro    string // the gables-repro binary built from it
	spawn    string // the spawn helper that runs gables-repro
	clients  int
}

// report is what a workload run produces.
type report struct {
	metrics   metricSet
	attempted int
	failed    int
	verified  int // answers checked against direct evaluation
	err       error
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "serve_hot, serve_cold or repro")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 replays the workload with spans and prints per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "checkout root")
	fs.StringVar(&o.repro, "repro", "", "gables-repro binary built from the checkout")
	fs.StringVar(&o.spawn, "spawn", "", "the spawn helper binary (perfbench/spawn)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if fs.Arg(0) == "compare" {
		os.Exit(compareMain(fs.Args()[1:]))
	}
	o.trace = *traceFlag == 1
	o.clients = runtime.NumCPU()
	if o.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds >= 1 and --trace 0|1")
		os.Exit(2)
	}
	os.Exit(run(o))
}

func run(o options) int {
	h := hostOf(o.root)
	fmt.Printf("host %s\n", h.json())
	fmt.Printf("workload %s seed %d seconds %d trace %v\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Printf("serving load: closed loop, %d clients over %d connections\n", o.clients, o.clients)
	var rep report
	switch o.workload {
	case "serve_hot":
		rep = runServing(o, newHot(o.seed))
	case "serve_cold":
		rep = runServing(o, newCold(o.seed))
	case "repro":
		rep = runRepro(o)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have serve_hot, serve_cold, repro)\n", o.workload)
		return 2
	}
	if rep.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", rep.err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	out, err := rep.metrics.emit(defs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s metrics:\n", map[bool]string{false: "end-to-end", true: "per-layer"}[o.trace])
	rep.metrics.printTable(defs)
	errorRate := float64(rep.failed) / float64(max(rep.attempted, 1))
	fmt.Printf("error_rate %.6g (failed %d of %d attempted); verified %d answers\n", errorRate, rep.failed, rep.attempted, rep.verified)
	if err := printResult(result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: out}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// window is the length of the timed phase.
func (o options) window() time.Duration { return time.Duration(o.seconds) * time.Second }
