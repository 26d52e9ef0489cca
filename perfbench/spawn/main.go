// Command spawn runs one command and writes its wall time and peak RSS to
// file descriptor 3 as "<wall ns> <max RSS KiB>". The benchmark starts
// each gables-repro process through it: a child's reported max RSS is at
// least its parent's peak RSS (the child begins as a view of the parent's
// address space until it execs), and this program's is a small fraction
// of the benchmark's. Standard streams pass through; the exit code is the
// command's.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

func main() {
	report := os.NewFile(3, "report")
	if len(os.Args) < 2 || report == nil {
		fmt.Fprintln(os.Stderr, "usage: spawn <command> [args...] 3>report")
		os.Exit(2)
	}
	cmd := exec.Command(os.Args[1], os.Args[2:]...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = os.Stdin, os.Stdout, os.Stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	var rss int64
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = ru.Maxrss
	}
	if _, werr := fmt.Fprintf(report, "%d %d\n", wall.Nanoseconds(), rss); werr != nil {
		fmt.Fprintln(os.Stderr, "spawn:", werr)
		os.Exit(2)
	}
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintln(os.Stderr, "spawn:", err)
		os.Exit(2)
	}
}
