package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// output is one saved benchmark stdout.
type output struct {
	host   host
	result struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
}

func readOutput(path string) (*output, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var o output
	var last string
	haveHost := false
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "host "); ok {
			if err := json.Unmarshal([]byte(rest), &o.host); err != nil {
				return nil, fmt.Errorf("%s: host line: %w", path, err)
			}
			haveHost = true
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !haveHost {
		return nil, fmt.Errorf("%s: no host line; refusing a result that does not say where it ran", path)
	}
	if err := json.Unmarshal([]byte(last), &o.result); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return &o, nil
}

// compareMain compares two saved outputs metric by metric. It refuses,
// with exit code 3, outputs from different hosts.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <old output> <new output>")
		return 2
	}
	old, err := readOutput(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	cur, err := readOutput(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	if diff := old.host.mismatch(cur.host); len(diff) > 0 {
		fmt.Fprintln(os.Stderr, "perfbench compare: REFUSED: the results come from different hosts:")
		for _, d := range diff {
			fmt.Fprintln(os.Stderr, "  "+d)
		}
		return 3
	}
	fmt.Printf("old %s (source %s)\nnew %s (source %s)\n", old.host.GitSHA, old.host.Source, cur.host.GitSHA, cur.host.Source)
	if !old.result.Correct || !cur.result.Correct {
		fmt.Printf("WARNING: correct old=%v new=%v\n", old.result.Correct, cur.result.Correct)
	}
	var names []string
	for name := range old.result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := old.result.Metrics[name]
		b, ok := cur.result.Metrics[name]
		if !ok {
			fmt.Printf("  %-32s %14.6g %-6s  missing in new\n", name, a.Value, a.Unit)
			continue
		}
		change := "n/a"
		if a.Value != 0 {
			change = fmt.Sprintf("%+.2f%%", 100*(b.Value-a.Value)/a.Value)
		}
		fmt.Printf("  %-32s %14.6g -> %-14.6g %-6s %s\n", name, a.Value, b.Value, a.Unit, change)
	}
	return 0
}
