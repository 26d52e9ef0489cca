// Package simcache is a minimal stand-in for internal/simcache: just the
// Run entry points evalboundary guards. The analyzer matches any package
// whose path ends in "simcache", so fixtures need not import the real
// module.
package simcache

// RunResult mirrors simcache.RunResult.
type RunResult struct {
	Rate float64
}

// Run mirrors simcache.Run.
func Run(words int) (RunResult, error) {
	return RunResult{Rate: float64(words)}, nil
}

// RunKeyed mirrors simcache.RunKeyed.
func RunKeyed(key string, words int) (RunResult, error) {
	return RunResult{Rate: float64(words)}, nil
}
