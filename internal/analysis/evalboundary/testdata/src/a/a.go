// Package a exercises evalboundary on direct backend calls, decoys, and
// suppression.
package a

import (
	"core"
	"sim"
	"simcache"
)

// directSimcache calls the cached simulation entry point directly.
func directSimcache() float64 {
	res, _ := simcache.Run(4096) // want `simcache\.Run bypasses the eval boundary`
	return res.Rate
}

// directSimcacheKeyed calls the keyed entry point directly.
func directSimcacheKeyed() float64 {
	res, _ := simcache.RunKeyed("k", 4096) // want `simcache\.RunKeyed bypasses the eval boundary`
	return res.Rate
}

// directSystemRun calls the simulator directly.
func directSystemRun(sys *sim.System) float64 {
	rate, _ := sys.Run(4096) // want `\(\*sim\.System\)\.Run bypasses the eval boundary`
	return rate
}

// directModelEvaluate calls the analytic model directly, both forms.
func directModelEvaluate(m *core.Model) float64 {
	a, _ := m.Evaluate()           // want `\(\*core\.Model\)\.Evaluate bypasses the eval boundary`
	b, _ := m.EvaluateSerialized() // want `\(\*core\.Model\)\.EvaluateSerialized bypasses the eval boundary`
	return a + b
}

// decoys: same method names on other types, or no receiver — all clean.
func decoys(p *core.PeerModel, s *sim.Sampler) float64 {
	return p.Evaluate() + core.Evaluate() + float64(s.Run()) + float64(localRun())
}

// localRun shares the guarded name but lives in this package.
func localRun() int { return 0 }

// suppressed: raw-measurement substrate crosses the boundary on purpose.
func suppressed(sys *sim.System) float64 {
	//lint:ignore evalboundary raw measurement substrate: characterizes the machine, not a usecase query
	rate, _ := sys.Run(8192)
	return rate
}
