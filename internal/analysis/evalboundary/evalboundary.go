// Package evalboundary enforces the Evaluator contract's boundary: outside
// the evaluation layer itself, code must answer "how fast can this SoC run
// this usecase?" through internal/eval (an Evaluator from the registry),
// not by calling the execution backends directly. Direct calls to
// simcache.Run or RunKeyed, (*sim.System).Run, or (*core.Model).Evaluate /
// EvaluateSerialized skip the canonical query fingerprint, the shared
// outcome cache, the probe attachment point, and — most importantly — the
// differential oracle's agreement bands, so analytic/sim divergence at such
// a call site is invisible to CI.
//
// The boundary has legitimate crossings: the eval package and the backends
// themselves (internal/eval, internal/core, internal/simcache, the
// internal/sim subtree), test files (which pin byte-identity against the
// raw backends on purpose), the examples/ tree (pedagogical walkthroughs
// of the public analytic API), and raw-measurement substrate like the §IV
// sweep harnesses, which characterize the machine rather than answer a
// usecase query. The first three are exempted structurally; measurement
// substrate carries a reasoned //lint:ignore or //lint:file-ignore
// directive, keeping every crossing deliberate and documented.
package evalboundary

import (
	"go/ast"
	"go/types"
	"strings"

	"github.com/gables-model/gables/internal/analysis"
)

// Analyzer is the evalboundary rule.
var Analyzer = &analysis.Analyzer{
	Name: "evalboundary",
	Doc: "flags direct simcache.Run/RunKeyed/(*sim.System).Run/(*core.Model).Evaluate calls outside " +
		"internal/eval and tests; route evaluation through the eval.Evaluator registry",
	Run: run,
}

// exemptPkgs are the path suffixes (module-relative) of packages on the
// inside of the boundary: the evaluation layer and the backends it wraps.
var exemptPkgs = []string{
	"internal/eval",
	"internal/core",
	"internal/simcache",
	"internal/sim",       // the substrate subtree: sim, sim/ip, sim/cpu, sim/trace...
	"internal/surrogate", // a backend implementation: its fast path IS a (fitted) core.Model
	"examples",           // pedagogical walkthroughs of the public analytic API
}

func run(pass *analysis.Pass) error {
	if exemptPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if what := boundaryCall(pass, call); what != "" {
				pass.Reportf(call.Pos(),
					"%s bypasses the eval boundary: evaluate through an eval.Evaluator (registry backend) "+
						"so the query is fingerprinted, cached, and covered by the differential oracle",
					what)
			}
			return true
		})
	}
	return nil
}

// exemptPackage reports whether pkgPath lies inside the boundary. Matching
// is by module-relative suffix so the rule works both on the real module
// path and on short fixture paths; external test packages ("..._test") are
// exempt like test files.
func exemptPackage(pkgPath string) bool {
	if strings.HasSuffix(pkgPath, "_test") {
		return true
	}
	for _, exempt := range exemptPkgs {
		if pkgPath == exempt || strings.HasSuffix(pkgPath, "/"+exempt) {
			return true
		}
		// Subtree exemption: internal/sim covers internal/sim/trace etc.
		if strings.Contains(pkgPath+"/", "/"+exempt+"/") || strings.HasPrefix(pkgPath+"/", exempt+"/") {
			return true
		}
	}
	return false
}

// boundaryCall classifies a call as a boundary violation, returning a
// human-readable name for the offending callee ("" when the call is fine).
func boundaryCall(pass *analysis.Pass, call *ast.CallExpr) string {
	name, pkgPath, ok := analysis.CalleeName(pass.TypesInfo, call)
	if !ok {
		return ""
	}
	recv := receiverTypeName(pass.TypesInfo, call)
	switch {
	case (name == "Run" || name == "RunKeyed") && isBackendPkg(pkgPath, "simcache") && recv == "":
		return "simcache." + name
	case name == "Run" && isBackendPkg(pkgPath, "sim") && recv == "System":
		return "(*sim.System).Run"
	case (name == "Evaluate" || name == "EvaluateSerialized") &&
		isBackendPkg(pkgPath, "core") && recv == "Model":
		return "(*core.Model)." + name
	}
	return ""
}

// isBackendPkg reports whether pkgPath's last segment names the backend
// package (matching the real module path and short fixture paths alike).
func isBackendPkg(pkgPath, last string) bool {
	return pkgPath == last || strings.HasSuffix(pkgPath, "/"+last)
}

// receiverTypeName returns the named type of a method call's receiver
// (pointers stripped), or "" for plain function calls.
func receiverTypeName(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}
