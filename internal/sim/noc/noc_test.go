package noc

import (
	"math"
	"testing"

	"github.com/gables-model/gables/internal/sim/engine"
)

func specs() []FabricSpec {
	return []FabricSpec{
		{Name: "hb", Bandwidth: 28e9},
		{Name: "mm", Bandwidth: 20e9, Parent: "hb"},
		{Name: "sys", Bandwidth: 12e9, Parent: "hb"},
		{Name: "peri", Bandwidth: 2e9, Parent: "sys"},
	}
}

func TestBuildAndPath(t *testing.T) {
	topo, err := Build(engine.New(), specs())
	if err != nil {
		t.Fatal(err)
	}
	path, err := topo.Path("peri")
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 3 {
		t.Fatalf("path length = %d, want 3 (peri→sys→hb)", len(path))
	}
	if path[0].Name() != "fabric:peri" || path[2].Name() != "fabric:hb" {
		t.Errorf("path order wrong: %s .. %s", path[0].Name(), path[2].Name())
	}
	sys, err := topo.Path("sys")
	if err != nil {
		t.Fatal(err)
	}
	if len(sys) != 2 || sys[0] != path[1] || sys[1] != path[2] {
		t.Error("paths must share one server per fabric")
	}

	empty, err := topo.Path("")
	if err != nil || empty != nil {
		t.Errorf("empty fabric name must give empty path, got %v, %v", empty, err)
	}

	if _, err := topo.Path("nope"); err == nil {
		t.Error("unknown fabric must be an error")
	}
}

func TestBuildValidation(t *testing.T) {
	cases := []struct {
		name  string
		specs []FabricSpec
	}{
		{"empty name", []FabricSpec{{Name: "", Bandwidth: 1}}},
		{"duplicate", []FabricSpec{{Name: "a", Bandwidth: 1}, {Name: "a", Bandwidth: 1}}},
		{"zero bandwidth", []FabricSpec{{Name: "a", Bandwidth: 0}}},
		{"NaN bandwidth", []FabricSpec{{Name: "a", Bandwidth: math.NaN()}}},
		{"infinite bandwidth", []FabricSpec{{Name: "a", Bandwidth: math.Inf(1)}}},
		{"unknown parent", []FabricSpec{{Name: "a", Bandwidth: 1, Parent: "ghost"}}},
		{"self cycle", []FabricSpec{{Name: "a", Bandwidth: 1, Parent: "a"}}},
		{"two-fabric cycle", []FabricSpec{
			{Name: "a", Bandwidth: 1, Parent: "b"},
			{Name: "b", Bandwidth: 1, Parent: "a"},
		}},
		{"cycle above a valid fabric", []FabricSpec{
			{Name: "leaf", Bandwidth: 1, Parent: "a"},
			{Name: "a", Bandwidth: 1, Parent: "b"},
			{Name: "b", Bandwidth: 1, Parent: "a"},
		}},
	}
	for _, tc := range cases {
		if err := Validate(tc.specs); err == nil {
			t.Errorf("Validate: %s must be rejected", tc.name)
		}
		if _, err := Build(engine.New(), tc.specs); err == nil {
			t.Errorf("Build: %s must be rejected", tc.name)
		}
	}
	if err := Validate(specs()); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	if err := Validate(nil); err != nil {
		t.Errorf("no fabrics rejected: %v", err)
	}
}
