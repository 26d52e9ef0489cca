// Package noc builds the simulated SoC's interconnect: a tree of fabrics
// (each a FIFO bandwidth server) rooted at the DRAM controller, mirroring
// the hierarchy of the paper's Figure 3. IPs attach to a fabric and their
// memory traffic traverses every fabric on the path to memory, so a narrow
// shared fabric throttles exactly the IPs behind it — the mechanism the
// §V-B interconnect extension models analytically.
package noc

import (
	"fmt"
	"math"

	"github.com/gables-model/gables/internal/sim/engine"
	"github.com/gables-model/gables/internal/sim/mem"
	"github.com/gables-model/gables/internal/sim/trace"
)

// FabricSpec declares one fabric of the topology.
type FabricSpec struct {
	// Name identifies the fabric.
	Name string
	// Bandwidth is the fabric's aggregate service rate in bytes/s.
	Bandwidth float64
	// Parent names the next fabric toward memory; empty attaches the
	// fabric directly to the DRAM controller.
	Parent string
}

// Validate checks the fabric declarations without building anything:
// every fabric needs a unique non-empty name and a positive, finite
// bandwidth, every parent must be declared, and the hierarchy must be
// acyclic.
func Validate(specs []FabricSpec) error {
	for i, s := range specs {
		if s.Name == "" {
			return fmt.Errorf("noc: fabric with empty name")
		}
		if index(specs[:i], s.Name) >= 0 {
			return fmt.Errorf("noc: duplicate fabric %q", s.Name)
		}
		if !(s.Bandwidth > 0) || math.IsInf(s.Bandwidth, 1) {
			return fmt.Errorf("noc: fabric %q: bandwidth must be positive and finite, got %v", s.Name, s.Bandwidth)
		}
	}
	for _, s := range specs {
		if _, err := depth(specs, s); err != nil {
			return err
		}
	}
	return nil
}

// index returns the position of the named fabric, or -1.
func index(specs []FabricSpec, name string) int {
	for i, s := range specs {
		if s.Name == name {
			return i
		}
	}
	return -1
}

// depth counts the fabrics from s to memory, s included. A walk longer
// than the declaration list must revisit a fabric: a cycle.
func depth(specs []FabricSpec, s FabricSpec) (int, error) {
	n := 1
	for cur := s.Parent; cur != ""; n++ {
		if n > len(specs) {
			return 0, fmt.Errorf("noc: fabric cycle through %q", s.Name)
		}
		j := index(specs, cur)
		if j < 0 {
			return 0, fmt.Errorf("noc: fabric %q: unknown parent %q", s.Name, cur)
		}
		cur = specs[j].Parent
	}
	return n, nil
}

// Topology is an instantiated fabric tree: for each declared fabric, its
// path to memory. paths[i][0] is fabric i's own server, and the paths share
// one backing array.
type Topology struct {
	specs []FabricSpec
	paths [][]*mem.Server
}

// Build validates the declarations and instantiates the fabric tree on the
// engine, computing every fabric's path to memory once.
func Build(eng *engine.Engine, specs []FabricSpec) (*Topology, error) {
	if err := Validate(specs); err != nil {
		return nil, err
	}
	// Validate has walked every chain, so depth cannot fail below.
	t := &Topology{specs: specs, paths: make([][]*mem.Server, len(specs))}
	total := 0
	for _, s := range specs {
		n, _ := depth(specs, s)
		total += n
	}
	backing := make([]*mem.Server, total)
	for i, s := range specs {
		n, _ := depth(specs, s)
		t.paths[i], backing = backing[:n:n], backing[n:]
		srv, err := mem.NewServer(eng, "fabric", s.Name, s.Bandwidth)
		if err != nil {
			return nil, err
		}
		t.paths[i][0] = srv
	}
	for i, s := range specs {
		k := 1
		for cur := s.Parent; cur != ""; k++ {
			j := index(specs, cur)
			t.paths[i][k] = t.paths[j][0]
			cur = specs[j].Parent
		}
	}
	return t, nil
}

// Path returns the fabric servers from the named fabric to the memory
// controller, in traversal order. An empty name returns an empty path (an
// IP attached directly to memory). The path is shared: callers must not
// modify it.
func (t *Topology) Path(name string) ([]*mem.Server, error) {
	if name == "" {
		return nil, nil
	}
	i := index(t.specs, name)
	if i < 0 {
		return nil, fmt.Errorf("noc: unknown fabric %q", name)
	}
	return t.paths[i], nil
}

// SetProbe attaches (or, with nil, detaches) an observe-only trace probe
// to every fabric server.
func (t *Topology) SetProbe(p trace.Probe) {
	for _, path := range t.paths {
		path[0].SetProbe(p)
	}
}
