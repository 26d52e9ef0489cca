package eval

import (
	"context"
	"encoding/json"
	"testing"

	"github.com/gables-model/gables/internal/sim"
	"github.com/gables-model/gables/internal/sim/trace"
	"github.com/gables-model/gables/internal/simcache"
)

// TestKeyedCarriesFingerprints pins what Keyed carries: the query's own
// Fingerprint, and as the run key the sim.Fingerprint of its
// realization. Invalid queries stay unkeyed and keep reporting their error.
func TestKeyedCarriesFingerprints(t *testing.T) {
	for _, serialized := range []bool{false, true} {
		q := twoIPQuery(t, 0.625, 64)
		q.Serialized = serialized
		k := Keyed(q)
		if k.key == nil {
			t.Fatal("a valid query came back unkeyed")
		}
		want, err := Fingerprint(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := Fingerprint(k); got != want {
			t.Errorf("serialized=%v: keyed fingerprint %s, unkeyed %s", serialized, got, want)
		}
		as, opt, err := q.realize()
		if err != nil {
			t.Fatal(err)
		}
		if run := sim.Fingerprint(q.Chip, as, opt); k.key.run != run {
			t.Errorf("serialized=%v: run key %s, sim.Fingerprint %s", serialized, k.key.run, run)
		}
		if again := Keyed(k); again.key != k.key {
			t.Error("keying a keyed query recomputed its key")
		}
	}
	bad := twoIPQuery(t, 0.5, 8)
	bad.Trials = -1
	if Keyed(bad).key != nil {
		t.Error("an invalid query was keyed")
	}
	if _, err := Fingerprint(Keyed(bad)); err == nil {
		t.Error("an invalid keyed query must still fail to fingerprint")
	}
}

// TestKeyedSimSharesRunCache pins that the carried run key addresses the
// same simcache entry as an unkeyed evaluation of the query.
func TestKeyedSimSharesRunCache(t *testing.T) {
	simcache.ResetDefault()
	t.Cleanup(simcache.ResetDefault)
	q := twoIPQuery(t, 0.375, 16)
	unkeyed, err := NewSim().Evaluate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	before := simcache.DefaultStats()
	keyed, err := NewSim().Evaluate(context.Background(), Keyed(q))
	if err != nil {
		t.Fatal(err)
	}
	after := simcache.DefaultStats()
	if after.Hits != before.Hits+1 || after.Misses != before.Misses {
		t.Errorf("keyed evaluation after an unkeyed one: stats %+v -> %+v, want exactly one hit", before, after)
	}
	if a, b := mustJSON(t, unkeyed), mustJSON(t, keyed); a != b {
		t.Errorf("keyed answer %s, unkeyed %s", b, a)
	}
}

// TestKeyedTracedSimBypassesCache pins that a keyed query changes nothing
// about tracing: with a probe factory installed, a keyed sim evaluation
// runs fresh under a probe and is reported as bypassed — even though a
// cached entry for its key exists — and its answer equals the cached one.
func TestKeyedTracedSimBypassesCache(t *testing.T) {
	simcache.ResetDefault()
	t.Cleanup(func() {
		simcache.SetProbeFactory(nil)
		simcache.ResetDefault()
	})
	q := Keyed(twoIPQuery(t, 0.75, 32))
	cached, err := NewSim().Evaluate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	session := trace.NewSession()
	simcache.SetProbeFactory(session.NewRun)
	before := simcache.DefaultStats()
	traced, err := NewSim().Evaluate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	after := simcache.DefaultStats()
	if after.Bypassed != before.Bypassed+1 || after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("traced keyed run: stats %+v -> %+v, want exactly one bypass", before, after)
	}
	if session.Runs() != 1 {
		t.Errorf("traced keyed run handed out %d probes, want 1", session.Runs())
	}
	if a, b := mustJSON(t, cached), mustJSON(t, traced); a != b {
		t.Errorf("traced answer %s, cached %s", b, a)
	}
}

// TestMinEventsBoundsRun pins the query-level event bound against the
// engine: a run limited to one event fewer than the bound must trip the
// MaxEvents guard, so the bound never exceeds the events a run takes.
func TestMinEventsBoundsRun(t *testing.T) {
	for _, fpw := range []int{1, 64} {
		q := twoIPQuery(t, 0.5, fpw)
		n := q.MinEvents()
		if n <= 0 {
			t.Fatalf("MinEvents = %d, want positive", n)
		}
		q.MaxEvents = n - 1
		if _, err := NewSim().Evaluate(context.Background(), q); err == nil {
			t.Errorf("fpw=%d: a run capped at MinEvents-1 = %d events finished", fpw, n-1)
		}
	}
	if n := (Query{}).MinEvents(); n != 0 {
		t.Errorf("invalid query MinEvents = %d, want 0", n)
	}
}

func mustJSON(t *testing.T, o *Outcome) string {
	t.Helper()
	b, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
