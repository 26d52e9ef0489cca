package surrogate

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"github.com/gables-model/gables/internal/eval"
	"github.com/gables-model/gables/internal/kernel"
	"github.com/gables-model/gables/internal/sim"
)

func testChip() sim.Config { return sim.Snapdragon835() }

func testCalibration(t *testing.T) *Calibration {
	t.Helper()
	cal, err := Calibrate(context.Background(), testChip(), Plan{})
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

// twoIP builds the canonical in-envelope CPU/GPU split query.
func twoIP(t testing.TB, f float64, fpw, words int) eval.Query {
	t.Helper()
	return splitQuery(t, testChip(), f, fpw, words)
}

// splitQuery puts fraction f of the work on cfg's GPU and the rest on its
// CPU.
func splitQuery(t testing.TB, cfg sim.Config, f float64, fpw, words int) eval.Query {
	t.Helper()
	work, err := eval.SplitWork(cfg, words, fpw, kernel.ReadWrite, []eval.Share{
		{IP: "CPU", Fraction: 1 - f}, {IP: "GPU", Fraction: f},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eval.Query{Chip: cfg, Work: work, Trials: 2}
}

func TestCalibrateFitsSane(t *testing.T) {
	cal := testCalibration(t)
	cfg := testChip()
	if cal.Bpeak <= 0 || cal.Bpeak > 1.2*cfg.DRAMBandwidth {
		t.Errorf("fitted Bpeak %.3g implausible against configured DRAM %.3g", cal.Bpeak, cfg.DRAMBandwidth)
	}
	if len(cal.IPs) != len(cfg.IPs) {
		t.Fatalf("calibrated %d IPs, chip has %d", len(cal.IPs), len(cfg.IPs))
	}
	for _, fit := range cal.IPs {
		if fit.Peak <= 0 || fit.Bandwidth <= 0 {
			t.Errorf("IP %s: degenerate fit Peak=%v BW=%v", fit.Name, fit.Peak, fit.Bandwidth)
		}
		// The sweeps run through the same substrate the fit mimics: the
		// per-IP roofline should be a tight fit.
		if fit.Residual > 0.05 {
			t.Errorf("IP %s: fit residual %.4f above 5%%", fit.Name, fit.Residual)
		}
	}
	if want := len(cal.Plan.SplitFlopsPerWord) * len(cal.Plan.Fractions); len(cal.Table) != want {
		t.Fatalf("efficiency table has %d buckets, want %d", len(cal.Table), want)
	}
	for _, b := range cal.Table {
		if b.Efficiency <= 0 || b.Cells == 0 {
			t.Errorf("bucket fpw=%d/f=%v: degenerate (eff=%v cells=%d)", b.FlopsPerWord, b.Fraction, b.Efficiency, b.Cells)
		}
	}
}

// TestCalibrationDeterministic re-fits the same chip+plan and requires a
// byte-identical artifact — the same property the CI
// calibration-determinism step checks across processes.
func TestCalibrationDeterministic(t *testing.T) {
	a, err := Encode(&testCalibration(t).Artifact)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(&testCalibration(t).Artifact)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("re-fitting produced a different artifact:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestAnswerGolden pins the fitted fast path bit for bit on both catalog
// chips: the sha256 of the encoded calibration artifact, and one sha256
// over the JSON of raw() at every point of a fixed CPU/GPU split grid plus
// Answer() at the grid points inside the envelope. The digests were
// captured before the fast path was routed through eval's injected-model
// analytic backend; any drift in the shared closed-form arithmetic (or in
// the efficiency correction on top of it) changes them.
func TestAnswerGolden(t *testing.T) {
	cases := []struct {
		cfg        sim.Config
		artifact   string
		outcomes   string
		inEnvelope int
	}{
		{sim.Snapdragon835(),
			"ddd45ee272c87b2e495b67a173f0d7271931b318d05a0520b0063863471d8d55",
			"93ae473e433e58c3111922a6cd19e23e4ef83ba3b6bce2c8f776b04213d989e1", 63},
		{sim.Snapdragon821(),
			"358e81e97e0846eea8d5fe8442be911663f1da3f7ed6d06f3fefc320cddf5e55",
			"9646cfa0dd394cbdb3f6ed04c72a649587564b020057aad0942e22bd91117aff", 66},
	}
	for _, tc := range cases {
		t.Run(tc.cfg.Name, func(t *testing.T) {
			cal, err := Calibrate(context.Background(), tc.cfg, Plan{})
			if err != nil {
				t.Fatal(err)
			}
			data, err := Encode(&cal.Artifact)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.artifact {
				t.Errorf("artifact sha256 = %s, want %s", got, tc.artifact)
			}

			h := sha256.New()
			in := 0
			for _, words := range []int{4 << 20, 16 << 20} {
				for _, fpw := range []int{1, 4, 16, 64, 256, 512, 1024} {
					for _, f := range []float64{0, .1, .25, .5, .75, .9, 1} {
						q := splitQuery(t, tc.cfg, f, fpw, words)
						o, err := cal.raw(q)
						if err != nil {
							t.Fatalf("raw f=%v fpw=%d words=%d: %v", f, fpw, words, err)
						}
						j, _ := json.Marshal(o)
						h.Write(j)
						if cal.Check(q) != nil {
							continue
						}
						in++
						if o, err = cal.Answer(q); err != nil {
							t.Fatalf("Answer f=%v fpw=%d words=%d: %v", f, fpw, words, err)
						}
						j, _ = json.Marshal(o)
						h.Write(j)
					}
				}
			}
			if in != tc.inEnvelope {
				t.Errorf("%d grid points inside the envelope, want %d", in, tc.inEnvelope)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.outcomes {
				t.Errorf("outcome sha256 = %s, want %s", got, tc.outcomes)
			}
		})
	}
}

func TestArtifactRoundTrip(t *testing.T) {
	cal := testCalibration(t)
	store := NewStore(t.TempDir())
	path, err := store.Save(&cal.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	got, err := store.Load(cal.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatalf("Load(%s) found nothing at %s", cal.Fingerprint, path)
	}
	reEnc, err := Encode(got)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := Encode(&cal.Artifact)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, reEnc) {
		t.Fatal("artifact did not round-trip byte-identically")
	}

	// Unknown fingerprints and stale versions both mean "re-fit", not an
	// error.
	if a, err := store.Load("deadbeef"); err != nil || a != nil {
		t.Fatalf("missing artifact: got (%v, %v), want (nil, nil)", a, err)
	}
	stale := cal.Artifact
	stale.Version = FingerprintVersion + 1
	if _, err := store.Save(&stale); err != nil {
		t.Fatal(err)
	}
	if a, err := store.Load(stale.Fingerprint); err != nil || a != nil {
		t.Fatalf("stale-version artifact: got (%v, %v), want (nil, nil)", a, err)
	}
}

// TestBackendPersistsAndLoads checks the content-addressed artifact cycle:
// one backend fits and persists, a second backend warm-starts from the
// artifact and answers identically.
func TestBackendPersistsAndLoads(t *testing.T) {
	dir := t.TempDir()
	q := twoIP(t, 0.5, 512, 4<<20)

	first := New(Options{Dir: dir})
	o1, err := first.Evaluate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if s := first.Stats(); s.Calibrations != 1 || s.ArtifactLoads != 0 {
		t.Fatalf("first backend: calibrations=%d loads=%d, want 1/0", s.Calibrations, s.ArtifactLoads)
	}

	second := New(Options{Dir: dir})
	o2, err := second.Evaluate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if s := second.Stats(); s.Calibrations != 0 || s.ArtifactLoads != 1 {
		t.Fatalf("second backend: calibrations=%d loads=%d, want 0/1", s.Calibrations, s.ArtifactLoads)
	}
	j1, _ := json.Marshal(o1)
	j2, _ := json.Marshal(o2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("loaded calibration answers differently:\n%s\n%s", j1, j2)
	}
}

func TestEnvelopeCheck(t *testing.T) {
	cal := testCalibration(t)
	base := func() eval.Query { return twoIP(t, 0.5, 512, 4<<20) }

	if err := cal.Check(base()); err != nil {
		t.Fatalf("canonical in-envelope query rejected: %v", err)
	}

	cases := []struct {
		name string
		make func() eval.Query
	}{
		{"coordination", func() eval.Query { q := base(); q.Coordination = true; return q }},
		{"thermal", func() eval.Query { q := base(); q.Thermal = true; return q }},
		{"serialized", func() eval.Query { q := base(); q.Serialized = true; return q }},
		{"max-events", func() eval.Query { q := base(); q.MaxEvents = 1 << 20; return q }},
		{"wrong-pattern", func() eval.Query {
			q := base()
			for i := range q.Work {
				q.Work[i].Pattern = kernel.ReadOnly
			}
			return q
		}},
		{"intensity-above-sweep", func() eval.Query { return twoIP(t, 0.5, 8192, 4<<20) }},
		{"cache-resident", func() eval.Query { return twoIP(t, 0.5, 512, 1<<10) }},
		{"chip-drift", func() eval.Query {
			q := base()
			q.Chip.DRAMBandwidth *= 2
			return q
		}},
		{"high-residual-bucket", func() eval.Query {
			// The all-GPU low-intensity corner mixes link- and
			// DRAM-bound accel cells: its bucket residual exceeds the
			// tolerance, so the honest answer is "measure".
			return twoIP(t, 1, 8, 4<<20)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := cal.Check(tc.make()); err == nil {
				t.Fatal("out-of-envelope query accepted")
			}
		})
	}
}

func TestUncalibratedIPRejected(t *testing.T) {
	cfg := testChip()
	cal, err := Calibrate(context.Background(), cfg, Plan{IPs: []string{"CPU", "GPU"}})
	if err != nil {
		t.Fatal(err)
	}
	work, err := eval.SplitWork(cfg, 4<<20, 512, kernel.ReadWrite, []eval.Share{
		{IP: "CPU", Fraction: 0.5}, {IP: "DSP", Fraction: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cal.Check(eval.Query{Chip: cfg, Work: work, Trials: 2}); err == nil {
		t.Fatal("query on uncalibrated DSP accepted")
	}
}

// TestFallbackByteIdentical pins the fallback contract: an out-of-envelope
// query answered through the surrogate backend is byte-identical to asking
// the sim backend directly (no Confidence, no drift).
func TestFallbackByteIdentical(t *testing.T) {
	backend := New(Options{})
	simEv := eval.NewSim()
	outs := []eval.Query{
		func() eval.Query { q := twoIP(t, 0.5, 512, 4<<20); q.Serialized = true; return q }(),
		func() eval.Query { q := twoIP(t, 0.5, 512, 4<<20); q.Coordination = true; return q }(),
		twoIP(t, 1, 8, 4<<20), // high-residual bucket
	}
	for i, q := range outs {
		got, err := backend.Evaluate(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want, err := simEv.Evaluate(context.Background(), q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(want)
		if !bytes.Equal(gj, wj) {
			t.Errorf("query %d: fallback diverges from sim:\nsurrogate: %s\nsim:       %s", i, gj, wj)
		}
		if got.Confidence != nil {
			t.Errorf("query %d: fallback outcome carries a Confidence envelope", i)
		}
	}
	if s := backend.Stats(); s.Fallbacks != uint64(len(outs)) || s.FastAnswers != 0 {
		t.Errorf("counters: fast=%d fallbacks=%d, want 0/%d", s.FastAnswers, s.Fallbacks, len(outs))
	}
}

func TestFastAnswerConfidence(t *testing.T) {
	backend := New(Options{})
	q := twoIP(t, 0.5, 512, 4<<20)
	o, err := backend.Evaluate(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if o.Backend != "surrogate" || o.Fidelity != eval.FidelityAnalytic {
		t.Fatalf("fast answer attributed to %q/%q", o.Backend, o.Fidelity)
	}
	c := o.Confidence
	if c == nil {
		t.Fatal("fast answer carries no Confidence envelope")
	}
	if c.RelErrBound <= 0 || c.Lo > o.Attainable || o.Attainable > c.Hi {
		t.Fatalf("confidence envelope inconsistent: bound=%v lo=%v att=%v hi=%v",
			c.RelErrBound, c.Lo, o.Attainable, c.Hi)
	}
	if c.Bucket == "" || c.Efficiency <= 0 {
		t.Fatalf("confidence metadata empty: %+v", c)
	}
	if s := backend.Stats(); s.FastAnswers != 1 || s.Fallbacks != 0 {
		t.Errorf("counters: fast=%d fallbacks=%d, want 1/0", s.FastAnswers, s.Fallbacks)
	}
	if len(backend.Stats().Models) == 0 {
		t.Error("stats carry no model summary")
	}
}

// TestConfigEqualTracksFingerprint guards configEqual (the hot-path chip
// identity check) against drifting from sim.Fingerprint: any mutation that
// changes the fingerprint must also break structural equality.
func TestConfigEqualTracksFingerprint(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*sim.Config)
	}{
		{"name", func(c *sim.Config) { c.Name += "x" }},
		{"dram", func(c *sim.Config) { c.DRAMBandwidth *= 2 }},
		{"host", func(c *sim.Config) { c.Host = "GPU" }},
		{"ip-name", func(c *sim.Config) { c.IPs[0].Name += "x" }},
		{"ip-rate", func(c *sim.Config) { c.IPs[1].ComputeRate *= 2 }},
		{"ip-link", func(c *sim.Config) { c.IPs[1].LinkBandwidth *= 2 }},
		{"ip-write-penalty", func(c *sim.Config) { c.IPs[0].WritePenalty += 0.5 }},
		{"ip-cache", func(c *sim.Config) { c.IPs[0].CacheSize *= 2 }},
		{"ip-chunk", func(c *sim.Config) { c.IPs[0].ChunkBytes += 4096 }},
		{"ip-inflight", func(c *sim.Config) { c.IPs[0].MaxInflight++ }},
		{"ip-latency", func(c *sim.Config) { c.IPs[0].MemoryLatency += 1e-6 }},
		{"ip-dropped", func(c *sim.Config) { c.IPs = c.IPs[:len(c.IPs)-1] }},
	}
	ref := testChip()
	refFP := sim.Fingerprint(ref, nil, sim.RunOptions{})
	if !configEqual(ref, testChip()) {
		t.Fatal("identical configs compare unequal")
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			mutated := testChip()
			m.mut(&mutated)
			fpChanged := sim.Fingerprint(mutated, nil, sim.RunOptions{}) != refFP
			eqBroken := !configEqual(ref, mutated)
			if fpChanged != eqBroken {
				t.Fatalf("fingerprint changed=%v but configEqual broken=%v — the two identity checks drifted",
					fpChanged, eqBroken)
			}
			if !fpChanged {
				t.Fatalf("mutation %q did not change the fingerprint; pick a covered field", m.name)
			}
		})
	}
}
