package sim

import (
	"context"
	"encoding/json"
	"testing"

	"drishti/internal/policies"
	"drishti/internal/workload"
)

// batchTestConfig builds a small machine for equivalence tests.
func batchTestConfig(t *testing.T, cores int) (Config, workload.Mix) {
	t.Helper()
	cfg := ScaledConfig(cores, 8)
	cfg.Instructions = 20_000
	cfg.Warmup = 5_000
	m, ok := workload.ByName("605.mcf_s-1554B")
	if !ok {
		t.Fatal("mcf model missing")
	}
	mix := workload.Homogeneous(m.Scale(8, cfg.SetIndexBits()), cores, 5)
	return cfg, mix
}

func resultJSON(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

var batchTestSpecs = []policies.Spec{
	{Name: "lru"},
	{Name: "dip"},
	{Name: "srrip"},
	{Name: "hawkeye", Drishti: true},
	{Name: "mockingjay", Drishti: true},
}

// assertBatchMatchesSerial runs the spec set both batched and serially and
// requires bit-identical results per lane.
func assertBatchMatchesSerial(t *testing.T, cfg Config, mix workload.Mix) {
	t.Helper()
	variants := make([]Variant, len(batchTestSpecs))
	for i, spec := range batchTestSpecs {
		variants[i] = Variant{Policy: spec}
	}
	batched, err := RunBatch(cfg, variants, mix)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	for i, spec := range batchTestSpecs {
		c := cfg
		c.Policy = spec
		serial, err := RunMix(c, mix)
		if err != nil {
			t.Fatalf("serial %s: %v", spec.DisplayName(), err)
		}
		if got, want := resultJSON(t, batched[i]), resultJSON(t, serial); got != want {
			t.Errorf("lane %d (%s): batched result differs from serial\nbatched: %.200s\nserial:  %.200s",
				i, spec.DisplayName(), got, want)
		}
	}
}

// TestBatchMatchesSerialTier1 covers the raw-stream sharing tier (default
// prefetchers on → private hierarchies simulated per lane).
func TestBatchMatchesSerialTier1(t *testing.T) {
	cfg, mix := batchTestConfig(t, 4)
	if tier2Eligible(cfg) {
		t.Fatal("default config unexpectedly tier-2 eligible")
	}
	assertBatchMatchesSerial(t, cfg, mix)
}

// TestBatchMatchesSerialTier2 covers the expanded-stream tier (prefetchers
// off → the private hierarchy is simulated once and shared).
func TestBatchMatchesSerialTier2(t *testing.T) {
	cfg, mix := batchTestConfig(t, 4)
	cfg.L1Prefetcher, cfg.L2Prefetcher = "none", "none"
	if !tier2Eligible(cfg) {
		t.Fatal("prefetcher-free config should be tier-2 eligible")
	}
	assertBatchMatchesSerial(t, cfg, mix)
}

// TestBatchMatchesSerialTier2MSHRs keeps MSHR modeling on the lane side.
func TestBatchMatchesSerialTier2MSHRs(t *testing.T) {
	cfg, mix := batchTestConfig(t, 4)
	cfg.L1Prefetcher, cfg.L2Prefetcher = "none", "none"
	cfg.ModelMSHRs = true
	assertBatchMatchesSerial(t, cfg, mix)
}

// TestBatchInclusiveLLCFallsBackToTier1 checks an inclusive LLC (whose
// back-invalidations couple the private caches to lane state) still
// batches correctly via tier 1.
func TestBatchInclusiveLLCFallsBackToTier1(t *testing.T) {
	cfg, mix := batchTestConfig(t, 2)
	cfg.L1Prefetcher, cfg.L2Prefetcher = "none", "none"
	cfg.InclusiveLLC = true
	if tier2Eligible(cfg) {
		t.Fatal("inclusive LLC must not be tier-2 eligible")
	}
	assertBatchMatchesSerial(t, cfg, mix)
}

// TestBatchAloneLanes checks alone-run lanes reproduce RunAloneN exactly
// while sharing the stream with a mix lane.
func TestBatchAloneLanes(t *testing.T) {
	cfg, mix := batchTestConfig(t, 4)
	cfg.L1Prefetcher, cfg.L2Prefetcher = "none", "none"
	base := cfg
	base.Policy = policies.Spec{Name: "lru"}

	variants := []Variant{{Policy: base.Policy}}
	for c := 0; c < cfg.Cores; c++ {
		variants = append(variants, Variant{Policy: base.Policy, Alone: true, AloneCore: c})
	}
	batched, err := RunBatch(base, variants, mix)
	if err != nil {
		t.Fatalf("RunBatch: %v", err)
	}

	alone, err := RunAloneN(base, mix, 1)
	if err != nil {
		t.Fatalf("RunAloneN: %v", err)
	}
	for c := 0; c < cfg.Cores; c++ {
		if got := batched[1+c].PerCore[c].IPC; got != alone[c] {
			t.Errorf("alone lane core %d IPC = %v, serial %v", c, got, alone[c])
		}
	}
	serial, err := RunMix(base, mix)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultJSON(t, batched[0]), resultJSON(t, serial); got != want {
		t.Errorf("mix lane result differs from serial when batched with alone lanes")
	}
}

// TestBatchForkFallback forces the generator-fork path via a tiny memory
// budget and checks results stay identical.
func TestBatchForkFallback(t *testing.T) {
	old := batchMemBudget
	batchMemBudget = 1
	defer func() { batchMemBudget = old }()
	cfg, mix := batchTestConfig(t, 2)
	assertBatchMatchesSerial(t, cfg, mix)
}

// TestBatchCancellation checks a cancelled context aborts the batch.
func TestBatchCancellation(t *testing.T) {
	cfg, mix := batchTestConfig(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunBatchContext(ctx, cfg, []Variant{{Policy: policies.Spec{Name: "lru"}}}, mix)
	if err == nil {
		t.Fatal("expected cancellation error")
	}
}

// TestBatchSingleLaneMatchesRunMix: a batch of one mix lane takes the
// plain runner and must equal RunMixContext exactly, on both sharing
// tiers, while still reporting its lane time to the phase observer.
func TestBatchSingleLaneMatchesRunMix(t *testing.T) {
	for _, pf := range []string{"", "none"} {
		cfg, mix := batchTestConfig(t, 4)
		if pf != "" {
			cfg.L1Prefetcher, cfg.L2Prefetcher = pf, pf
		}
		spec := policies.Spec{Name: "mockingjay", Drishti: true}
		obs := &phaseLog{}
		cfg.Phases = obs
		batched, err := RunBatchContext(context.Background(), cfg, []Variant{{Policy: spec}}, mix)
		if err != nil {
			t.Fatalf("prefetchers %q: RunBatchContext: %v", pf, err)
		}
		c := cfg
		c.Policy = spec
		c.Phases = nil
		serial, err := RunMixContext(context.Background(), c, mix)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := resultJSON(t, batched[0]), resultJSON(t, serial); got != want {
			t.Errorf("prefetchers %q: single-lane batch differs from RunMixContext", pf)
		}
		if _, ok := obs.got["lane-run#0"]; !ok {
			t.Errorf("prefetchers %q: no lane-run reported for the lane", pf)
		}
	}
}
