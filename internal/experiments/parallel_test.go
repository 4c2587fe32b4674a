package experiments

import (
	"testing"

	"drishti/internal/policies"
	"drishti/internal/sim"
	"drishti/internal/store"
	"drishti/internal/workload"
)

// sweepFixture builds a small but non-trivial sweep: 2 mixes × 3 specs on
// a 2-core scaled machine.
func sweepFixture() (sim.Config, []workload.Mix, []policies.Spec) {
	p := tinyParams()
	cfg := p.config(2)
	mixes := p.paperMixes(cfg, 2)
	specs := []policies.Spec{
		{Name: "srrip"},
		{Name: "hawkeye"},
		{Name: "hawkeye", Drishti: true},
	}
	return cfg, mixes, specs
}

// TestSweepParallelMatchesSerial is the tentpole determinism guarantee:
// a sweep at parallelism 8 produces bit-identical normWS, MPKI, WPKI, and
// energy values to the strictly serial run.
func TestSweepParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep determinism test is not -short")
	}
	cfg, mixes, specs := sweepFixture()

	ResetCache()
	serial, err := runSweep(cfg, mixes, specs, Params{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ResetCache() // force the parallel run to recompute everything
	par, err := runSweep(cfg, mixes, specs, Params{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	ResetCache()

	for si := range specs {
		for mi := range mixes {
			if s, p := serial.normWS[si][mi], par.normWS[si][mi]; s != p {
				t.Errorf("normWS[%d][%d]: serial %v != parallel %v", si, mi, s, p)
			}
			sres, pres := serial.outcomes[si][mi].res, par.outcomes[si][mi].res
			if sres.MPKI != pres.MPKI {
				t.Errorf("MPKI[%d][%d]: serial %v != parallel %v", si, mi, sres.MPKI, pres.MPKI)
			}
			if sres.WPKI != pres.WPKI {
				t.Errorf("WPKI[%d][%d]: serial %v != parallel %v", si, mi, sres.WPKI, pres.WPKI)
			}
			if sres.Energy.Total != pres.Energy.Total {
				t.Errorf("energy[%d][%d]: serial %v != parallel %v", si, mi,
					sres.Energy.Total, pres.Energy.Total)
			}
		}
	}
	for mi := range mixes {
		sev, pev := serial.evals[mi], par.evals[mi]
		if sev == nil || pev == nil {
			t.Fatalf("eval[%d] missing: serial %v parallel %v", mi, sev, pev)
		}
		if sev.baseWS != pev.baseWS {
			t.Errorf("baseWS[%d]: serial %v != parallel %v", mi, sev.baseWS, pev.baseWS)
		}
		for c := range sev.alone {
			if sev.alone[c] != pev.alone[c] {
				t.Errorf("alone[%d][%d]: serial %v != parallel %v", mi, c, sev.alone[c], pev.alone[c])
			}
		}
	}
	// Aggregates follow from the cells, but assert the headline numbers too.
	for si := range specs {
		if serial.geoNormWS(si) != par.geoNormWS(si) {
			t.Errorf("geoNormWS(%d) differs", si)
		}
		if serial.avgEnergy(si) != par.avgEnergy(si) {
			t.Errorf("avgEnergy(%d) differs", si)
		}
	}
}

// TestSweepErrorDeterministic: an error in one cell cancels the sweep and
// the returned error is the serial path's first error at every
// parallelism.
func TestSweepErrorDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	p := tinyParams()
	cfg := p.config(2)
	mixes := p.paperMixes(cfg, 2)
	// Cell (mix 0, spec 1) is the first to fail serially; later cells
	// fail too, so the parallel pool must still surface cell (0,1).
	specs := []policies.Spec{
		{Name: "lru"},
		{Name: "no-such-policy"},
		{Name: "also-bogus"},
	}
	ResetCache()
	_, errSerial := runSweep(cfg, mixes, specs, Params{Parallelism: 1})
	if errSerial == nil {
		t.Fatal("serial sweep accepted a bogus policy")
	}
	for _, par := range []int{2, 8} {
		ResetCache()
		_, err := runSweep(cfg, mixes, specs, Params{Parallelism: par})
		if err == nil {
			t.Fatalf("parallelism %d accepted a bogus policy", par)
		}
		if err.Error() != errSerial.Error() {
			t.Fatalf("parallelism %d error %q != serial %q", par, err, errSerial)
		}
	}
	ResetCache()
}

// TestSweepEvalErrorDeterministic: a baseline-eval failure (not a policy
// cell failure) also surfaces the serial path's error.
func TestSweepEvalErrorDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	p := tinyParams()
	cfg := p.config(2)
	mixes := p.paperMixes(cfg, 2)
	// A streamless model fails generator construction inside the eval's
	// alone runs.
	mixes[1].Models[0] = workload.Model{Name: "broken"}
	specs := []policies.Spec{{Name: "lru"}, {Name: "srrip"}}
	ResetCache()
	_, errSerial := runSweep(cfg, mixes, specs, Params{Parallelism: 1})
	if errSerial == nil {
		t.Fatal("serial sweep accepted a broken mix")
	}
	ResetCache()
	_, errPar := runSweep(cfg, mixes, specs, Params{Parallelism: 8})
	if errPar == nil {
		t.Fatal("parallel sweep accepted a broken mix")
	}
	if errPar.Error() != errSerial.Error() {
		t.Fatalf("parallel error %q != serial %q", errPar, errSerial)
	}
	ResetCache()
}

// TestHarnessStoreRepeatSweepAllHits: an identical second sweep at a
// different parallelism is served entirely from the harness store — zero
// puts, one hit per cell — with equal values. Parallelism is not part of
// any cell key.
func TestHarnessStoreRepeatSweepAllHits(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	cfg, mixes, specs := sweepFixture()
	ResetCache()
	defer ResetCache()
	// The cold sweep runs both mixes at once with two lane workers each,
	// so concurrent batch groups write the store together.
	a, err := runSweep(cfg, mixes, specs, Params{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Per mix: the alone cells, one cell per spec, and the baseline.
	perSweep := uint64(len(mixes) * (cfg.Cores + len(specs) + 1))
	before := harnessStore().Stats()
	if before.Puts != perSweep || before.PutErrors != 0 {
		t.Fatalf("cold sweep: %d puts (%d failed), want %d", before.Puts, before.PutErrors, perSweep)
	}
	b, err := runSweep(cfg, mixes, specs, Params{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	after := harnessStore().Stats()
	if puts := after.Puts - before.Puts; puts != 0 {
		t.Errorf("repeat sweep wrote %d store entries, want 0", puts)
	}
	if misses := after.Misses - before.Misses; misses != 0 {
		t.Errorf("repeat sweep missed the store %d times, want 0", misses)
	}
	if hits := after.Hits - before.Hits; hits != perSweep {
		t.Errorf("repeat sweep had %d store hits, want %d", hits, perSweep)
	}
	for si := range specs {
		for mi := range mixes {
			if a.normWS[si][mi] != b.normWS[si][mi] {
				t.Errorf("normWS[%d][%d]: %v != %v", si, mi, a.normWS[si][mi], b.normWS[si][mi])
			}
			if got, want := resultJSON(t, b.outcomes[si][mi].res), resultJSON(t, a.outcomes[si][mi].res); got != want {
				t.Errorf("result[%d][%d] served from the store differs from the run", si, mi)
			}
		}
	}
	for mi := range mixes {
		if a.evals[mi].baseWS != b.evals[mi].baseWS {
			t.Errorf("baseWS[%d]: %v != %v", mi, a.evals[mi].baseWS, b.evals[mi].baseWS)
		}
	}
}

// TestHarnessStoreNewSpecRunsOwnLanes: a new spec on a mix the store
// already holds runs only its own cell; the alone calibration, the
// baseline and the earlier spec are hits.
func TestHarnessStoreNewSpecRunsOwnLanes(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	p := tinyParams()
	cfg := p.config(2)
	mixes := p.paperMixes(cfg, 2)[:1]
	ResetCache()
	defer ResetCache()
	if _, err := runSweep(cfg, mixes, []policies.Spec{{Name: "srrip"}}, Params{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	st := harnessStore()
	before := st.Stats()
	if _, err := runSweep(cfg, mixes, []policies.Spec{{Name: "srrip"}, {Name: "hawkeye"}}, Params{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	after := st.Stats()
	if puts := after.Puts - before.Puts; puts != 1 {
		t.Errorf("new spec wrote %d store entries, want 1 (its own cell)", puts)
	}
	if hits, want := after.Hits-before.Hits, uint64(cfg.Cores+2); hits != want {
		t.Errorf("%d store hits, want %d (alone cells, baseline, srrip)", hits, want)
	}
}

// TestParallelParam: flag/env plumbing and the GOMAXPROCS fallback.
func TestParallelParam(t *testing.T) {
	t.Setenv("DRISHTI_PARALLEL", "3")
	p := DefaultParams()
	if p.Parallelism != 3 || p.Parallel() != 3 {
		t.Fatalf("DRISHTI_PARALLEL ignored: %+v", p)
	}
	if got := (Params{}).Parallel(); got < 1 {
		t.Fatalf("zero-value Parallel() = %d, want >= 1", got)
	}
	if got := (Params{Parallelism: 1}).Parallel(); got != 1 {
		t.Fatalf("Parallel() = %d, want 1", got)
	}
}

// TestCachesBounded: the harness store is a memory tier of a fixed,
// finite capacity, and ResetCache empties it.
func TestCachesBounded(t *testing.T) {
	ResetCache()
	defer ResetCache()
	harnessStore()
	if got := harness.tier.Cap(); got != store.DefaultCacheEntries {
		t.Fatalf("harness store cap = %d, want %d", got, store.DefaultCacheEntries)
	}
	p := tinyParams()
	cfg := p.config(2)
	mixes := p.paperMixes(cfg, 2)[:1]
	if _, err := runSweep(cfg, mixes, []policies.Spec{{Name: "srrip"}}, Params{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if harness.tier.Len() == 0 {
		t.Fatal("sweep cells not in the harness store")
	}
	ResetCache()
	if got := harnessStore().Stats(); got != (store.Stats{}) {
		t.Fatalf("fresh harness store has activity %+v", got)
	}
	if n := harness.tier.Len(); n != 0 {
		t.Fatalf("ResetCache left %d entries behind", n)
	}
}
