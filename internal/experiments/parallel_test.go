package experiments

import (
	"testing"

	"drishti/internal/policies"
	"drishti/internal/sim"
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

// TestRunSweepCachedSingleflight: a second identical request is served
// from the cache (same result pointer), and parallelism is not part of
// the key.
func TestRunSweepCachedSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	p := tinyParams()
	cfg := p.config(2)
	mixes := p.paperMixes(cfg, 2)[:1]
	specs := []policies.Spec{{Name: "srrip"}}
	ResetCache()
	a, err := runSweepCached(cfg, mixes, specs, Params{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSweepCached(cfg, mixes, specs, Params{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical sweep recomputed: parallelism leaked into the cache key")
	}
	ResetCache()
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

// TestCachesBounded: the memo caches advertise finite capacities and
// ResetCache empties them.
func TestCachesBounded(t *testing.T) {
	if evalCache.Cap() <= 0 || sweepCache.Cap() <= 0 {
		t.Fatal("cross-experiment caches must be bounded")
	}
	p := tinyParams()
	cfg := p.config(2)
	mixes := p.paperMixes(cfg, 2)[:1]
	if _, err := runSweepCached(cfg, mixes, []policies.Spec{{Name: "srrip"}}, Params{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if evalCache.Len() == 0 || sweepCache.Len() == 0 {
		t.Fatal("sweep or its eval not cached")
	}
	ResetCache()
	if evalCache.Len() != 0 || sweepCache.Len() != 0 {
		t.Fatal("ResetCache left entries behind")
	}
}
