package experiments

import (
	"context"
	"encoding/json"
	"testing"

	"drishti/internal/metrics"
	"drishti/internal/policies"
	"drishti/internal/sim"
)

// TestSweepBatchedMatchesUnbatched is the sweep-level bit-identity guard
// for lockstep batching: the batched sweep (alone + baseline + policy
// lanes over one shared stream per mix) must produce exactly the numbers
// of unbatched serial simulations — sim.RunAloneNContext for the alone
// IPCs, sim.RunMixContext for the LRU baseline and every policy cell.
func TestSweepBatchedMatchesUnbatched(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep determinism test is not -short")
	}
	cfg, mixes, specs := sweepFixture()
	ctx := context.Background()

	ResetCache()
	batched, err := runSweep(cfg, mixes, specs, Params{Parallelism: 2})
	ResetCache()
	if err != nil {
		t.Fatalf("batched sweep: %v", err)
	}

	for mi, mix := range mixes {
		base := cfg
		base.Policy = policies.Spec{Name: "lru"}
		alone, err := sim.RunAloneNContext(ctx, base, mix, 1)
		if err != nil {
			t.Fatal(err)
		}
		baseRes, err := sim.RunMixContext(ctx, base, mix)
		if err != nil {
			t.Fatal(err)
		}
		baseM, err := metrics.Compute(baseRes.IPCs(), alone)
		if err != nil {
			t.Fatal(err)
		}
		ev := batched.evals[mi]
		if ev.baseWS != baseM.WS {
			t.Errorf("baseWS[%d]: batched %v != serial %v", mi, ev.baseWS, baseM.WS)
		}
		for c := range alone {
			if ev.alone[c] != alone[c] {
				t.Errorf("alone[%d][%d]: batched %v != serial %v", mi, c, ev.alone[c], alone[c])
			}
		}
		if got, want := resultJSON(t, ev.baseRes), resultJSON(t, baseRes); got != want {
			t.Errorf("baseline result[%d] differs from serial run", mi)
		}
		for si, spec := range specs {
			c := cfg
			c.Policy = spec
			res, err := sim.RunMixContext(ctx, c, mix)
			if err != nil {
				t.Fatal(err)
			}
			m, err := metrics.Compute(res.IPCs(), alone)
			if err != nil {
				t.Fatal(err)
			}
			if b, s := batched.normWS[si][mi], m.WS/baseM.WS; b != s {
				t.Errorf("normWS[%d][%d]: batched %v != serial %v", si, mi, b, s)
			}
			if got, want := resultJSON(t, batched.outcomes[si][mi].res), resultJSON(t, res); got != want {
				t.Errorf("result[%d][%d] (%s): batched differs from serial run", si, mi, spec.DisplayName())
			}
		}
	}
}

func resultJSON(t *testing.T, r *sim.Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSweepBatchedLaneWorkersMatchesSerial turns BOTH concurrency knobs
// on at once — sweep-level Parallelism and intra-batch LaneWorkers — and
// requires the result to be bit-identical to the fully serial sweep.
// Under -race this is the composition check: batch groups running on the
// sweep pool while each group's lanes run on its own lane pool, all
// through the shared memo caches.
func TestSweepBatchedLaneWorkersMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep determinism test is not -short")
	}
	cfg, mixes, specs := sweepFixture()

	ResetCache()
	serial, err := runSweep(cfg, mixes, specs, Params{Parallelism: 1, LaneWorkers: 1})
	if err != nil {
		t.Fatalf("serial batched sweep: %v", err)
	}
	ResetCache()
	par, err := runSweep(cfg, mixes, specs, Params{Parallelism: 2, LaneWorkers: 2})
	if err != nil {
		t.Fatalf("parallel batched sweep: %v", err)
	}
	ResetCache()

	for si := range specs {
		for mi := range mixes {
			if s, p := serial.normWS[si][mi], par.normWS[si][mi]; s != p {
				t.Errorf("normWS[%d][%d]: serial %v != parallel+lanes %v", si, mi, s, p)
			}
			sres, pres := serial.outcomes[si][mi].res, par.outcomes[si][mi].res
			if sres.MPKI != pres.MPKI {
				t.Errorf("MPKI[%d][%d]: serial %v != parallel+lanes %v", si, mi, sres.MPKI, pres.MPKI)
			}
			if sres.Energy.Total != pres.Energy.Total {
				t.Errorf("energy[%d][%d]: serial %v != parallel+lanes %v", si, mi,
					sres.Energy.Total, pres.Energy.Total)
			}
		}
		if serial.geoNormWS(si) != par.geoNormWS(si) {
			t.Errorf("geoNormWS(%d) differs with both concurrency knobs on", si)
		}
	}
	for mi := range mixes {
		sev, pev := serial.evals[mi], par.evals[mi]
		if sev.baseWS != pev.baseWS {
			t.Errorf("baseWS[%d]: serial %v != parallel+lanes %v", mi, sev.baseWS, pev.baseWS)
		}
		for c := range sev.alone {
			if sev.alone[c] != pev.alone[c] {
				t.Errorf("alone[%d][%d]: serial %v != parallel+lanes %v", mi, c, sev.alone[c], pev.alone[c])
			}
		}
	}
}

// TestSweepBatchedDedupsBaseline: when LRU is one of the swept specs its
// lane doubles as the eval baseline — the baseline result in the eval and
// the LRU cell's result must be the same simulation (and exactly equal).
func TestSweepBatchedDedupsBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	p := tinyParams()
	cfg := p.config(2)
	mixes := p.paperMixes(cfg, 2)[:1]
	specs := []policies.Spec{{Name: "lru"}, {Name: "srrip"}}

	ResetCache()
	sr, err := runSweep(cfg, mixes, specs, Params{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ResetCache()
	for si, spec := range specs {
		if spec.Name != "lru" || spec.Drishti {
			continue
		}
		if sr.outcomes[si][0].res != sr.evals[0].baseRes {
			t.Errorf("LRU cell result is not the deduplicated baseline lane")
		}
		if sr.normWS[si][0] != 1 {
			t.Errorf("LRU normalized WS = %v, want exactly 1 (same run as baseline)", sr.normWS[si][0])
		}
	}
}
