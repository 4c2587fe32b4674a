package experiments

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"

	"drishti/internal/engine"
	"drishti/internal/metrics"
	"drishti/internal/obs"
	"drishti/internal/policies"
	"drishti/internal/serve/api"
	"drishti/internal/sim"
	"drishti/internal/store"
	"drishti/internal/workload"
)

// harness is the process-level store every harness cell resolves
// through (engine.Run): sweep cells, each mix's LRU baseline and its
// per-core alone calibration are all entries, so several figures reusing
// the same runs (fig13/fig14/tab05 share sweeps, and every sweep of a mix
// shares its baseline and alone runs) get store hits instead of
// re-simulating. Keys are api.CellKey/api.AloneCellKey, so results are
// exact. The store is a Cached tier of store.DefaultCacheEntries over a
// backend that keeps nothing: resident results stay bounded at any
// -mixes, and LRU eviction keeps the runs the current experiment reuses.
var harness struct {
	mu   sync.Mutex
	tier *store.Cached // nil until first use and after ResetCache
	st   *store.Store
}

// ResetCache starts the harness store cold: it closes the current tier,
// and the next cell opens an empty one (tests use it to isolate runs;
// benchmarks to time cold sweeps).
func ResetCache() {
	harness.mu.Lock()
	old := harness.tier
	harness.tier, harness.st = nil, nil
	harness.mu.Unlock()
	if old != nil {
		old.Close()
	}
}

// harnessStore returns the current harness store, opening it if needed.
func harnessStore() *store.Store {
	harness.mu.Lock()
	defer harness.mu.Unlock()
	if harness.st == nil {
		harness.tier = store.NewCached(store.Discard{}, store.DefaultCacheEntries)
		harness.st = store.OpenBackend(harness.tier)
	}
	return harness.st
}

// mixEval is the evaluation context for one mix: the LRU baseline run and
// the per-core alone IPCs (measured under LRU and shared across policies;
// see DESIGN.md §4).
type mixEval struct {
	alone   []float64
	baseWS  float64
	baseRes *sim.Result
}

// policyOutcome is one policy's result on one mix, normalized to LRU.
type policyOutcome struct {
	res    *sim.Result
	multi  metrics.Multi
	normWS float64 // WS(policy) / WS(lru) — the paper's headline metric
}

// sweepResult holds a sweep's per-mix evaluations and per-(spec, mix)
// outcomes.
type sweepResult struct {
	evals    []*mixEval
	normWS   [][]float64 // [spec][mix]
	outcomes [][]*policyOutcome
}

// runSweep executes the sweep mix by mix, resolving each mix's cells as
// one batch group (runBatchedMix): the per-core alone calibration cells
// and the LRU baseline ride with the policy cells, and whichever of them
// the harness store does not already hold run as the lanes of one
// lockstep batch over a single shared generation of the access streams.
// A bounded worker pool dispatches whole mixes; results are bit-identical
// at every parallelism. On failure the sweep stops dispatching and
// returns the lowest-mix error — mixes are dispatched in order, so every
// mix before the winner has already run, which makes the error the
// serial sweep's.
func runSweep(cfg sim.Config, mixes []workload.Mix, specs []policies.Spec, p Params) (*sweepResult, error) {
	sr := &sweepResult{
		evals:    make([]*mixEval, len(mixes)),
		normWS:   make([][]float64, len(specs)),
		outcomes: make([][]*policyOutcome, len(specs)),
	}
	for i := range specs {
		sr.normWS[i] = make([]float64, len(mixes))
		sr.outcomes[i] = make([]*policyOutcome, len(mixes))
	}
	log := p.logger()
	p.Progress.AddTotal(len(mixes) * len(specs))
	cellDone := func(mix workload.Mix, spec policies.Spec, out *policyOutcome) {
		p.Progress.Done(1)
		c := cfg
		c.Policy = spec
		log.Info("cell done",
			"run", obs.RunID(c.Key(), mix.Key()),
			"mix", mix.Name, "policy", spec.DisplayName(),
			"normWS", out.normWS, "mpki", out.res.MPKI)
	}
	ctx := p.ctx()
	par := min(p.Parallel(), max(len(mixes), 1))
	// Compose the two parallelism levels so concurrent mixes × lane
	// workers stays within the Parallel() budget: by default the surplus
	// budget left after the mix pool flows to each batch's lanes; an
	// explicit Params.LaneWorkers claims its share and the mix pool
	// shrinks instead. Purely a scheduling split — results are
	// bit-identical at every combination.
	lw := p.LaneWorkers
	if lw <= 0 {
		if lw = p.Parallel() / par; lw < 1 {
			lw = 1
		}
	} else if room := p.Parallel() / lw; par > room {
		if par = room; par < 1 {
			par = 1
		}
	}
	st := harnessStore()
	runOne := func(mi int) error {
		ev, outs, err := runBatchedMix(ctx, st, log, cfg, mixes[mi], specs, lw)
		if err != nil {
			return err
		}
		sr.evals[mi] = ev
		for si, out := range outs {
			// Mix-private slots: no lock needed.
			sr.normWS[si][mi] = out.normWS
			sr.outcomes[si][mi] = out
			cellDone(mixes[mi], specs[si], out)
		}
		return nil
	}
	var (
		mu       sync.Mutex
		firstErr error
		errMix   = len(mixes)
		wg       sync.WaitGroup
		sem      = make(chan struct{}, par)
	)
	record := func(mi int, err error) {
		mu.Lock()
		if mi < errMix {
			errMix, firstErr = mi, err
		}
		mu.Unlock()
	}
	for mi := 0; mi < len(mixes); mi++ {
		// Take the slot before checking for failure, so a mix failing
		// while this one waits stops dispatch (with par 1, exactly where
		// a serial loop would stop).
		sem <- struct{}{}
		if err := ctx.Err(); err != nil {
			record(mi, err)
		}
		mu.Lock()
		failed := firstErr != nil
		mu.Unlock()
		if failed {
			<-sem
			break
		}
		wg.Add(1)
		go func(mi int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := runOne(mi); err != nil {
				record(mi, err)
			}
		}(mi)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return sr, nil
}

// runBatchedMix resolves one mix's cells — per-core alone calibration and
// the LRU baseline, plus one cell per policy spec — as a single engine
// batch group against st, and assembles the mixEval/policyOutcome values
// that serial runs of each cell would give. When LRU is itself one of the
// swept specs its cell doubles as the baseline. Cell order (alone, policy,
// baseline) fixes the lane order, and with it the epochs' lane tags.
func runBatchedMix(ctx context.Context, st *store.Store, log *slog.Logger, cfg sim.Config, mix workload.Mix, specs []policies.Spec, laneWorkers int) (*mixEval, []*policyOutcome, error) {
	base := cfg
	base.Policy = policies.Spec{Name: "lru"}
	cells := make([]engine.Cell, 0, cfg.Cores+len(specs)+1)
	for c := 0; c < cfg.Cores; c++ {
		cells = append(cells, engine.Cell{Key: api.AloneCellKey(base, mix, c), Config: base, Mix: mix, Alone: true, AloneCore: c})
	}
	baseIdx := -1
	lruKey := base.Policy.Key()
	for _, spec := range specs {
		if baseIdx < 0 && spec.Key() == lruKey {
			baseIdx = len(cells) // the LRU cell doubles as the baseline
		}
		cells = append(cells, policyCell(cfg, mix, spec))
	}
	if baseIdx < 0 {
		baseIdx = len(cells)
		cells = append(cells, policyCell(cfg, mix, base.Policy))
	}
	results, _, err := engine.Run(ctx, st, log, nil, cells, laneWorkers)
	if err != nil {
		return nil, nil, fmt.Errorf("batched cells for %s: %w", mix.Name, err)
	}

	alone := make([]float64, cfg.Cores)
	for c := range alone {
		if alone[c] = results[c].PerCore[c].IPC; alone[c] <= 0 {
			return nil, nil, fmt.Errorf("mix %s core %d: zero alone IPC", mix.Name, c)
		}
	}
	baseRes := results[baseIdx]
	m, err := metrics.Compute(baseRes.IPCs(), alone)
	if err != nil {
		return nil, nil, err
	}
	ev := &mixEval{alone: alone, baseWS: m.WS, baseRes: baseRes}
	outs := make([]*policyOutcome, len(specs))
	for si := range specs {
		res := results[cfg.Cores+si]
		m, err := metrics.Compute(res.IPCs(), alone)
		if err != nil {
			return nil, nil, err
		}
		outs[si] = &policyOutcome{res: res, multi: m, normWS: m.WS / ev.baseWS}
	}
	return ev, outs, nil
}

// policyCell is the engine cell of spec on cfg's machine running mix.
func policyCell(cfg sim.Config, mix workload.Mix, spec policies.Spec) engine.Cell {
	cfg.Policy = spec
	return engine.Cell{Key: api.CellKey(cfg, mix), Config: cfg, Mix: mix}
}

// runCells resolves one cell per spec of cfg's machine on mix as a single
// batch group against the harness store, returning results aligned with
// specs.
func runCells(p Params, cfg sim.Config, mix workload.Mix, specs []policies.Spec) ([]*sim.Result, error) {
	cells := make([]engine.Cell, len(specs))
	for i, spec := range specs {
		cells[i] = policyCell(cfg, mix, spec)
	}
	results, _, err := engine.Run(p.ctx(), harnessStore(), p.logger(), nil, cells, p.LaneWorkers)
	return results, err
}

// geoNormWS returns the geomean normalized WS for spec index si.
func (sr *sweepResult) geoNormWS(si int) float64 { return geomean(sr.normWS[si]) }

// avgMPKI returns the mean LLC demand MPKI for spec index si.
func (sr *sweepResult) avgMPKI(si int) float64 {
	var s float64
	for _, out := range sr.outcomes[si] {
		s += out.res.MPKI
	}
	return s / float64(len(sr.outcomes[si]))
}

// avgWPKI returns the mean LLC WPKI for spec index si.
func (sr *sweepResult) avgWPKI(si int) float64 {
	var s float64
	for _, out := range sr.outcomes[si] {
		s += out.res.WPKI
	}
	return s / float64(len(sr.outcomes[si]))
}

// avgBaseMPKI returns the mean LRU MPKI across the sweep's mixes.
func (sr *sweepResult) avgBaseMPKI() float64 {
	var s float64
	for _, ev := range sr.evals {
		s += ev.baseRes.MPKI
	}
	return s / float64(len(sr.evals))
}

// avgBaseWPKI returns the mean LRU WPKI across the sweep's mixes.
func (sr *sweepResult) avgBaseWPKI() float64 {
	var s float64
	for _, ev := range sr.evals {
		s += ev.baseRes.WPKI
	}
	return s / float64(len(sr.evals))
}

// avgEnergy returns the mean uncore energy for spec si normalized to LRU.
func (sr *sweepResult) avgEnergy(si int) float64 {
	var s float64
	n := 0
	for mi, out := range sr.outcomes[si] {
		base := sr.evals[mi].baseRes.Energy.Total
		if base > 0 {
			s += out.res.Energy.Total / base
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// header prints a standard experiment banner.
func header(w io.Writer, id, title string, p Params) {
	fmt.Fprintf(w, "== %s: %s\n", id, title)
	fmt.Fprintf(w, "   scale=1/%d instr=%d warmup=%d mixes=%d seed=%d\n",
		p.Scale, p.Instructions, p.Warmup, p.Mixes, p.Seed)
}

// mainSpecs is the Fig 13/14/Table 5/6 policy set.
func mainSpecs() []policies.Spec {
	return []policies.Spec{
		{Name: "hawkeye"},
		{Name: "hawkeye", Drishti: true},
		{Name: "mockingjay"},
		{Name: "mockingjay", Drishti: true},
	}
}
