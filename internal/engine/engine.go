// Package engine is the one way a store-backed deployment turns sweep
// cells into results. The single-node job service, fleet workers and the
// coordinator's local fallback all hand it a batch group — cells that
// describe the same machine running the same mix and differ only in
// replacement policy — and it resolves the group with at most one
// lockstep simulation (sim.RunBatchContext): every cell is looked up in
// the content-addressed store, the misses run as the lanes of one batch
// over a single generation of the access streams, and fresh results are
// written back. Lane results are bit-identical to serial runs, so the
// store contents and job results cannot tell how a cell was grouped.
package engine

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"drishti/internal/obs/trace"
	"drishti/internal/policies"
	"drishti/internal/serve/api"
	"drishti/internal/sim"
	"drishti/internal/store"
	"drishti/internal/workload"
)

// Cell is one simulation of a batch group.
type Cell struct {
	Key    string // content address in the store (api.CellKey)
	Config sim.Config
	Mix    workload.Mix
	// Parent is the span the cell's spans hang under (its lease span in
	// the fleet, the job span on a single node); zero with tracing off.
	Parent trace.SpanContext
}

// GroupKey is the grouping address for lockstep batching: the cell's
// content address with the policy erased. Cells with equal group keys are
// the same machine on the same mix and may share a batch. Never on the
// wire; the coordinator computes it at decompose time and workers
// re-derive it from the lease's CellSpec.
func GroupKey(cfg sim.Config, mix workload.Mix) string {
	cfg.Policy = policies.Spec{}
	return api.CellKey(cfg, mix)
}

// Run resolves one batch group. Results and fromStore flags are aligned
// with cells. Store hits are served per cell; only the misses become
// lanes of the batch. A non-nil error applies to the whole group —
// callers fail or requeue every cell of it (RunBatchContext reports the
// lowest-indexed failing lane, matching the serial error order).
//
// With tr non-nil the batch gets a "batch-group" span carrying the shared
// phase timings (parented like its first lane), each lane a "lane" span
// under its own cell's parent, and store traffic "store-hit" /
// "store-write" spans. With tr nil nothing is emitted.
//
// laneWorkers caps the batch's concurrent lane execution
// (sim.Config.LaneWorkers). Callers pass the scheduler slots the group
// already holds, so batching never oversubscribes the node; results are
// bit-identical at every value.
func Run(ctx context.Context, st *store.Store, log *slog.Logger, tr *trace.Tracer, cells []Cell, laneWorkers int) ([]*sim.Result, []bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	results := make([]*sim.Result, len(cells))
	fromStore := make([]bool, len(cells))
	var (
		group string
		lanes []int // cells index per batch lane
		vars  []sim.Variant
	)
	for i, c := range cells {
		if gk := GroupKey(c.Config, c.Mix); i == 0 {
			group = gk
		} else if gk != group {
			return nil, nil, fmt.Errorf("engine: cell %d is not in the batch group of cell 0", i)
		}
		var cached sim.Result
		hit, err := st.Get(c.Key, &cached)
		if err != nil {
			return nil, nil, err
		}
		if hit {
			hs := tr.Start(c.Parent, "store-hit")
			hs.SetAttr("key", c.Key)
			hs.End()
			results[i] = &cached
			fromStore[i] = true
			continue
		}
		lanes = append(lanes, i)
		vars = append(vars, sim.Variant{Policy: c.Config.Policy})
	}
	if len(lanes) == 0 {
		return results, fromStore, nil
	}

	base := cells[lanes[0]]
	cfg := base.Config
	cfg.LaneWorkers = laneWorkers // observational only; excluded from Config.Key
	var pt *phaseTimes
	gspan := tr.Start(base.Parent, "batch-group")
	if gspan != nil {
		gspan.SetAttr("lanes", fmt.Sprint(len(lanes)))
		gspan.SetAttr("cells", fmt.Sprint(len(cells)))
		gspan.SetAttr("lane-workers", fmt.Sprint(laneWorkers))
		pt = newPhaseTimes()
		cfg.Phases = pt // observational only; excluded from Config.Key
	}
	// One "lane" span per batch lane, parented to that cell's own span so
	// each lease's subtree stays self-contained even though the lanes
	// share one simulation.
	lspans := make([]*trace.ActiveSpan, len(lanes))
	for k, i := range lanes {
		ls := tr.Start(cells[i].Parent, "lane")
		ls.SetAttr("lane", fmt.Sprint(k))
		ls.SetAttr("policy", vars[k].Policy.DisplayName())
		lspans[k] = ls
	}
	batch, err := sim.RunBatchContext(ctx, cfg, vars, base.Mix)
	if err != nil {
		for _, ls := range lspans {
			ls.SetAttr("error", err.Error())
			ls.End()
		}
		gspan.SetAttr("error", err.Error())
		gspan.End()
		return nil, nil, err
	}
	for k, i := range lanes {
		results[i] = batch[k]
		ls := lspans[k]
		if d, ok := pt.laneDur(k); ok {
			ls.SetAttr("phase.lane-run", d.Round(time.Microsecond).String())
		}
		ls.End()
		ws := tr.Start(ls.Context(), "store-write")
		ws.SetAttr("key", cells[i].Key)
		if err := st.Put(cells[i].Key, batch[k]); err != nil {
			// The result is good; only durability failed. Log and serve it.
			log.Warn("store put failed", "err", err)
			ws.SetAttr("error", err.Error())
		}
		ws.End()
	}
	pt.stampShared(gspan)
	gspan.End()
	return results, fromStore, nil
}

// phaseTimes accumulates the simulator's phase-timing callbacks for one
// batch (sim.PhaseObserver). Lane -1 phases are shared across the batch;
// non-negative lanes index the batch's variants. The mutex satisfies the
// PhaseObserver concurrency contract: with sim.Config.LaneWorkers > 1,
// "lane-run" timings arrive from concurrent lane goroutines. A nil
// *phaseTimes (tracing off) reads as empty.
type phaseTimes struct {
	mu     sync.Mutex
	shared map[string]time.Duration
	lane   map[int]time.Duration // accumulated "lane-run" per lane
	grows  int                   // deadlock-breaker window growths ("window-grow")
}

func newPhaseTimes() *phaseTimes {
	return &phaseTimes{shared: make(map[string]time.Duration), lane: make(map[int]time.Duration)}
}

func (p *phaseTimes) ObservePhase(phase string, lane int, d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if lane < 0 {
		if phase == "window-grow" {
			p.grows++
			return
		}
		p.shared[phase] += d
		return
	}
	p.lane[lane] += d
}

// laneDur returns the accumulated "lane-run" time for one lane.
func (p *phaseTimes) laneDur(lane int) (time.Duration, bool) {
	if p == nil {
		return 0, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	d, ok := p.lane[lane]
	return d, ok
}

// stampShared copies the batch's shared phase timings (workload gen,
// private-hierarchy replay, lockstep barriers, window growths) onto a
// span as attributes.
func (p *phaseTimes) stampShared(sp *trace.ActiveSpan) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, ph := range []string{"workload-gen", "private-replay", "barrier"} {
		if d, ok := p.shared[ph]; ok {
			sp.SetAttr("phase."+ph, d.Round(time.Microsecond).String())
		}
	}
	if p.grows > 0 {
		sp.SetAttr("phase.window-grows", fmt.Sprint(p.grows))
	}
}
