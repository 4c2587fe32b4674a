package dist

import (
	"context"
	"fmt"
	"log/slog"

	"drishti/internal/engine"
	"drishti/internal/obs/trace"
	"drishti/internal/serve/api"
	"drishti/internal/sim"
	"drishti/internal/store"
)

// Lockstep batching in the fleet. Cells of one job that differ only in
// replacement policy describe the same machine running the same mix, so
// the coordinator packs them onto one grant and the worker resolves them
// through the cell engine (internal/engine) as one batch group. The
// grouping is node-local: the wire schema is untouched — leases still
// carry one CellSpec each, completions still settle one lease each — a
// batch is simply several leases that happen to be executed by one
// simulation.

// planCell rebuilds one cell from its wire spec and verifies its content
// address matches the coordinator's (loud failure on any schema drift).
// parent is the span the cell's engine spans hang under.
func planCell(spec api.CellSpec, parent trace.SpanContext) (engine.Cell, error) {
	cfg, mix, err := spec.Request.Cell(spec.WorkloadIndex, spec.PolicyIndex)
	if err != nil {
		return engine.Cell{}, err
	}
	if key := api.CellKey(cfg, mix); key != spec.Key {
		return engine.Cell{}, fmt.Errorf(
			"dist: cell key mismatch (wire-schema drift?): coordinator sent %q, rebuilt %q", spec.Key, key)
	}
	return engine.Cell{Key: spec.Key, Config: cfg, Mix: mix, Parent: parent}, nil
}

// runGroup resolves one batch group of wire specs through the cell
// engine, each cell's spans under its own parent. A spec that fails to
// plan fails the whole group.
func runGroup(ctx context.Context, st *store.Store, log *slog.Logger, tr *trace.Tracer, specs []api.CellSpec, parents []trace.SpanContext, laneWorkers int) ([]*sim.Result, []bool, error) {
	cells := make([]engine.Cell, len(specs))
	for i, spec := range specs {
		c, err := planCell(spec, parents[i])
		if err != nil {
			return nil, nil, err
		}
		cells[i] = c
	}
	return engine.Run(ctx, st, log, tr, cells, laneWorkers)
}

// groupLeases partitions granted leases into batch groups, preserving the
// grant order within and across groups. A lease whose spec fails to
// resolve becomes a singleton group, whose planning error then surfaces
// through the normal complete-with-error flow.
func groupLeases(leases []api.Lease) [][]api.Lease {
	var (
		order  []string
		groups = make(map[string][]api.Lease)
	)
	for _, l := range leases {
		c, err := planCell(l.Cell, trace.SpanContext{})
		gk := "!" + l.ID // unresolvable: never groups with anything
		if err == nil {
			gk = engine.GroupKey(c.Config, c.Mix)
		}
		if _, ok := groups[gk]; !ok {
			order = append(order, gk)
		}
		groups[gk] = append(groups[gk], l)
	}
	out := make([][]api.Lease, 0, len(order))
	for _, gk := range order {
		out = append(out, groups[gk])
	}
	return out
}
