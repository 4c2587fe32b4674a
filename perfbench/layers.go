package main

import (
	"fmt"
	"time"

	"drishti/internal/cache"
	"drishti/internal/mem"
	"drishti/internal/noc"
	"drishti/internal/policies"
	"drishti/internal/repl"
	"drishti/internal/stats"
	"drishti/internal/workload"
)

// workloadLayer times workload.Generator.Next on the workload's own mixes:
// every core's stream, for as many records as its simulation consumes
// (warm-up plus measured instructions).
func (r *run) workloadLayer(mcs []mixCfg) {
	var records int
	var spent time.Duration
	for _, mc := range mcs {
		budget := mc.cfg.Warmup + mc.cfg.Instructions
		for c := 0; c < mc.cfg.Cores; c++ {
			g, err := workload.NewGenerator(mc.mix.Models[c], mc.mix.Seeds[c])
			if err != nil {
				r.fail("generator for %s core %d: %v", mc.mix.Name, c, err)
				return
			}
			start := time.Now()
			for instr := uint64(0); instr < budget; records++ {
				rec, ok := g.Next()
				if !ok {
					break
				}
				instr += rec.Instructions()
			}
			spent += time.Since(start)
		}
	}
	r.set("workload.next_ns", "ns", float64(spent.Nanoseconds())/float64(records))
	r.set("workload.records", "count", float64(records))
}

// cacheLayer times cache.Cache under each sweep policy's LLC stack: the
// policy stack is built exactly as the simulator builds it, and the
// mix's block stream (interleaved across cores, sliced like the
// simulator's address hash) is replayed through one cache per slice.
func (r *run) cacheLayer(mc mixCfg) {
	const accesses = 200_000
	cfg := mc.cfg
	setBits := cfg.SetIndexBits()
	geo := policies.Geometry{Slices: cfg.Cores, Cores: cfg.Cores, SetsPerSlice: 1 << setBits, Ways: cfg.LLCWays}
	stream, sliceOf := blockStream(mc, accesses)
	for _, spec := range append([]policies.Spec{{Name: "lru"}}, sweepSpecs...) {
		mesh := noc.NewMesh(cfg.Cores, cfg.MeshPerHop, cfg.MeshRouter)
		star := noc.NewStar(cfg.Cores, cfg.StarLatency)
		built, err := policies.Build(spec, geo, mesh, star, stats.NewRand(cfg.Seed^0x5eed).Fork(42))
		if err != nil {
			r.fail("policy stack %s: %v", spec.DisplayName(), err)
			return
		}
		slices := make([]*cache.Cache, cfg.Cores)
		for i := range slices {
			slices[i], err = cache.New(cache.Config{Name: fmt.Sprintf("llc-%d", i), Sets: geo.SetsPerSlice, Ways: geo.Ways}, built.PerSlice[i])
			if err != nil {
				r.fail("llc slice: %v", err)
				return
			}
		}
		start := time.Now()
		for i, a := range stream {
			sl := slices[sliceOf[i]]
			if hit, _ := sl.Access(a); !hit {
				sl.Fill(a, a.Type == mem.RFO)
			}
		}
		spent := time.Since(start)
		r.set("cache.llc_access_ns."+spec.DisplayName(), "ns", float64(spent.Nanoseconds())/accesses)
	}
}

// blockStream pre-generates the mix's LLC access stream and each
// access's slice, so the timed loop does no generation.
func blockStream(mc mixCfg, n int) ([]repl.Access, []int) {
	cfg := mc.cfg
	setBits := uint(cfg.SetIndexBits())
	gens := make([]*workload.Generator, cfg.Cores)
	for c := range gens {
		gens[c] = workload.MustGenerator(mc.mix.Models[c], mc.mix.Seeds[c])
	}
	stream := make([]repl.Access, n)
	sliceOf := make([]int, n)
	for i := range stream {
		c := i % cfg.Cores
		rec, _ := gens[c].Next()
		block := rec.Addr >> 6
		typ := mem.Load
		if rec.Write {
			typ = mem.RFO
		}
		sliceOf[i] = int(stats.Mix64(mem.FoldXor(block>>setBits, 20)) % uint64(cfg.Cores))
		stream[i] = repl.Access{PC: rec.PC, Block: block, Core: c, Type: typ, Cycle: uint64(i)}
	}
	return stream, sliceOf
}
