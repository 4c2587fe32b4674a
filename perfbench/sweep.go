package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"strings"
	"sync"
	"time"

	"drishti/internal/experiments"
	"drishti/internal/metrics"
	"drishti/internal/policies"
	"drishti/internal/sim"
	"drishti/internal/workload"
)

// The sweep workload is Fig 13 (normalized weighted speedup at 4/16/32
// cores, LRU plus the four main policies) at a reduced, fixed scale, run
// in-process through the experiment harness.
func sweepParams(seed uint64) experiments.Params {
	return experiments.Params{Scale: 8, Instructions: 10_000, Warmup: 2_500, Mixes: 2, Seed: seed}
}

var sweepCores = []int{4, 16, 32}

// sweepSetups is how many set-ups (one fig13 run from cold caches each) a
// sweep run makes; setup_s is their median.
const sweepSetups = 3

// sweepSpecs mirrors the harness's main policy set (fig13's columns).
var sweepSpecs = []policies.Spec{
	{Name: "hawkeye"},
	{Name: "hawkeye", Drishti: true},
	{Name: "mockingjay"},
	{Name: "mockingjay", Drishti: true},
}

// cellClock records when the harness logs each finished sweep cell.
type cellClock struct {
	mu sync.Mutex
	at []time.Time
}

func (c *cellClock) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelInfo }
func (c *cellClock) WithAttrs([]slog.Attr) slog.Handler           { return c }
func (c *cellClock) WithGroup(string) slog.Handler                { return c }
func (c *cellClock) Handle(_ context.Context, rec slog.Record) error {
	if rec.Message == "cell done" {
		c.mu.Lock()
		c.at = append(c.at, time.Now())
		c.mu.Unlock()
	}
	return nil
}

// fig13 runs the experiment from cold memo caches and returns its table
// and the instants its cells finished.
func fig13(p experiments.Params) (string, time.Time, []time.Time, error) {
	exp, ok := experiments.ByID("fig13")
	if !ok {
		return "", time.Time{}, nil, fmt.Errorf("no fig13 experiment")
	}
	experiments.ResetCache()
	clock := &cellClock{}
	p.Logger = slog.New(clock)
	var out bytes.Buffer
	start := time.Now()
	err := exp.Run(p, &out)
	return out.String(), start, clock.at, err
}

func runSweep(r *run) error {
	p := sweepParams(r.seed)
	var setupCPU, setupWall []float64
	var table string
	for i := 0; i < sweepSetups; i++ {
		start, cpu0 := time.Now(), cpuSeconds()
		out, _, _, err := fig13(p)
		if err != nil {
			return err
		}
		setupWall = append(setupWall, time.Since(start).Seconds())
		setupCPU = append(setupCPU, cpuSeconds()-cpu0)
		if i > 0 && out != table {
			r.fail("set-up sweep %d table differs from the first", i)
		}
		table = out
	}
	r.logf("fig13 table:\n%s", table)

	reps, walls, p50s, p99s, cpus := 0, []float64(nil), []float64(nil), []float64(nil), []float64(nil)
	cells := 0
	deadline := time.Now().Add(r.window)
	for reps == 0 || time.Now().Before(deadline) {
		cpu0 := cpuSeconds()
		out, start, at, err := fig13(p)
		if err != nil {
			return err
		}
		walls = append(walls, time.Since(start).Seconds())
		cpus = append(cpus, cpuSeconds()-cpu0)
		var lat []float64
		for _, t := range at {
			lat = append(lat, ms(t.Sub(start)))
		}
		p50s = append(p50s, quantile(lat, 0.5))
		p99s = append(p99s, quantile(lat, 0.99))
		cells = len(at)
		reps++
		if out != table {
			r.fail("sweep repetition %d table differs from set-up's", reps)
		}
		// The cell clock hears the harness's per-cell log line; if that
		// line changed, the latency metrics would silently read 0.
		if want := len(sweepMixes(p)) * len(sweepSpecs); cells != want {
			r.fail("sweep repetition %d timed %d cells, want %d", reps, cells, want)
		}
		if r.traced && reps >= 2 {
			break
		}
	}
	r.check("sweep repetitions byte-equal", reps, 0)
	r.digest("fig13", sha([]byte(table)))
	r.checkRef("fig13 table", r.refs.Sweep, sha([]byte(table)))
	if err := r.sampledLanes(p); err != nil {
		return err
	}
	sweepS := median(walls)
	r.logf("sweep: %d repetitions, CPU %.3f s, walls %.3f s", reps, cpus, walls)
	r.setLatency(median(p50s), median(p99s), cells*reps)

	if r.traced {
		return r.sweepTraced(p, table, sweepS)
	}
	sweepCPU := median(cpus)
	r.set("setup_s", "s", median(setupCPU))
	r.set("sweep_cpu_s", "s", sweepCPU)
	r.set("cells_per_cpu_s", "cells/cpu-s", float64(cells)/sweepCPU)
	r.wall = wallTimes{SetupS: median(setupWall), SweepS: sweepS, CellsPerS: float64(cells) / sweepS}
	r.logf("sweep: %.3f CPU-s, %.3f s wall (medians of %d repetitions), %d cells each", sweepCPU, sweepS, reps, cells)
	return nil
}

// mixCfg is one simulated machine and the mix it runs.
type mixCfg struct {
	cfg sim.Config
	mix workload.Mix
}

// sweepMixes rebuilds the machines and mixes fig13 simulates, from the
// same public constructors the harness uses.
func sweepMixes(p experiments.Params) []mixCfg {
	var out []mixCfg
	for _, cores := range sweepCores {
		cfg := sim.ScaledConfig(cores, p.Scale)
		cfg.Instructions, cfg.Warmup, cfg.Seed = p.Instructions, p.Warmup, p.Seed
		models := workload.ScaleAll(workload.AllSPECGAP(), p.Scale, cfg.SetIndexBits())
		homo := workload.HomogeneousMixes(models, cores, p.Seed)
		var mixes []workload.Mix
		for i := 0; i < p.Mixes && i < len(homo); i++ {
			mixes = append(mixes, homo[i*len(homo)/p.Mixes])
		}
		mixes = append(mixes, workload.HeterogeneousMixes(models, cores, p.Mixes, p.Seed^0xdeadbeef)...)
		for _, m := range mixes {
			out = append(out, mixCfg{cfg, m})
		}
	}
	return out
}

// sweepVariants are the lanes the harness batches for one mix: the
// per-core alone calibration runs, the LRU baseline, and one lane per
// policy.
func sweepVariants(cores int) []sim.Variant {
	lru := policies.Spec{Name: "lru"}
	var vs []sim.Variant
	for c := 0; c < cores; c++ {
		vs = append(vs, sim.Variant{Policy: lru, Alone: true, AloneCore: c})
	}
	vs = append(vs, sim.Variant{Policy: lru})
	for _, s := range sweepSpecs {
		vs = append(vs, sim.Variant{Policy: s})
	}
	return vs
}

// sampledLanes checks two lanes of one batched 4-core mix against serial
// sim.RunMixContext runs of the same cells.
func (r *run) sampledLanes(p experiments.Params) error {
	mc := sweepMixes(p)[r.seed%uint64(p.Mixes*2)]
	vs := sweepVariants(mc.cfg.Cores)[mc.cfg.Cores:]
	res, err := sim.RunBatchContext(context.Background(), mc.cfg, vs, mc.mix)
	if err != nil {
		return err
	}
	bad := 0
	picks := []int{int(r.seed % uint64(len(vs))), int((r.seed + 2) % uint64(len(vs)))}
	for _, i := range picks {
		cfg := mc.cfg
		cfg.Policy = vs[i].Policy
		serial, err := sim.RunMixContext(context.Background(), cfg, mc.mix)
		if err != nil {
			return err
		}
		a, errA := json.Marshal(res[i])
		b, errB := json.Marshal(serial)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			bad++
			r.logf("batched lane %s on %s differs from its serial run", vs[i].Policy.DisplayName(), mc.mix.Name)
		}
	}
	r.check("batched lanes vs serial runs", len(picks), bad)
	return nil
}

// phaseClock is the benchmark's sim.PhaseObserver: it sums the batch
// phases' wall time and counts their reports.
type phaseClock struct {
	mu sync.Mutex
	ns map[string]time.Duration
	n  map[string]int
}

func (c *phaseClock) ObservePhase(phase string, _ int, d time.Duration) {
	c.mu.Lock()
	c.ns[phase] += d
	c.n[phase]++
	c.mu.Unlock()
}

// batchSweep runs every fig13 mix as one lockstep batch, one mix at a time
// with GOMAXPROCS lane workers, and returns the per-mix results and the
// summed batch wall time.
func batchSweep(mcs []mixCfg, obs sim.PhaseObserver) ([][]*sim.Result, time.Duration, error) {
	out := make([][]*sim.Result, len(mcs))
	var wall time.Duration
	for i, mc := range mcs {
		cfg := mc.cfg
		cfg.LaneWorkers = runtime.GOMAXPROCS(0)
		cfg.Phases = obs
		start := time.Now()
		res, err := sim.RunBatchContext(context.Background(), cfg, sweepVariants(cfg.Cores), mc.mix)
		wall += time.Since(start)
		if err != nil {
			return nil, 0, err
		}
		out[i] = res
	}
	return out, wall, nil
}

// sweepTraced is the sweep's per-layer run: fig13's cells re-run as
// batches with and without the benchmark's phase observer, the modelled
// components summed from their results, and the layer microbenchmarks.
func (r *run) sweepTraced(p experiments.Params, table string, sweepS float64) error {
	mcs := sweepMixes(p)
	// Untraced, traced, traced, untraced: the order cancels a drifting
	// host; the phase metrics come from the last traced pass.
	var (
		results       [][]*sim.Result
		clock         *phaseClock
		wall          time.Duration
		plain, traced float64
	)
	for _, on := range []bool{false, true, true, false} {
		var obs sim.PhaseObserver
		if on {
			clock = &phaseClock{ns: map[string]time.Duration{}, n: map[string]int{}}
			obs = clock
		}
		res, w, err := batchSweep(mcs, obs)
		if err != nil {
			return err
		}
		if on {
			results, wall = res, w
			traced += w.Seconds()
		} else {
			plain += w.Seconds()
		}
	}
	r.set("trace.overhead_frac", "ratio", traced/plain-1)
	r.set("experiments.overhead_s", "s", sweepS-wall.Seconds())

	lw := float64(runtime.GOMAXPROCS(0))
	r.set("sim.gen_s", "s", clock.ns["workload-gen"].Seconds())
	r.set("sim.private_replay_s", "s", clock.ns["private-replay"].Seconds())
	r.set("sim.lane_run_s", "s", clock.ns["lane-run"].Seconds())
	r.set("sim.barrier_s", "s", clock.ns["barrier"].Seconds())
	r.set("sim.window_grows", "count", float64(clock.n["window-grow"]))
	r.set("sim.lane_busy_ratio", "ratio", clock.ns["lane-run"].Seconds()/(wall.Seconds()*lw))

	// Modelled components over the sweep's cells (LRU baseline and policy
	// lanes; the alone calibration lanes only feed the IPC denominators).
	var c struct {
		acc, miss, byp, pf, mesh, star, look, remote, reads, rowHit, rowMiss, dsc, llcAll, instr float64
	}
	for i, mc := range mcs {
		for li, res := range results[i] {
			c.llcAll += float64(res.LLC.TotalAccesses)
			if li < mc.cfg.Cores {
				c.instr += float64(mc.cfg.Instructions + mc.cfg.Warmup)
				continue
			}
			c.instr += float64(uint64(mc.cfg.Cores) * (mc.cfg.Instructions + mc.cfg.Warmup))
			c.acc += float64(res.LLC.DemandAccesses)
			c.miss += float64(res.LLC.DemandMisses)
			c.byp += float64(res.LLC.Bypasses)
			c.pf += float64(res.PrefetchesIssued)
			c.mesh += float64(res.MeshMsgs)
			c.star += float64(res.StarMsgs)
			if res.Fabric != nil {
				c.look += float64(res.Fabric.Lookups)
				c.remote += float64(res.Fabric.RemoteLookups)
			}
			c.reads += float64(res.DRAM.Reads)
			c.rowHit += float64(res.DRAM.RowHits)
			c.rowMiss += float64(res.DRAM.RowMisses)
			c.dsc += float64(res.DSCSelections)
		}
	}
	r.set("sim.ns_per_llc_access", "ns", float64(wall.Nanoseconds())/c.llcAll)
	r.set("sim.batch_minstr_per_s", "Minstr/s", c.instr/1e6/wall.Seconds())
	r.set("llc.demand_accesses", "count", c.acc)
	r.set("llc.demand_misses", "count", c.miss)
	r.set("llc.bypasses", "count", c.byp)
	r.set("prefetch.issued", "count", c.pf)
	r.set("noc.mesh_msgs", "count", c.mesh)
	r.set("noc.star_msgs", "count", c.star)
	r.set("fabric.lookups", "count", c.look)
	r.set("fabric.remote_lookups", "count", c.remote)
	r.set("dram.reads", "count", c.reads)
	r.set("dram.row_hit_ratio", "ratio", ratio(c.rowHit, c.rowHit+c.rowMiss))
	r.set("sampler.dsc_selections", "count", c.dsc)
	r.digest("model_counts", sha([]byte(fmt.Sprintf("%v", c))))

	// The batches must reproduce the harness's table exactly.
	rows, err := fig13Rows(mcs, results)
	if err != nil {
		return err
	}
	bad := 0
	for _, row := range rows {
		if !strings.Contains(table, row) {
			bad++
			r.logf("batched row %q is not in the harness table", row)
		}
	}
	r.check("batched sweep rows vs harness table", len(rows), bad)

	r.workloadLayer(mcs)
	r.cacheLayer(mcs[0])
	return nil
}

// fig13Rows formats the normalized weighted speedups of the batched
// results exactly as the harness prints its table rows.
func fig13Rows(mcs []mixCfg, results [][]*sim.Result) ([]string, error) {
	norm := map[int][][]float64{} // cores -> spec -> per-mix WS(policy)/WS(lru)
	for i, mc := range mcs {
		n := mc.cfg.Cores
		res := results[i]
		alone := make([]float64, n)
		for c := 0; c < n; c++ {
			alone[c] = res[c].PerCore[c].IPC
		}
		base, err := metrics.Compute(res[n].IPCs(), alone)
		if err != nil {
			return nil, err
		}
		if norm[n] == nil {
			norm[n] = make([][]float64, len(sweepSpecs))
		}
		for si := range sweepSpecs {
			m, err := metrics.Compute(res[n+1+si].IPCs(), alone)
			if err != nil {
				return nil, err
			}
			norm[n][si] = append(norm[n][si], m.WS/base.WS)
		}
	}
	var rows []string
	for _, cores := range sweepCores {
		var b strings.Builder
		fmt.Fprintf(&b, "%-8d", cores)
		for si := range sweepSpecs {
			prod := 1.0
			for _, x := range norm[cores][si] {
				prod *= x
			}
			g := math.Pow(prod, 1/float64(len(norm[cores][si])))
			fmt.Fprintf(&b, "  %+13.2f%%", (g-1)*100)
		}
		rows = append(rows, b.String()+"\n")
	}
	return rows, nil
}
