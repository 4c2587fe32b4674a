package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"drishti/internal/obs/trace"
	"drishti/internal/ring"
	"drishti/internal/serve/api"
	"drishti/internal/sim"
	"drishti/internal/workload"
)

// The serve-cold workload loads a single-node serve.Service with fresh
// jobs. A run alternates capacity rounds (a fixed batch of jobs kept at a
// constant number in flight) with latency slices (an open loop at a fixed
// rate below the knee), so a slow spell on a shared host falls on both
// alike. Rates and sizes are constants of the benchmark, never derived
// from a measurement, so two commits are loaded identically.
const (
	roundJobs   = 35   // jobs in one capacity round: every model once
	refRounds   = 8    // capacity rounds the recorded cell digest covers
	outstanding = 6    // jobs kept in flight during a capacity round
	latRate     = 6.0  // open-loop jobs/s of a latency slice
	sliceJobs   = 6    // jobs in one latency slice (1 s at latRate)
	p99LimitMS  = 1000 // the workload's p99 limit at latRate; a run over it fails
	pairSeconds = 2.0  // about one round plus one slice on a 2-vCPU VM; sets how many pairs fit the window

	latencyJob  = 1 << 16 // job number of the first latency-slice job
	warmupJob   = 1 << 20 // job number of the first set-up warm-up job
	warmupJobs  = 6       // warm-up jobs per node in set-up
	setups      = 5       // set-ups per run; setup_s is their median
	fleetRounds = 2       // capacity rounds the traced run puts through the fleet
)

// Every job is one 4-core homogeneous mix under LRU and the four main
// policies: five cells sharing one batch group.
var jobPolicies = []api.PolicyRequest{
	{Name: "lru"},
	{Name: "hawkeye"},
	{Name: "hawkeye", Drishti: true},
	{Name: "mockingjay"},
	{Name: "mockingjay", Drishti: true},
}

// serviceModels is the model population job j draws from, in rotation:
// every seed submits the same models (only their access streams change
// with the seed), so the simulated work per run does not swing with the
// seed's draw of expensive or cheap models.
var serviceModels = func() []string {
	var names []string
	for _, m := range workload.AllSPECGAP() {
		names = append(names, m.Name)
	}
	return names
}()

func jobRequest(seed uint64, j int) api.JobRequest {
	return api.JobRequest{
		Cores:        4,
		Scale:        8,
		Instructions: 10_000,
		Warmup:       2_500,
		Seed:         seed*1_000_003 + uint64(j) + 1,
		Policies:     jobPolicies,
		Workloads:    []string{serviceModels[j%len(serviceModels)]},
	}
}

// jobRun is the client-side account of one submitted job.
type jobRun struct {
	j        int
	base     string // the node it was submitted to
	due      time.Time
	sent     time.Time // when the generator actually submitted it
	accepted time.Time // POST answered
	id       string
	refused  bool // HTTP 429
	err      error

	cellAt    map[int]time.Time
	cellHash  map[int]string // cellDigest of the decoded cell
	lineHash  map[int]string // SHA-256 of the cell's event line, FromStore normalized
	fromStore map[int]bool
	dups      int
	doneAt    time.Time

	eventBytes, events int
	decodeNS           int64
}

// drive submits one job and follows its NDJSON result stream to the done
// event.
func drive(client *http.Client, base string, req api.JobRequest, jr *jobRun) {
	body, _ := json.Marshal(req)
	jr.sent = time.Now()
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		jr.err = err
		return
	}
	var sub struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	jr.accepted = time.Now()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		jr.refused = true
		return
	case resp.StatusCode != http.StatusAccepted:
		jr.err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		return
	case err != nil:
		jr.err = err
		return
	}
	jr.id = sub.ID
	sr, err := client.Get(base + "/v1/jobs/" + sub.ID + "/results")
	if err != nil {
		jr.err = err
		return
	}
	defer sr.Body.Close()
	jr.cellAt = map[int]time.Time{}
	jr.cellHash = map[int]string{}
	jr.lineHash = map[int]string{}
	jr.fromStore = map[int]bool{}
	sc := bufio.NewScanner(sr.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		at := time.Now()
		line := sc.Bytes()
		var ev api.ResultEvent
		t := time.Now()
		err := api.DecodeStrict(bytes.NewReader(line), &ev)
		jr.decodeNS += int64(time.Since(t))
		if err != nil {
			jr.err = fmt.Errorf("stream line: %w", err)
			return
		}
		jr.events++
		jr.eventBytes += len(line) + 1
		switch ev.Event {
		case api.EventCell:
			if _, seen := jr.cellAt[ev.Index]; seen {
				jr.dups++
				continue
			}
			jr.cellAt[ev.Index] = at
			jr.lineHash[ev.Index] = sha(bytes.Replace(line, []byte(`"fromStore":true`), []byte(`"fromStore":false`), 1))
			jr.cellHash[ev.Index] = cellDigest(ev.Cell)
			jr.fromStore[ev.Index] = ev.Cell.FromStore
		case api.EventDone:
			jr.doneAt = at
			if ev.Status != api.StatusDone {
				jr.err = fmt.Errorf("job %s ended %s: %s", sub.ID, ev.Status, ev.Error)
			}
		}
	}
	if err := sc.Err(); err != nil && jr.err == nil {
		jr.err = err
	}
}

// cellDigest is the identity of one cell's output: its labels and the
// canonical JSON of its simulation result (FromStore deliberately left
// out, so cold, warm and fleet runs of one cell digest equal).
func cellDigest(c *api.CellResult) string {
	if c == nil {
		return "missing"
	}
	b, err := json.Marshal(c.Result)
	if err != nil {
		return "unencodable result: " + err.Error()
	}
	h := newDigest()
	h.add(c.Policy, c.Workload, c.Mix, string(b))
	return h.sum()
}

// phase submits jobs first..first+n-1 to the deployment, spread over its
// nodes: closed at `outstanding` jobs in flight when rate is 0, else
// open-loop at rate jobs/s with job i due at start + i/rate. It returns
// once every job's stream has ended.
func phase(d *deployment, seed uint64, first, n, outstanding int, rate float64) ([]*jobRun, time.Time) {
	runs := make([]*jobRun, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(outstanding, 1))
	start := time.Now()
	for i := 0; i < n; i++ {
		jr := &jobRun{j: first + i, base: d.urls[i%len(d.urls)]}
		runs[i] = jr
		if rate > 0 {
			jr.due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if w := time.Until(jr.due); w > 0 {
				time.Sleep(w)
			}
		} else {
			sem <- struct{}{}
			jr.due = time.Now()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rate == 0 {
				defer func() { <-sem }()
			}
			drive(d.client, jr.base, jobRequest(seed, jr.j), jr)
		}()
	}
	wg.Wait()
	return runs, start
}

// round is one capacity round's jobs and measures: its wall time, the
// process CPU time it took, and its steady rate, the cells resolved between
// the 10th and 90th percentile completion instants over the length of that
// interval.
type round struct {
	runs            []*jobRun
	wall, cpu, rate float64
}

// roundCells is the number of cells one capacity round completes.
var roundCells = float64(roundJobs * len(jobPolicies))

// capacityRound runs round i: its roundJobs jobs closed-loop at
// `outstanding` in flight, so the service always has a backlog that never
// grows and the queue never refuses.
func capacityRound(d *deployment, seed uint64, i int) round {
	cpu0 := cpuSeconds()
	runs, start := phase(d, seed, i*roundJobs, roundJobs, outstanding, 0)
	rd := round{runs: runs, cpu: cpuSeconds() - cpu0}
	var at []float64
	var last time.Time
	for _, jr := range runs {
		for _, t := range jr.cellAt {
			at = append(at, t.Sub(start).Seconds())
		}
		if jr.doneAt.After(last) {
			last = jr.doneAt
		}
	}
	rd.wall = last.Sub(start).Seconds()
	if len(at) >= 10 {
		sort.Float64s(at)
		lo, hi := len(at)/10, len(at)-1-len(at)/10
		rd.rate = ratio(float64(hi-lo), at[hi]-at[lo])
	}
	return rd
}

// pairs is how many capacity rounds and latency slices a run of the given
// window alternates: a fixed count, so every run of a window does the same
// work, and at least the rounds the recorded digest covers.
func pairs(window time.Duration) int {
	return max(refRounds, int(window.Seconds()/pairSeconds))
}

// latencySlice runs slice s: sliceJobs jobs open-loop at latRate.
func latencySlice(d *deployment, seed uint64, s int) []*jobRun {
	runs, _ := phase(d, seed, latencyJob+s*sliceJobs, sliceJobs, 0, latRate)
	return runs
}

// serviceSetup starts a deployment and warms it with a few jobs on every
// node.
func serviceSetup(r *run, dir string, fleet, traced bool) (*deployment, error) {
	d, err := startDeployment(dir, fleet, traced)
	if err != nil {
		return nil, err
	}
	warm, _ := phase(d, r.seed, warmupJob, warmupJobs*len(d.urls), 2, 0)
	for _, jr := range warm {
		if jr.err != nil || jr.refused || len(jr.cellAt) != len(jobPolicies) {
			d.stop()
			return nil, fmt.Errorf("set-up job %d failed: refused=%v err=%v", jr.j, jr.refused, jr.err)
		}
	}
	return d, nil
}

func runServeCold(r *run) error {
	// Set up several times and keep the last deployment; setup_s is the
	// median, so work moved into set-up shows.
	var (
		d               *deployment
		setupCPU, times []float64
	)
	for i := 0; i < setups; i++ {
		if d != nil {
			d.stop()
		}
		start, cpu0 := time.Now(), cpuSeconds()
		var err error
		if d, err = serviceSetup(r, filepath.Join(r.scratch, fmt.Sprintf("setup%d", i)), false, false); err != nil {
			return err
		}
		times = append(times, time.Since(start).Seconds())
		setupCPU = append(setupCPU, cpuSeconds()-cpu0)
	}
	r.logf("serve-cold set-up: %.3f CPU-s, %.3f s wall (medians of %.3f and %.3f)", median(setupCPU), median(times), setupCPU, times)
	if r.traced {
		return r.serviceTraced(d)
	}

	var capRuns, latRuns []*jobRun
	var walls, rates, cpus []float64
	for i := 0; i < pairs(r.window); i++ {
		rd := capacityRound(d, r.seed, i)
		capRuns = append(capRuns, rd.runs...)
		walls, rates, cpus = append(walls, rd.wall), append(rates, rd.rate), append(cpus, rd.cpu)
		latRuns = append(latRuns, latencySlice(d, r.seed, i)...)
	}
	err := r.serviceChecks(capRuns, latRuns)
	conns := d.conns.Load()
	d.stop()
	if err != nil {
		return err
	}
	if conns > int64(runtime.NumCPU()) {
		r.fail("client opened %d connections, more than nproc", conns)
	} else {
		r.check("client connections within nproc", 1, 0)
	}
	r.set("setup_s", "s", median(setupCPU))
	r.set("sweep_cpu_s", "s", median(cpus))
	r.set("cells_per_cpu_s", "cells/cpu-s", roundCells/median(cpus))
	r.wall = wallTimes{SetupS: median(times), SweepS: median(walls), CellsPerS: median(rates)}
	r.logf("serve-cold: round CPU %.3f s, walls %.3f s, steady rates %.1f cells/s", cpus, walls, rates)
	r.sliceLatency(latRuns)
	return nil
}

// sliceLatency pools every latency-slice cell's latency, from its job's due
// time to the cell's result event, records its p50 and p99, and fails the
// run when p99 exceeds the workload's limit.
func (r *run) sliceLatency(latRuns []*jobRun) {
	var lat []float64
	for _, jr := range latRuns {
		for _, t := range jr.cellAt {
			lat = append(lat, ms(t.Sub(jr.due)))
		}
	}
	n := len(lat)
	p50, p99 := quantile(lat, 0.5), quantile(lat, 0.99)
	r.setLatency(p50, p99, n)
	r.logf("serve-cold: p50=%.1fms p99=%.1fms over %d cells at %.0f jobs/s (p99 limit %dms)", p50, p99, n, latRate, p99LimitMS)
	// Where the latency went, for reading a slow run: generator lateness,
	// submit round trip, due time to first cell, and the gap between a
	// job's successive cells (one cell's run on its worker).
	var late, submit, first, gap []float64
	for _, jr := range latRuns {
		if len(jr.cellAt) != len(jobPolicies) {
			continue
		}
		var at []float64
		for _, t := range jr.cellAt {
			at = append(at, ms(t.Sub(jr.due)))
		}
		sort.Float64s(at)
		late = append(late, ms(jr.sent.Sub(jr.due)))
		submit = append(submit, ms(jr.accepted.Sub(jr.sent)))
		first = append(first, at[0])
		gap = append(gap, (at[len(at)-1]-at[0])/float64(len(at)-1))
	}
	r.logf("serve-cold latency split (medians): late %.2fms submit %.2fms first cell %.1fms cell gap %.1fms", median(late), median(submit), median(first), median(gap))
	if p99 > p99LimitMS {
		r.fail("p99 %.1fms exceeds the limit of %dms", p99, p99LimitMS)
	} else {
		r.check("p99 within the workload's limit", 1, 0)
	}
}

// streamChecks counts, over jobs, refused (HTTP 429), lost and duplicated
// cells and jobs that did not end done.
func (r *run) streamChecks(what string, runs []*jobRun) {
	var refused, lost, dups, failedJobs int
	for _, jr := range runs {
		switch {
		case jr.refused:
			refused += len(jobPolicies)
			continue
		case jr.err != nil:
			failedJobs++
			r.logf("%s job %d: %v", what, jr.j, jr.err)
		}
		lost += len(jobPolicies) - len(jr.cellAt)
		dups += jr.dups
	}
	cells := len(runs) * len(jobPolicies)
	r.check(what+": refused cells (HTTP 429)", cells, refused)
	r.check(what+": lost cells", cells, lost)
	r.check(what+": duplicated cells", cells, dups)
	r.check(what+": jobs not ending done", len(runs), failedJobs)
}

// serviceChecks verifies every measured job's outputs: each job done,
// every cell streamed exactly once, 429s counted as refusals, sampled
// cells byte-equal to a direct simulation, and the first rounds' cell
// digest equal to the recorded reference.
func (r *run) serviceChecks(capRuns, latRuns []*jobRun) error {
	all := append(append([]*jobRun(nil), capRuns...), latRuns...)
	r.streamChecks("serve-cold", all)

	samples := [][2]int{{0, int(r.seed % 5)}, {len(capRuns) - 1, int((r.seed + 2) % 5)}}
	if len(latRuns) > 0 {
		samples = append(samples, [2]int{len(capRuns) + len(latRuns)/2, int((r.seed + 4) % 5)})
	}
	bad := 0
	for _, s := range samples {
		jr := all[s[0]]
		want, err := directCell(r.seed, jr.j, s[1])
		if err != nil {
			return err
		}
		if jr.cellHash[s[1]] != want {
			bad++
			r.logf("job %d cell %d differs from a direct RunMixContext run", jr.j, s[1])
		}
	}
	r.check("sampled cells vs direct simulation", len(samples), bad)

	if len(capRuns) < refRounds*roundJobs {
		r.logf("fewer than %d capacity rounds: no cell digest to compare with the reference", refRounds)
		return nil
	}
	h := newDigest()
	for _, jr := range capRuns[:refRounds*roundJobs] {
		for idx := range jobPolicies {
			h.add(jr.cellHash[idx])
		}
	}
	sum := h.sum()
	r.digest("cells", sum)
	r.checkRef("serve-cold cell digest", r.refs.Service, sum)
	return nil
}

// directCell runs cell idx of job j straight through sim.RunMixContext.
func directCell(seed uint64, j, idx int) (string, error) {
	req := jobRequest(seed, j).WithDefaults()
	cfg, mix, err := req.Cell(0, idx)
	if err != nil {
		return "", err
	}
	res, err := sim.RunMixContext(context.Background(), cfg, mix)
	if err != nil {
		return "", err
	}
	return cellDigest(&api.CellResult{Policy: cfg.Policy.DisplayName(), Workload: req.WorkloadName(0), Mix: mix.Name, Result: res}), nil
}

// serviceTraced is the per-layer run. The capacity rounds go to the
// untraced deployment and a traced twin, interleaved (their capacity ratio
// is the tracing overhead); the latency slices then run on the traced
// deployment with the store timer and the client's own timers read out.
// Two more passes fill the layers the cold stream leaves idle: the first
// round re-submitted, so every cell is a store hit (the warm path), and
// the first rounds put through a two-coordinator fleet (dist, ring and the
// sharded store).
func (r *run) serviceTraced(d *deployment) error {
	td, err := serviceSetup(r, filepath.Join(r.scratch, "traced"), false, true)
	if err != nil {
		d.stop()
		return err
	}
	defer td.stop()
	store0 := td.be.snapshot()
	var capRuns []*jobRun
	var plain, traced []float64
	for i := 0; i < refRounds; i++ {
		order := []*deployment{d, td}
		if i%2 == 1 {
			order = []*deployment{td, d}
		}
		for _, dep := range order {
			rd := capacityRound(dep, r.seed, i)
			if dep == td {
				capRuns = append(capRuns, rd.runs...)
				traced = append(traced, roundCells/rd.cpu)
			} else {
				plain = append(plain, roundCells/rd.cpu)
			}
		}
	}
	d.stop()
	var latRuns []*jobRun
	for s := 0; s < pairs(r.window); s++ {
		latRuns = append(latRuns, latencySlice(td, r.seed, s)...)
	}
	if err := r.serviceChecks(capRuns, latRuns); err != nil {
		return err
	}
	r.sliceLatency(latRuns)
	r.set("trace.overhead_frac", "ratio", median(plain)/median(traced)-1)

	// serve: client-side submit and stream timings, and the job timestamps
	// the service reports.
	var submit, queue, runMS, first, tail, late []float64
	for _, jr := range latRuns {
		late = append(late, ms(jr.sent.Sub(jr.due)))
		if jr.id == "" {
			continue
		}
		submit = append(submit, ms(jr.accepted.Sub(jr.sent)))
		var firstAt time.Time
		for _, t := range jr.cellAt {
			if firstAt.IsZero() || t.Before(firstAt) {
				firstAt = t
			}
		}
		first = append(first, ms(firstAt.Sub(jr.due)))
		var v api.JobView
		if err := td.getJSON(jr.base+"/v1/jobs/"+jr.id, &v); err != nil {
			return err
		}
		if v.StartedAt != nil && v.FinishedAt != nil {
			queue = append(queue, ms(v.StartedAt.Sub(v.EnqueuedAt)))
			runMS = append(runMS, ms(v.FinishedAt.Sub(*v.StartedAt)))
			tail = append(tail, ms(jr.doneAt.Sub(*v.FinishedAt)))
		}
	}
	r.set("serve.submit_ms", "ms", mean(submit))
	r.set("serve.queue_wait_ms", "ms", mean(queue))
	r.set("serve.run_ms", "ms", mean(runMS))
	r.set("serve.first_cell_ms", "ms", mean(first))
	r.set("serve.stream_tail_ms", "ms", mean(tail))
	r.set("serve.rejected", "count", td.counter("jobs_rejected"))
	r.set("serve.retried", "count", td.counter("jobs_retried"))
	r.set("loadgen.late_p99_ms", "ms", quantile(late, 0.99))

	warmRuns := r.warmPass(td, capRuns[:roundJobs])

	// store: the timed backend over the cold rounds, the latency slices
	// and the warm pass.
	sc := td.be.snapshot().minus(store0)
	r.set("store.gets", "count", float64(sc.gets))
	r.set("store.puts", "count", float64(sc.puts))
	r.set("store.get_us", "us", ratio(float64(sc.getNS)/1e3, float64(sc.gets)))
	r.set("store.put_us", "us", ratio(float64(sc.putNS)/1e3, float64(sc.puts)))
	r.set("store.hit_ratio", "ratio", ratio(float64(sc.hits), float64(sc.gets)))
	r.set("store.bytes_per_cell", "B", ratio(float64(sc.putBytes), float64(sc.puts)))

	// api: the client's strict decode of every streamed event.
	var decNS, evBytes, events float64
	for _, jr := range append(append(capRuns, latRuns...), warmRuns...) {
		decNS += float64(jr.decodeNS)
		evBytes += float64(jr.eventBytes)
		events += float64(jr.events)
	}
	r.set("api.decode_us", "us", ratio(decNS/1e3, events))
	r.set("api.event_bytes", "B", ratio(evBytes, events))

	if err := r.fleetPass(capRuns); err != nil {
		return err
	}
	if err := r.spanChecks(td, latRuns); err != nil {
		return err
	}
	r.jobThroughput()
	r.workloadLayer(serviceMixes(r.seed))
	r.logf("serve-cold traced: untraced %.1f traced %.1f cells/cpu-s", median(plain), median(traced))
	return nil
}

// warmPass re-submits already finished jobs: every cell must come from the
// store, with an event line byte-equal to the one streamed when it was
// simulated.
func (r *run) warmPass(d *deployment, cold []*jobRun) []*jobRun {
	runs, _ := phase(d, r.seed, cold[0].j, len(cold), outstanding, 0)
	r.streamChecks("warm pass", runs)
	misses, bad := 0, 0
	for i, jr := range runs {
		for idx, h := range jr.lineHash {
			if !jr.fromStore[idx] {
				misses++
			}
			if cold[i].lineHash[idx] != h {
				bad++
			}
		}
	}
	cells := len(runs) * len(jobPolicies)
	r.check("warm cells not served from the store", cells, misses)
	r.check("warm cells differing from their cold run", cells, bad)
	return runs
}

// fleetPass puts the first capacity rounds through two peered
// coordinators over a two-shard store, one worker each, and checks that
// the fleet forwarded cells between them and streamed every cell
// byte-identical to the single node.
func (r *run) fleetPass(single []*jobRun) error {
	fd, err := startDeployment(filepath.Join(r.scratch, "fleet"), true, true)
	if err != nil {
		return err
	}
	defer fd.stop()
	before := map[string]api.FleetStatus{}
	for _, u := range fd.urls {
		if before[u], err = fd.fleetStatus(u); err != nil {
			return err
		}
	}
	runs, _ := phase(fd, r.seed, 0, fleetRounds*roundJobs, outstanding, 0)
	r.streamChecks("fleet", runs)
	bad := 0
	for i, jr := range runs {
		for idx := range jobPolicies {
			if jr.cellHash[idx] != single[i].cellHash[idx] {
				bad++
			}
		}
	}
	r.check("fleet cells vs single node", len(runs)*len(jobPolicies), bad)
	return r.fleetLayers(fd, before, runs)
}

// fleetLayers reads the coordinators' own counters (deltas over the fleet
// pass) and the forward timer on their peer client.
func (r *run) fleetLayers(d *deployment, before map[string]api.FleetStatus, runs []*jobRun) error {
	var fwd, remote, reowned, leaseN, leaseSum float64
	for _, u := range d.urls {
		st, err := d.fleetStatus(u)
		if err != nil {
			return err
		}
		b := before[u]
		fwd += float64(st.CellsForwarded - b.CellsForwarded)
		remote += float64(st.CellsRemote - b.CellsRemote)
		reowned += float64(st.ForwardsReowned - b.ForwardsReowned)
		n := float64(st.LeaseLatency.Count - b.LeaseLatency.Count)
		leaseN += n
		leaseSum += st.LeaseLatency.Mean*float64(st.LeaseLatency.Count) - b.LeaseLatency.Mean*float64(b.LeaseLatency.Count)
	}
	if fwd == 0 {
		r.fail("fleet forwarded no cells between its coordinators")
	} else {
		r.check("fleet forwarding", 1, 0)
	}
	r.set("dist.cells_forwarded", "count", fwd)
	r.set("dist.cells_remote", "count", remote)
	r.set("dist.forwards_reowned", "count", reowned)
	r.set("dist.lease_ms", "ms", ratio(leaseSum, leaseN))
	r.set("dist.forward_ms", "ms", ratio(float64(d.peer.ns.Load())/1e6, float64(d.peer.forwards.Load())))

	// Owned share: how the ring splits the fleet's cells between the
	// coordinators, from the ring the coordinators themselves build.
	rg := ring.New(d.urls, 0)
	owned := map[string]int{}
	total := 0
	for _, jr := range runs {
		req := jobRequest(r.seed, jr.j).WithDefaults()
		for idx := range jobPolicies {
			cfg, mix, err := req.Cell(0, idx)
			if err != nil {
				return err
			}
			owned[rg.Owner(api.CellKey(cfg, mix))]++
			total++
		}
	}
	for _, m := range d.urls {
		r.logf("coordinator %s owns %.3f of %d cells", m, float64(owned[m])/float64(total), total)
	}
	r.set("dist.owned_share", "ratio", float64(owned[d.urls[0]])/float64(total))
	return nil
}

// spanChecks fetches the span trees of the last latency-phase jobs and
// checks each holds its root job span.
func (r *run) spanChecks(d *deployment, runs []*jobRun) error {
	bad, n := 0, 0
	for i := len(runs) - 1; i >= 0 && n < 32; i-- {
		jr := runs[i]
		if jr.id == "" {
			continue
		}
		var tv api.TraceView
		err := d.getJSON(jr.base+"/v1/jobs/"+jr.id+"/trace", &tv)
		n++
		if err != nil || !hasSpan(tv.Spans, "job") {
			bad++
		}
	}
	r.check("traced jobs with a job span", n, bad)
	return nil
}

func hasSpan(spans []trace.Span, name string) bool {
	for _, s := range spans {
		if s.Name == name {
			return true
		}
	}
	return false
}

// jobThroughput times serve-cold's own jobs on one goroutine two ways: each
// cell through sim.RunMixContext, the path the single-node service runs,
// and the job's five cells as one sim.RunBatchContext batch (batchedJob),
// the path one cell engine would give it. The jobs alternate between the
// two so a drifting host hits both alike; the batched results must equal
// the serial ones.
func (r *run) jobThroughput() {
	var instr float64
	var serialT, batchT time.Duration
	bad := 0
	const jobs = 16
	for j := 0; j < jobs; j++ {
		req := jobRequest(r.seed, j).WithDefaults()
		var serial []string
		start := time.Now()
		for idx := range jobPolicies {
			cfg, mix, err := req.Cell(0, idx)
			if err == nil {
				var res *sim.Result
				res, err = sim.RunMixContext(context.Background(), cfg, mix)
				serial = append(serial, cellDigest(&api.CellResult{Policy: cfg.Policy.DisplayName(), Workload: req.WorkloadName(0), Mix: mix.Name, Result: res}))
				instr += float64(uint64(cfg.Cores) * (cfg.Instructions + cfg.Warmup))
			}
			if err != nil {
				r.fail("serial cell: %v", err)
				return
			}
		}
		serialT += time.Since(start)
		start = time.Now()
		batched, err := batchedJob(r.seed, j)
		batchT += time.Since(start)
		if err != nil {
			r.fail("batched job: %v", err)
			return
		}
		for i := range serial {
			if serial[i] != batched[i] {
				bad++
			}
		}
	}
	r.check("batched job cells vs serial cells", jobs*len(jobPolicies), bad)
	r.set("sim.serial_minstr_per_s", "Minstr/s", instr/1e6/serialT.Seconds())
	r.set("sim.job_batch_minstr_per_s", "Minstr/s", instr/1e6/batchT.Seconds())
}

// serviceMixes are the mixes of the workload's first jobs.
func serviceMixes(seed uint64) []mixCfg {
	var out []mixCfg
	for j := 0; j < 4; j++ {
		req := jobRequest(seed, j).WithDefaults()
		cfg, mix, err := req.Cell(0, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			continue
		}
		out = append(out, mixCfg{cfg, mix})
	}
	return out
}
