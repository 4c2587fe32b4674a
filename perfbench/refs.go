package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"

	"drishti/internal/serve/api"
	"drishti/internal/sim"
)

// recordRefsMain computes the recorded references for seeds from..to and
// prints them as ref.json. The service digest is computed here by
// batching each job's five cells through sim.RunBatchContext, a different
// execution path from the service's per-cell runs, so a match also
// re-checks that batched and serial results agree.
//
//	go run . record-refs 0 63 > ref.json
func recordRefsMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench record-refs <from-seed> <to-seed>")
		return 2
	}
	from, err1 := strconv.ParseUint(args[0], 10, 64)
	to, err2 := strconv.ParseUint(args[1], 10, 64)
	if err1 != nil || err2 != nil || to < from {
		fmt.Fprintln(os.Stderr, "perfbench record-refs: bad seed range")
		return 2
	}
	out := refs{Sweep: map[string]string{}, Service: map[string]string{}}
	seeds := []uint64{heldOutSeed}
	for s := from; s <= to; s++ {
		seeds = append(seeds, s)
	}
	for _, s := range seeds {
		table, _, _, err := fig13(sweepParams(s))
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench record-refs:", err)
			return 1
		}
		cells, err := batchedServiceDigest(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench record-refs:", err)
			return 1
		}
		key := strconv.FormatUint(s, 10)
		out.Sweep[key], out.Service[key] = sha([]byte(table)), cells
		fmt.Fprintf(os.Stderr, "seed %d: sweep %s service %s\n", s, out.Sweep[key][:12], cells[:12])
	}
	b, _ := json.MarshalIndent(out, "", "  ")
	fmt.Println(string(b))
	return 0
}

// batchedServiceDigest is serve-cold's cell digest for a seed: the jobs of
// its first refRounds capacity rounds, in order, each cell in index order.
func batchedServiceDigest(seed uint64) (string, error) {
	n := refRounds * roundJobs
	hashes := make([][]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for j := 0; j < n; j++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			hashes[j], errs[j] = batchedJob(seed, j)
		}()
	}
	wg.Wait()
	h := newDigest()
	for j := range hashes {
		if errs[j] != nil {
			return "", errs[j]
		}
		h.add(hashes[j]...)
	}
	return h.sum(), nil
}

func batchedJob(seed uint64, j int) ([]string, error) {
	req := jobRequest(seed, j).WithDefaults()
	cfg, mix, err := req.Cell(0, 0)
	if err != nil {
		return nil, err
	}
	vs := make([]sim.Variant, len(jobPolicies))
	for i := range jobPolicies {
		c, _, err := req.Cell(0, i)
		if err != nil {
			return nil, err
		}
		vs[i] = sim.Variant{Policy: c.Policy}
	}
	cfg.LaneWorkers = 1
	res, err := sim.RunBatchContext(context.Background(), cfg, vs, mix)
	if err != nil {
		return nil, err
	}
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = cellDigest(&api.CellResult{Policy: v.Policy.DisplayName(), Workload: req.WorkloadName(0), Mix: mix.Name, Result: res[i]})
	}
	return out, nil
}
