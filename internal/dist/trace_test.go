package dist_test

import (
	"net/http"
	"testing"
	"time"

	"drishti/internal/dist"
	"drishti/internal/obs"
	"drishti/internal/obs/trace"
	"drishti/internal/serve/api"
	"drishti/internal/workload"
)

// TestE2EFleetTraceTree is the tracing acceptance test: a sweep distributed
// over a two-worker fleet yields, via GET /v1/jobs/{id}/trace, one complete
// span tree — job → decompose, and for every cell a lease span with the
// worker-side lane and store-write spans hanging under it.
func TestE2EFleetTraceTree(t *testing.T) {
	rec := trace.NewRecorder("served", nil)
	f := newFleet(t, dist.CoordinatorOptions{
		PollInterval: 10 * time.Millisecond,
		SweepEvery:   50 * time.Millisecond,
		Trace:        rec,
	})
	startWorker(t, f, dist.WorkerOptions{Name: "tracer-a", Capacity: 2, Registry: obs.NewRegistry()})
	startWorker(t, f, dist.WorkerOptions{Name: "tracer-b", Capacity: 2, Registry: obs.NewRegistry()})

	req := api.JobRequest{
		Cores:        2,
		Scale:        8,
		Instructions: 8_000,
		Warmup:       2_000,
		Policies:     []api.PolicyRequest{{Name: "lru"}, {Name: "srrip"}},
		Workloads:    []string{workload.AllSPECGAP()[0].Name, workload.AllSPECGAP()[1].Name},
	}
	nCells := len(req.Policies) * len(req.Workloads)

	id := submitJob(t, f, req)
	waitDone(t, f, id, time.Minute)

	var v api.JobView
	if code := getJSON(t, f.srv.URL+"/v1/jobs/"+id, &v); code != http.StatusOK {
		t.Fatalf("GET job: HTTP %d", code)
	}
	if len(v.TraceID) != 32 {
		t.Fatalf("job view TraceID = %q, want a 32-hex trace ID", v.TraceID)
	}

	// The job's root span is recorded just after the status flips to done,
	// so poll briefly for the tree to settle.
	var tv api.TraceView
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := getJSON(t, f.srv.URL+"/v1/jobs/"+id+"/trace", &tv); code != http.StatusOK {
			t.Fatalf("GET trace: HTTP %d", code)
		}
		if hasSpan(tv.Spans, "job") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("root job span never appeared; got %d spans", len(tv.Spans))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if tv.TraceID != v.TraceID {
		t.Fatalf("trace view TraceID = %q, want %q", tv.TraceID, v.TraceID)
	}

	byID := make(map[string]trace.Span, len(tv.Spans))
	byName := make(map[string][]trace.Span)
	for _, sp := range tv.Spans {
		if sp.TraceID != tv.TraceID {
			t.Errorf("span %s (%s) carries trace %s, want %s", sp.SpanID, sp.Name, sp.TraceID, tv.TraceID)
		}
		if _, dup := byID[sp.SpanID]; dup {
			t.Errorf("duplicate span ID %s", sp.SpanID)
		}
		byID[sp.SpanID] = sp
		byName[sp.Name] = append(byName[sp.Name], sp)
	}

	// Shape: one root job span, one decompose under it, one lease per cell
	// (no kills, so no retries), and worker-side lane + store-write spans
	// for every cell (the store starts empty, so nothing is a store hit).
	if n := len(byName["job"]); n != 1 {
		t.Fatalf("got %d job spans, want 1", n)
	}
	root := byName["job"][0]
	if root.ParentID != "" {
		t.Errorf("job span has parent %q, want none", root.ParentID)
	}
	if n := len(byName["decompose"]); n != 1 {
		t.Errorf("got %d decompose spans, want 1", n)
	} else if p := byName["decompose"][0].ParentID; p != root.SpanID {
		t.Errorf("decompose parent = %q, want job span %q", p, root.SpanID)
	}
	if n := len(byName["lease"]); n != nCells {
		t.Errorf("got %d lease spans, want %d", n, nCells)
	}
	for _, sp := range byName["lease"] {
		if sp.ParentID != root.SpanID {
			t.Errorf("lease span %s parent = %q, want job span %q", sp.SpanID, sp.ParentID, root.SpanID)
		}
		if sp.Attrs["status"] != "ok" {
			t.Errorf("lease span %s status = %q, want ok", sp.SpanID, sp.Attrs["status"])
		}
	}
	if n := len(byName["lane"]); n != nCells {
		t.Errorf("got %d lane spans, want %d", n, nCells)
	}
	if n := len(byName["store-write"]); n != nCells {
		t.Errorf("got %d store-write spans, want %d", n, nCells)
	}
	for _, sp := range byName["store-write"] {
		if p, ok := byID[sp.ParentID]; !ok || p.Name != "lane" {
			t.Errorf("store-write span %s parent = %q, want a lane span", sp.SpanID, sp.ParentID)
		}
	}

	// Every span must reach the root by walking parents — one tree, no
	// orphans. Worker-side spans must name their worker node.
	for _, sp := range tv.Spans {
		cur, hops := sp, 0
		for cur.ParentID != "" {
			p, ok := byID[cur.ParentID]
			if !ok {
				t.Errorf("span %s (%s): parent %s missing from the tree", sp.SpanID, sp.Name, cur.ParentID)
				break
			}
			cur = p
			if hops++; hops > len(tv.Spans) {
				t.Fatalf("parent cycle at span %s", sp.SpanID)
			}
		}
		switch sp.Name {
		case "lane", "store-write", "lease-group", "store-hit":
			if sp.Node == "" {
				t.Errorf("worker span %s (%s) has no node", sp.SpanID, sp.Name)
			}
		}
	}
}

func hasSpan(spans []trace.Span, name string) bool {
	for _, sp := range spans {
		if sp.Name == name {
			return true
		}
	}
	return false
}

// TestFleetSingleLeaseRunsAsGroup: a lone lease takes the same group path
// as a batched one — a lease-group span holding one lease, and a
// one-lane batch-group whose lane hangs under the lease span.
func TestFleetSingleLeaseRunsAsGroup(t *testing.T) {
	rec := trace.NewRecorder("served", nil)
	f := newFleet(t, dist.CoordinatorOptions{
		PollInterval: 10 * time.Millisecond,
		SweepEvery:   50 * time.Millisecond,
		Trace:        rec,
	})
	wreg := obs.NewRegistry()
	startWorker(t, f, dist.WorkerOptions{Name: "single", Capacity: 1, Registry: wreg})

	req := api.JobRequest{
		Cores:        2,
		Scale:        8,
		Instructions: 8_000,
		Warmup:       2_000,
		Policies:     []api.PolicyRequest{{Name: "srrip"}},
		Workloads:    []string{workload.AllSPECGAP()[0].Name},
	}
	id := submitJob(t, f, req)
	waitDone(t, f, id, time.Minute)
	if v := wreg.Counter("worker_cells_executed").Value(); v != 1 {
		t.Fatalf("worker_cells_executed = %d, want 1", v)
	}

	var tv api.TraceView
	for deadline := time.Now().Add(10 * time.Second); !hasSpan(tv.Spans, "job"); {
		if time.Now().After(deadline) {
			t.Fatal("root job span never appeared")
		}
		time.Sleep(5 * time.Millisecond)
		getJSON(t, f.srv.URL+"/v1/jobs/"+id+"/trace", &tv)
	}
	byName := make(map[string][]trace.Span)
	for _, sp := range tv.Spans {
		byName[sp.Name] = append(byName[sp.Name], sp)
	}
	if n := len(byName["lease"]); n != 1 {
		t.Fatalf("got %d lease spans, want 1", n)
	}
	lease := byName["lease"][0]
	if g := byName["lease-group"]; len(g) != 1 || g[0].Attrs["leases"] != "1" || g[0].ParentID != lease.SpanID {
		t.Errorf("lease-group spans %+v, want one holding 1 lease under the lease span", g)
	}
	if g := byName["batch-group"]; len(g) != 1 || g[0].Attrs["lanes"] != "1" {
		t.Errorf("batch-group spans %+v, want one with 1 lane", g)
	}
	if l := byName["lane"]; len(l) != 1 || l[0].ParentID != lease.SpanID {
		t.Errorf("lane spans %+v, want one under the lease span", l)
	}
}
