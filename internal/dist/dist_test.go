package dist_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"drishti/internal/dist"
	"drishti/internal/obs"
	"drishti/internal/serve"
	"drishti/internal/serve/api"
	"drishti/internal/workload"
)

// fleet is one coordinator-mode service under test: the coordinator and the
// job service share a store directory, exactly like drishti-served -fleet.
type fleet struct {
	coord *dist.Coordinator
	svc   *serve.Service
	srv   *httptest.Server
	reg   *obs.Registry
	dir   string
}

func newFleet(t *testing.T, copts dist.CoordinatorOptions) *fleet {
	t.Helper()
	dir := t.TempDir()
	reg := obs.NewRegistry()
	copts.StoreDir = dir
	copts.Registry = reg
	coord, err := dist.NewCoordinator(copts)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := serve.New(serve.Options{
		StoreDir:    dir,
		Workers:     2,
		Registry:    reg,
		Distributor: coord,
		Trace:       copts.Trace, // shared recorder, like drishti-served -fleet
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord.Handler(svc.Handler()))
	t.Cleanup(srv.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return &fleet{coord: coord, svc: svc, srv: srv, reg: reg, dir: dir}
}

// startWorker runs an in-process dist.Worker against the fleet until the
// returned cancel is called (or the test ends). It returns once
// GET /v1/fleet lists the worker, so the coordinator can lease to it — a
// test asserting on fleet behaviour must not race the registration.
func startWorker(t *testing.T, f *fleet, opts dist.WorkerOptions) context.CancelFunc {
	t.Helper()
	if opts.Name == "" {
		opts.Name = "worker"
	}
	registered := func() int {
		n := 0
		for _, w := range fleetStatus(t, f).Workers {
			if w.Name == opts.Name {
				n++
			}
		}
		return n
	}
	before := registered()
	opts.Coordinator = f.srv.URL
	if opts.StoreDir == "" {
		opts.StoreDir = f.dir
	}
	if opts.Poll == 0 {
		opts.Poll = 10 * time.Millisecond
	}
	if opts.Heartbeat == 0 {
		opts.Heartbeat = 50 * time.Millisecond
	}
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	w, err := dist.NewWorker(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); w.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	for deadline := time.Now().Add(30 * time.Second); registered() <= before; {
		if time.Now().After(deadline) {
			t.Fatalf("worker %q never registered", opts.Name)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cancel
}

func postJSON(t *testing.T, url string, in, out any) int {
	t.Helper()
	body, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func submitJob(t *testing.T, f *fleet, req api.JobRequest) string {
	t.Helper()
	var out struct {
		ID string `json:"id"`
	}
	if code := postJSON(t, f.srv.URL+"/v1/jobs", req, &out); code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: HTTP %d", code)
	}
	return out.ID
}

func waitDone(t *testing.T, f *fleet, id string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var v api.JobView
		if code := getJSON(t, f.srv.URL+"/v1/jobs/"+id, &v); code != http.StatusOK {
			t.Fatalf("GET job %s: HTTP %d", id, code)
		}
		if v.Status.Terminal() {
			if v.Status != api.StatusDone {
				t.Fatalf("job %s finished %s: %s", id, v.Status, v.Error)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s after %v", id, v.Status, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fetchResult(t *testing.T, f *fleet, id string) api.JobResult {
	t.Helper()
	var res api.JobResult
	if code := getJSON(t, f.srv.URL+"/v1/jobs/"+id+"/result", &res); code != http.StatusOK {
		t.Fatalf("GET result %s: HTTP %d", id, code)
	}
	return res
}

func fleetStatus(t *testing.T, f *fleet) api.FleetStatus {
	t.Helper()
	var st api.FleetStatus
	if code := getJSON(t, f.srv.URL+"/v1/fleet", &st); code != http.StatusOK {
		t.Fatalf("GET /v1/fleet: HTTP %d", code)
	}
	return st
}

// canonicalPayload strips run provenance — elapsed wall clock and which
// store tier served each cell — leaving exactly the scientific payload,
// which must be byte-identical however the sweep was executed.
func canonicalPayload(t *testing.T, res api.JobResult) []byte {
	t.Helper()
	res.ElapsedMS = 0
	res.StoreHits = 0
	res.StoreMisses = 0
	cells := make([]api.CellResult, len(res.Cells))
	copy(cells, res.Cells)
	for i := range cells {
		cells[i].FromStore = false
	}
	res.Cells = cells
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// blockCompletes simulates a worker that crashes between finishing a cell
// and uploading it: every /v1/fleet/complete call fails at the transport,
// so its leases always expire and the cells are reassigned.
type blockCompletes struct{ base http.RoundTripper }

func (bt blockCompletes) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasSuffix(r.URL.Path, "/v1/fleet/complete") {
		return nil, fmt.Errorf("transport: completion dropped (simulated crash)")
	}
	return bt.base.RoundTrip(r)
}

// TestE2EFleetByteIdenticalWithWorkerKill is the acceptance test: a sweep
// distributed over a two-worker fleet — one of which is killed mid-sweep,
// forcing lease expiry and reassignment — returns a JobResult whose payload
// is byte-identical to the same sweep on a single node, and a repeat of the
// sweep is served entirely from the fleet's shared store.
func TestE2EFleetByteIdenticalWithWorkerKill(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fleet e2e; covered piecewise by the short tests")
	}
	req := api.JobRequest{
		Cores:        2,
		Scale:        8,
		Instructions: 30_000,
		Warmup:       5_000,
		Policies:     []api.PolicyRequest{{Name: "lru"}, {Name: "srrip"}},
		Workloads: []string{
			workload.AllSPECGAP()[0].Name,
			workload.AllSPECGAP()[1].Name,
			workload.AllSPECGAP()[2].Name,
		},
	}
	nCells := len(req.Workloads) * len(req.Policies)

	// Reference: the same sweep on a plain single-node service.
	single, err := serve.New(serve.Options{
		StoreDir: t.TempDir(),
		Workers:  2,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ssrv := httptest.NewServer(single.Handler())
	t.Cleanup(ssrv.Close)
	sf := &fleet{svc: single, srv: ssrv}
	sid := submitJob(t, sf, req)
	waitDone(t, sf, sid, 2*time.Minute)
	want := canonicalPayload(t, fetchResult(t, sf, sid))
	{
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		single.Shutdown(ctx)
		cancel()
	}

	// Fleet: two workers; the victim finishes cells but can never upload
	// them (simulated crash), and its context is cancelled as soon as it
	// holds a lease — both paths end in lease expiry and reassignment.
	// The victim runs alone first so it is guaranteed to win a lease (a
	// competing worker could otherwise drain the queue before the victim's
	// poll, a real flake on a loaded 1-CPU host); the survivor joins only
	// after the kill and picks up the reassigned cells.
	f := newFleet(t, dist.CoordinatorOptions{
		LeaseTTL:     1500 * time.Millisecond,
		WorkerTTL:    time.Minute,
		PollInterval: 20 * time.Millisecond,
		RetryBackoff: 20 * time.Millisecond,
		SweepEvery:   50 * time.Millisecond,
	})
	killVictim := startWorker(t, f, dist.WorkerOptions{
		Name:     "victim",
		Capacity: 1,
		Client:   &http.Client{Timeout: 30 * time.Second, Transport: blockCompletes{http.DefaultTransport}},
	})

	id := submitJob(t, f, req)
	killed := false
	for deadline := time.Now().Add(time.Minute); !killed; {
		for _, w := range fleetStatus(t, f).Workers {
			if w.Name == "victim" && w.ActiveLeases > 0 {
				killVictim()
				killed = true
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never held a lease")
		}
		time.Sleep(2 * time.Millisecond)
	}
	startWorker(t, f, dist.WorkerOptions{Name: "survivor", Capacity: 2})
	waitDone(t, f, id, 2*time.Minute)

	got := canonicalPayload(t, fetchResult(t, f, id))
	if !bytes.Equal(got, want) {
		t.Errorf("fleet sweep payload differs from single-node run\n--- fleet ---\n%s\n--- single ---\n%s", got, want)
	}

	if v := f.reg.Counter("fleet_leases_expired").Value(); v == 0 {
		t.Error("killing a worker mid-sweep expired no leases")
	}
	if v := f.reg.Counter("fleet_cells_retried").Value(); v == 0 {
		t.Error("no cell was retried after the worker kill")
	}
	if v := f.reg.Counter("fleet_cells_resolved").Value(); v != uint64(nCells) {
		t.Errorf("fleet_cells_resolved = %d, want %d", v, nCells)
	}

	// The repeat sweep never reaches a worker: every cell is resolved from
	// the shared store at decompose time, visible in the fleet counters.
	hitsBefore := f.reg.Counter("fleet_cells_from_store").Value()
	id2 := submitJob(t, f, req)
	waitDone(t, f, id2, time.Minute)
	got2 := fetchResult(t, f, id2)
	for i, c := range got2.Cells {
		if !c.FromStore {
			t.Errorf("repeat sweep cell %d not served from store", i)
		}
	}
	if !bytes.Equal(canonicalPayload(t, got2), want) {
		t.Error("repeat fleet sweep payload differs from single-node run")
	}
	if v := f.reg.Counter("fleet_cells_from_store").Value(); v < hitsBefore+uint64(nCells) {
		t.Errorf("fleet_cells_from_store = %d, want >= %d", v, hitsBefore+uint64(nCells))
	}
	if st := fleetStatus(t, f); st.StoreHitRatio <= 0 {
		t.Errorf("StoreHitRatio = %v after a fully deduped sweep", st.StoreHitRatio)
	}
}

// TestFleetBatchedLeaseGroup pins lockstep batching in the fleet: a job
// whose cells differ only in policy is granted to one worker as a single
// lease group, executed as one batched simulation, and the payload is
// byte-identical to the same sweep on a plain single-node service (whose
// local path runs cells one by one).
func TestFleetBatchedLeaseGroup(t *testing.T) {
	req := api.JobRequest{
		Cores:        2,
		Scale:        8,
		Instructions: 8_000,
		Warmup:       2_000,
		Policies: []api.PolicyRequest{
			{Name: "lru"}, {Name: "srrip"}, {Name: "dip"}, {Name: "mockingjay", Drishti: true},
		},
		Workloads: []string{workload.AllSPECGAP()[0].Name},
	}

	// Reference: the same sweep on a plain single-node service.
	single, err := serve.New(serve.Options{
		StoreDir: t.TempDir(),
		Workers:  1,
		Registry: obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ssrv := httptest.NewServer(single.Handler())
	t.Cleanup(ssrv.Close)
	sf := &fleet{svc: single, srv: ssrv}
	sid := submitJob(t, sf, req)
	waitDone(t, sf, sid, time.Minute)
	want := canonicalPayload(t, fetchResult(t, sf, sid))
	{
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		single.Shutdown(ctx)
		cancel()
	}

	f := newFleet(t, dist.CoordinatorOptions{
		PollInterval: 10 * time.Millisecond,
		SweepEvery:   50 * time.Millisecond,
	})
	wreg := obs.NewRegistry()
	startWorker(t, f, dist.WorkerOptions{Name: "batcher", Capacity: 8, Registry: wreg})

	id := submitJob(t, f, req)
	waitDone(t, f, id, time.Minute)
	got := canonicalPayload(t, fetchResult(t, f, id))
	if !bytes.Equal(got, want) {
		t.Errorf("batched fleet payload differs from single-node run\n--- fleet ---\n%s\n--- single ---\n%s", got, want)
	}
	if v := wreg.Counter("worker_batch_groups").Value(); v == 0 {
		t.Error("worker executed no batched lease group (cells were granted one by one?)")
	}
	if v := wreg.Counter("worker_cells_executed").Value(); v != uint64(len(req.Policies)) {
		t.Errorf("worker_cells_executed = %d, want %d", v, len(req.Policies))
	}
}

// TestLeaseExpiryReassignment drives the reassignment machinery directly: a
// raw-HTTP "worker" leases cells and goes silent, the leases expire, a real
// worker completes the job, and the silent worker's late completion is
// refused. Runs under -race via the race-serve target.
func TestLeaseExpiryReassignment(t *testing.T) {
	f := newFleet(t, dist.CoordinatorOptions{
		LeaseTTL:     300 * time.Millisecond,
		WorkerTTL:    time.Minute,
		PollInterval: 20 * time.Millisecond,
		RetryBackoff: 20 * time.Millisecond,
		SweepEvery:   50 * time.Millisecond,
	})

	var reg api.RegisterResponse
	if code := postJSON(t, f.srv.URL+"/v1/fleet/register",
		api.RegisterRequest{APIVersion: api.Version, Name: "silent", Capacity: 4}, &reg); code != http.StatusOK {
		t.Fatalf("register: HTTP %d", code)
	}
	if reg.APIVersion != api.Version || reg.WorkerID == "" {
		t.Fatalf("register response %+v", reg)
	}

	req := api.JobRequest{
		Cores:        2,
		Scale:        8,
		Instructions: 8_000,
		Warmup:       2_000,
		Policies:     []api.PolicyRequest{{Name: "lru"}, {Name: "srrip"}},
		Workloads:    []string{workload.AllSPECGAP()[0].Name},
	}
	id := submitJob(t, f, req)

	// Grab at least one lease, then never complete or heartbeat again.
	var held []api.Lease
	for deadline := time.Now().Add(30 * time.Second); len(held) == 0; {
		var lr api.LeaseResponse
		code := postJSON(t, f.srv.URL+"/v1/fleet/lease",
			api.LeaseRequest{WorkerID: reg.WorkerID, Max: 4}, &lr)
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Fatalf("lease: HTTP %d", code)
		}
		held = lr.Leases
		if time.Now().After(deadline) {
			t.Fatal("silent worker never obtained a lease")
		}
		time.Sleep(5 * time.Millisecond)
	}

	startWorker(t, f, dist.WorkerOptions{Name: "real", Capacity: 2})
	waitDone(t, f, id, time.Minute)

	res := fetchResult(t, f, id)
	if len(res.Cells) != 2 {
		t.Fatalf("result has %d cells, want 2", len(res.Cells))
	}
	if v := f.reg.Counter("fleet_leases_expired").Value(); v < uint64(len(held)) {
		t.Errorf("fleet_leases_expired = %d, want >= %d", v, len(held))
	}
	if v := f.reg.Counter("fleet_cells_retried").Value(); v == 0 {
		t.Error("no cell retry recorded after lease expiry")
	}

	// The expired lease is gone; a late completion must be refused so the
	// reassigned run of the cell stays the one of record.
	var cr api.CompleteResponse
	code := postJSON(t, f.srv.URL+"/v1/fleet/complete",
		api.CompleteRequest{WorkerID: reg.WorkerID, LeaseID: held[0].ID, Error: "late"}, &cr)
	if code != http.StatusConflict || cr.Accepted {
		t.Errorf("late completion: HTTP %d accepted=%v, want 409 refused", code, cr.Accepted)
	}
}

// TestEmptyFleetFallsBackToLocal pins the coordinator's ErrNoWorkers
// contract: with nobody registered, jobs run in-process exactly like a
// single node and no fleet counters move.
func TestEmptyFleetFallsBackToLocal(t *testing.T) {
	f := newFleet(t, dist.CoordinatorOptions{})
	req := api.JobRequest{
		Cores:        2,
		Scale:        8,
		Instructions: 8_000,
		Warmup:       2_000,
		Policies:     []api.PolicyRequest{{Name: "lru"}},
		Workloads:    []string{workload.AllSPECGAP()[0].Name},
	}
	id := submitJob(t, f, req)
	waitDone(t, f, id, time.Minute)
	res := fetchResult(t, f, id)
	if len(res.Cells) != 1 || res.StoreMisses != 1 {
		t.Errorf("local fallback result: %d cells, %d misses", len(res.Cells), res.StoreMisses)
	}
	if v := f.reg.Counter("fleet_cells_resolved").Value(); v != 0 {
		t.Errorf("fleet_cells_resolved = %d on an empty fleet", v)
	}
}

// TestFleetWireVersioning pins the door checks: a worker from another
// schema generation is refused at registration, and unknown workers get
// 410 on heartbeat and lease.
func TestFleetWireVersioning(t *testing.T) {
	f := newFleet(t, dist.CoordinatorOptions{})

	var e api.Error
	code := postJSON(t, f.srv.URL+"/v1/fleet/register",
		api.RegisterRequest{APIVersion: api.Version + 1, Name: "future", Capacity: 1}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("future-version register: HTTP %d, want 400", code)
	}
	code = postJSON(t, f.srv.URL+"/v1/fleet/register",
		api.RegisterRequest{Name: "unversioned", Capacity: 1}, nil)
	if code != http.StatusBadRequest {
		t.Errorf("unversioned register: HTTP %d, want 400", code)
	}

	if code := postJSON(t, f.srv.URL+"/v1/fleet/heartbeat",
		api.HeartbeatRequest{WorkerID: "w999-ghost"}, &e); code != http.StatusGone {
		t.Errorf("ghost heartbeat: HTTP %d, want 410", code)
	}
	if code := postJSON(t, f.srv.URL+"/v1/fleet/lease",
		api.LeaseRequest{WorkerID: "w999-ghost", Max: 1}, nil); code != http.StatusGone {
		t.Errorf("ghost lease: HTTP %d, want 410", code)
	}

	// Strict decoding at the fleet boundary: unknown fields are refused.
	resp, err := http.Post(f.srv.URL+"/v1/fleet/register", "application/json",
		strings.NewReader(`{"apiVersion":1,"name":"x","capacity":1,"extra":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("register with unknown field: HTTP %d, want 400", resp.StatusCode)
	}
}
