package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"drishti/internal/dist"
	"drishti/internal/obs"
	"drishti/internal/obs/trace"
	"drishti/internal/serve"
	"drishti/internal/serve/api"
	"drishti/internal/store"
)

// deployment is an in-process service topology: one single-node
// serve.Service (the default drishti-served deployment over a directory
// store), or two peered fleet coordinators over a two-shard store with one
// simulation worker each. Every node is reached over real loopback HTTP
// under a stable host name, so the coordinators' ring membership is the
// same on every run whatever ports the listeners get.
type deployment struct {
	urls    []string // base URLs, one per node; a fleet's ring membership
	servers []*http.Server
	svcs    []*serve.Service
	regs    []*obs.Registry
	be      *timedBackend // the nodes' shared store backend when traced
	peer    *timedTransport
	client  *http.Client // the benchmark's client: HTTP/2 cleartext, one connection per node
	conns   atomic.Int64 // client connections dialled

	cancel  context.CancelFunc
	workers sync.WaitGroup // fleet workers' Run loops
	serving sync.WaitGroup // the servers' Serve loops
}

// resolver maps the stable node names to their listeners. It is filled
// before any client dials and only read afterwards.
type resolver map[string]string

func (r resolver) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	real, ok := r[addr]
	if !ok {
		return nil, fmt.Errorf("perfbench: unknown node %s", addr)
	}
	var d net.Dialer
	return d.DialContext(ctx, network, real)
}

// startDeployment brings up the topology under dir. Tracing turns on the
// spans the service and coordinators already record and wraps the store
// backend in a timer; neither adds code inside the program.
func startDeployment(dir string, fleet, traced bool) (*deployment, error) {
	d := &deployment{}
	res := resolver{}
	n := 1
	prefix := "serve"
	if fleet {
		n, prefix = 2, "coord"
	}
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		host := fmt.Sprintf("%s-%d.perfbench", prefix, i)
		res[host+":80"] = ln.Addr().String()
		d.urls = append(d.urls, "http://"+host)
	}

	h2c := new(http.Protocols)
	h2c.SetUnencryptedHTTP2(true)
	d.client = &http.Client{Transport: &http.Transport{
		Protocols: h2c,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			d.conns.Add(1)
			return res.dial(ctx, network, addr)
		},
	}}
	d.peer = &timedTransport{next: &http.Transport{DialContext: res.dial}}
	peerClient := &http.Client{Transport: d.peer, Timeout: 60 * time.Second}

	var st *store.Store
	if fleet {
		shards := []string{filepath.Join(dir, "shard0"), filepath.Join(dir, "shard1")}
		if traced {
			names := make([]string, len(shards))
			backends := make([]store.Backend, len(shards))
			for i, s := range shards {
				b, err := store.NewDir(s)
				if err != nil {
					return nil, err
				}
				names[i], backends[i] = filepath.Clean(s), b
			}
			sh, err := store.NewSharded(names, backends)
			if err != nil {
				return nil, err
			}
			d.be = &timedBackend{next: sh}
			st = store.OpenBackend(d.be)
		} else {
			var err error
			if st, err = store.OpenSharded(shards, 0); err != nil {
				return nil, err
			}
		}
	} else if traced {
		b, err := store.NewDir(filepath.Join(dir, "store"))
		if err != nil {
			return nil, err
		}
		d.be = &timedBackend{next: b}
		st = store.OpenBackend(d.be)
	}

	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	h1h2c := new(http.Protocols)
	h1h2c.SetHTTP1(true)
	h1h2c.SetUnencryptedHTTP2(true)
	for i := 0; i < n; i++ {
		reg := obs.NewRegistry()
		var rec *trace.Recorder
		if traced {
			rec = trace.NewRecorder(fmt.Sprintf("%s-%d", prefix, i), nil)
		}
		opts := serve.Options{
			StoreDir: filepath.Join(dir, fmt.Sprintf("node%d", i)),
			Store:    st,
			Registry: reg,
			Trace:    rec,
		}
		if !fleet && !traced {
			opts.StoreDir = filepath.Join(dir, "store") // exactly drishti-served's default layout
		}
		var handler func(http.Handler) http.Handler
		if fleet {
			var peers []string
			for j, u := range d.urls {
				if j != i {
					peers = append(peers, u)
				}
			}
			coord, err := dist.NewCoordinator(dist.CoordinatorOptions{
				Store:        st,
				Self:         d.urls[i],
				Peers:        peers,
				LeaseTTL:     20 * time.Second,
				WorkerTTL:    20 * time.Second,
				PollInterval: 10 * time.Millisecond,
				Registry:     reg,
				Trace:        rec,
				Client:       peerClient,
			})
			if err != nil {
				d.stop()
				return nil, err
			}
			opts.Distributor = coord
			handler = coord.Handler
		}
		svc, err := serve.New(opts)
		if err != nil {
			d.stop()
			return nil, err
		}
		h := svc.Handler()
		if handler != nil {
			h = handler(h)
		}
		srv := &http.Server{Handler: h, Protocols: h1h2c}
		d.serving.Add(1)
		go func(ln net.Listener) {
			defer d.serving.Done()
			srv.Serve(ln) // returns http.ErrServerClosed once stop shuts it down
		}(lns[i])
		d.servers = append(d.servers, srv)
		d.svcs = append(d.svcs, svc)
		d.regs = append(d.regs, reg)

		if fleet {
			// One worker per coordinator. A worker leases up to one job's
			// batch group (five cells) and runs its lanes on one
			// goroutine, so the fleet batches as deployed while GOMAXPROCS
			// bounds simulation parallelism at the host's CPUs.
			w, err := dist.NewWorker(dist.WorkerOptions{
				Coordinator: d.urls[i],
				Name:        fmt.Sprintf("worker-%d", i),
				Capacity:    len(jobPolicies),
				LaneWorkers: 1,
				StoreDir:    filepath.Join(dir, fmt.Sprintf("worker%d", i)),
				Poll:        10 * time.Millisecond,
				Heartbeat:   250 * time.Millisecond,
				Registry:    obs.NewRegistry(),
				Client:      peerClient,
			})
			if err != nil {
				d.stop()
				return nil, err
			}
			d.workers.Add(1)
			go func() {
				defer d.workers.Done()
				// Run fails only if registration does; awaitWorkers then
				// times out and reports it.
				if err := w.Run(ctx); err != nil {
					fmt.Fprintln(os.Stderr, "perfbench: fleet worker:", err)
				}
			}()
		}
	}
	// One request per node before any concurrent use, so the client's
	// first requests share the connection instead of racing to dial more.
	for _, u := range d.urls {
		var v map[string]any
		if err := d.getJSON(u+"/v1/version", &v); err != nil {
			d.stop()
			return nil, err
		}
	}
	if fleet {
		if err := d.awaitWorkers(30 * time.Second); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// awaitWorkers blocks until GET /v1/fleet on every coordinator lists its
// worker, so no coordinator can decline forwarded cells for want of one.
func (d *deployment) awaitWorkers(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, u := range d.urls {
		for {
			st, err := d.fleetStatus(u)
			if err == nil && len(st.Workers) > 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s: no worker registered within %v (last error: %v)", u, limit, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

func (d *deployment) fleetStatus(base string) (api.FleetStatus, error) {
	var st api.FleetStatus
	err := d.getJSON(base+"/v1/fleet", &st)
	return st, err
}

func (d *deployment) getJSON(url string, v any) error {
	resp, err := d.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// counter reads a service registry counter summed over the nodes.
func (d *deployment) counter(name string) float64 {
	var s uint64
	for _, r := range d.regs {
		s += r.Counter(name).Value()
	}
	return float64(s)
}

// stop shuts every node down and returns once their goroutines have
// exited. The clients drop their idle connections first: the servers
// count a fresh HTTP/2 cleartext connection as busy for five seconds, so
// closing it from the client side keeps Shutdown from waiting that out.
// Shutdown errors only mean a drain ran past the timeout; the
// measurements are already taken, so they are logged, not returned.
func (d *deployment) stop() {
	d.cancel()
	d.workers.Wait()
	d.client.CloseIdleConnections()
	if t, ok := d.peer.next.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, srv := range d.servers {
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: server shutdown:", err)
		}
	}
	d.serving.Wait()
	for _, svc := range d.svcs {
		if err := svc.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: service shutdown:", err)
		}
	}
}

// timedBackend is a store.Backend that times and counts every Get and Put
// it forwards.
type timedBackend struct {
	next store.Backend

	gets, hits, puts, putBytes atomic.Int64
	getNS, putNS               atomic.Int64
}

func (b *timedBackend) Get(addr string) ([]byte, error) {
	t := time.Now()
	data, err := b.next.Get(addr)
	b.getNS.Add(int64(time.Since(t)))
	b.gets.Add(1)
	if err == nil {
		b.hits.Add(1)
	}
	return data, err
}

func (b *timedBackend) Put(addr string, data []byte) error {
	t := time.Now()
	err := b.next.Put(addr, data)
	b.putNS.Add(int64(time.Since(t)))
	b.puts.Add(1)
	b.putBytes.Add(int64(len(data)))
	return err
}

func (b *timedBackend) Delete(addr string) error   { return b.next.Delete(addr) }
func (b *timedBackend) List() ([]string, error)    { return b.next.List() }
func (b *timedBackend) Describe() string           { return "timed(" + store.Describe(b.next) + ")" }
func (b *timedBackend) Usage() (int, int64, error) { return store.Usage(b.next) }

type backendCounts struct{ gets, hits, puts, putBytes, getNS, putNS int64 }

func (b *timedBackend) snapshot() backendCounts {
	if b == nil {
		return backendCounts{}
	}
	return backendCounts{b.gets.Load(), b.hits.Load(), b.puts.Load(), b.putBytes.Load(), b.getNS.Load(), b.putNS.Load()}
}

func (c backendCounts) minus(o backendCounts) backendCounts {
	return backendCounts{c.gets - o.gets, c.hits - o.hits, c.puts - o.puts, c.putBytes - o.putBytes, c.getNS - o.getNS, c.putNS - o.putNS}
}

// timedTransport times the coordinators' peer forwards (POST
// /v1/fleet/cells) on their way out.
type timedTransport struct {
	next         http.RoundTripper
	forwards, ns atomic.Int64
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method != http.MethodPost || req.URL.Path != "/v1/fleet/cells" {
		return t.next.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	t.ns.Add(int64(time.Since(start)))
	t.forwards.Add(1)
	return resp, err
}
