// Command drishti-served runs the simulation job service: an HTTP API that
// queues sweep requests, executes them on a bounded worker pool with
// per-job cancellation and timeouts, and memoizes every (config, mix) cell
// in a durable content-addressed store so repeated sweeps are served from
// disk without re-simulating.
//
//	drishti-served -addr :8411 -store ./results.store
//	curl -s localhost:8411/v1/jobs -d '{"cores":8,"policies":[{"name":"lru"}],"workloads":["mcf"]}'
//	curl -s localhost:8411/v1/jobs/<id>
//	curl -s localhost:8411/v1/jobs/<id>/result
//	curl -sN localhost:8411/v1/jobs/<id>/results      # NDJSON stream, one cell per line
//
// With -fleet the service additionally runs the distributed-sweep
// coordinator: drishti-worker processes register over /v1/fleet/*, sweep
// cells are handed out under expiring leases, and jobs fall back to local
// in-process execution whenever no workers are registered — single-node
// behavior is unchanged. Fleet state is served at GET /v1/fleet.
//
// Scaling out further, -self/-peers run several stateless coordinators
// over one store: the peers form a consistent-hash ring over cell keys,
// forward each cell to its owner, and stay byte-identical to a
// single-node run. -shards splits the store across directories (again by
// consistent hashing), and -cache puts a read-through memory tier in
// front. See README.md "Scaling out".
//
//	drishti-served -fleet -addr :8411 -self http://a:8411 -peers http://b:8411 -shards s0,s1
//
// SIGINT/SIGTERM drain gracefully: in-flight jobs finish (bounded by
// -drain), still-queued jobs are persisted into the store directory and
// restored on the next start. See README.md "Running the service" and
// "Distributed mode".
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"drishti/internal/buildinfo"
	"drishti/internal/cliconf"
	"drishti/internal/dist"
	"drishti/internal/obs"
	"drishti/internal/obs/trace"
	"drishti/internal/serve"
	"drishti/internal/store"
)

func main() { os.Exit(run()) }

func run() int {
	cc := cliconf.New(flag.CommandLine)
	var (
		addr    = cc.String("addr", "DRISHTI_ADDR", ":8411", "HTTP listen address")
		dir     = cc.String("store", "DRISHTI_STORE", "drishti.store", "result store / queue directory")
		workers = cc.Int("workers", "", 0, "job worker pool size; each running job batches up to three policies of a workload row at a time on one lane worker (0 = GOMAXPROCS)")
		queue   = cc.Int("queue", "", 64, "queue capacity before 429 backpressure")
		quota   = cc.Int("tenant-quota", "DRISHTI_TENANT_QUOTA", 0, "max queued+running jobs per tenant before 429 (0 = unlimited)")
		timeout = flag.Duration("timeout", 0, "default per-job timeout (0 = none)")
		retries = flag.Int("retries", 2, "retry budget for transient job failures")
		drain   = flag.Duration("drain", time.Minute, "shutdown drain bound for in-flight jobs")
		quiet   = flag.Bool("quiet", false, "log warnings and errors only")
		version = flag.Bool("version", false, "print build information and exit")

		fleet        = flag.Bool("fleet", false, "coordinator mode: distribute sweep cells to drishti-worker processes")
		leaseTTL     = flag.Duration("lease-ttl", 30*time.Second, "fleet: reassign a cell if a worker holds it longer than this")
		workerTTL    = flag.Duration("worker-ttl", 45*time.Second, "fleet: declare a worker dead after this much heartbeat silence")
		fleetRetries = flag.Int("fleet-retries", 3, "fleet: reassignments per cell before the job fails")

		self   = cc.String("self", "DRISHTI_SELF", "", "fleet: this coordinator's advertised base URL (required with -peers)")
		peers  = cc.String("peers", "DRISHTI_PEERS", "", "fleet: comma-separated peer coordinator base URLs forming the cell-ownership ring")
		shards = cc.String("shards", "DRISHTI_SHARDS", "", "comma-separated shard directories for a consistent-hash sharded store (overrides -store for results; -store still roots the queue)")
		cache  = cc.Int("cache", "DRISHTI_CACHE", 0, "read-through memory-tier entries in front of the store (0 = off, <0 = default size)")

		traceJournal = flag.String("trace-journal", "auto",
			"span journal `file` for distributed tracing (auto = <store>/trace.journal; off disables tracing)")
	)
	flag.Parse()
	if err := cc.Resolve(); err != nil {
		fmt.Fprintln(os.Stderr, "drishti-served:", err)
		return 2
	}
	if *version {
		fmt.Println("drishti-served", buildinfo.Read())
		return 0
	}
	log := obs.NewLogger(os.Stderr, "drishti-served", *quiet)

	peerList := splitList(*peers)
	if len(peerList) > 0 && !*fleet {
		fmt.Fprintln(os.Stderr, "drishti-served: -peers requires -fleet")
		return 2
	}

	// Distributed tracing: every job gets a trace ID, spans from the
	// coordinator and from workers are collected in memory (served at
	// GET /v1/jobs/{id}/trace) and persisted to an NDJSON journal next to
	// the store (render it with drishti-sim -trace-timeline).
	var rec *trace.Recorder
	if path := *traceJournal; path != "off" && path != "" {
		if path == "auto" {
			path = filepath.Join(*dir, "trace.journal")
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "drishti-served:", err)
			return 1
		}
		j, err := trace.OpenJournal(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "drishti-served:", err)
			return 1
		}
		defer j.Close()
		rec = trace.NewRecorder("served", j)
		log.Info("tracing enabled", "journal", path)
	}

	// The result store: classic single directory by default; -shards
	// and/or -cache build the scaled-out composition once and hand the
	// same handle to the coordinator and the job service.
	var st *store.Store
	if dirs := splitList(*shards); len(dirs) > 0 || *cache != 0 {
		if len(dirs) == 0 {
			dirs = []string{*dir}
		}
		var err error
		st, err = store.OpenSharded(dirs, *cache)
		if err != nil {
			fmt.Fprintln(os.Stderr, "drishti-served:", err)
			return 1
		}
		log.Info("store opened", "layout", st.Dir())
	}

	// In fleet mode the coordinator shares the service's store handle (or
	// opens its own on the same directory — the store is
	// multi-process-safe by design), so it can be built first and handed
	// to the service as its Distributor.
	var coord *dist.Coordinator
	var err error
	if *fleet {
		coord, err = dist.NewCoordinator(dist.CoordinatorOptions{
			StoreDir:       *dir,
			Store:          st,
			Self:           *self,
			Peers:          peerList,
			LeaseTTL:       *leaseTTL,
			WorkerTTL:      *workerTTL,
			MaxCellRetries: *fleetRetries,
			Logger:         log,
			Registry:       obs.Default(),
			Trace:          rec,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "drishti-served:", err)
			return 1
		}
	}

	opts := serve.Options{
		StoreDir:       *dir,
		Store:          st,
		Workers:        *workers,
		QueueCap:       *queue,
		TenantQuota:    *quota,
		DefaultTimeout: *timeout,
		MaxRetries:     *retries,
		Logger:         log,
		Registry:       obs.Default(),
		Trace:          rec,
	}
	if coord != nil {
		opts.Distributor = coord
	}
	svc, err := serve.New(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "drishti-served:", err)
		return 1
	}

	handler := http.Handler(svc.Handler())
	if coord != nil {
		handler = coord.Handler(handler)
	}
	srv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Info("serving", "addr", *addr, "store", *dir, "queueCap", *queue,
		"fleet", *fleet, "peers", len(peerList))

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Info("signal received, draining", "signal", sig.String(), "bound", *drain)
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "drishti-served:", err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	srv.Shutdown(ctx)
	if err := svc.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "drishti-served: shutdown:", err)
		return 1
	}
	return 0
}

// splitList splits a comma-separated flag value, trimming whitespace and
// dropping empty elements, so "-peers a,b," and "-peers a, b" both work.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
