// Command drishti-worker is the execution side of a drishti fleet: it
// registers with a drishti-served coordinator (-fleet), heartbeats, leases
// sweep cells, serves them from its content-addressed store or simulates
// them, and uploads the results. Run as many workers as you have machines
// (or cores); the coordinator reassigns the leases of any worker that dies.
//
//	drishti-served -fleet -addr :8411 -store ./shared.store &
//	drishti-worker -coordinator http://localhost:8411 -store ./shared.store -concurrency 4
//
// Pointing every worker's -store at one shared directory extends the
// content-addressed dedup fleet-wide; private directories also work — the
// coordinator writes uploaded results back into its own store.
//
// SIGINT/SIGTERM stop leasing and abort in-flight cells; the coordinator
// reassigns them after lease expiry. See README.md "Distributed mode".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"drishti/internal/buildinfo"
	"drishti/internal/cliconf"
	"drishti/internal/dist"
	"drishti/internal/obs"
)

func main() { os.Exit(run()) }

func run() int {
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	cc := cliconf.New(flag.CommandLine)
	var (
		coord       = cc.String("coordinator", "DRISHTI_COORDINATOR", "http://localhost:8411", "coordinator base URL")
		dir         = cc.String("store", "DRISHTI_STORE", "drishti.store", "content-addressed result store directory")
		name        = flag.String("name", host, "worker name shown in fleet state")
		concurrency = cc.Int("concurrency", "DRISHTI_CONCURRENCY", runtime.GOMAXPROCS(0), "cells simulated concurrently")
		laneWkrs    = cc.Int("lane-workers", "DRISHTI_WORKER_LANES", 0, "concurrent lanes per lease group; 0 = the capacity slots the group holds (never oversubscribes -concurrency; bit-identical at every setting)")
		poll        = cc.Duration("poll", "DRISHTI_POLL", 0, "idle poll interval (0 = coordinator-suggested)")
		quiet       = flag.Bool("quiet", false, "log warnings and errors only")
		version     = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if err := cc.Resolve(); err != nil {
		fmt.Fprintln(os.Stderr, "drishti-worker:", err)
		return 2
	}
	if *version {
		fmt.Println("drishti-worker", buildinfo.Read())
		return 0
	}
	log := obs.NewLogger(os.Stderr, "drishti-worker", *quiet)

	w, err := dist.NewWorker(dist.WorkerOptions{
		Coordinator: *coord,
		Name:        *name,
		Capacity:    *concurrency,
		LaneWorkers: *laneWkrs,
		StoreDir:    *dir,
		Poll:        *poll,
		Logger:      log,
		Registry:    obs.Default(),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "drishti-worker:", err)
		return 1
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Info("signal received, stopping", "signal", sig.String())
		cancel()
	}()

	log.Info("worker starting", "coordinator", *coord, "store", *dir, "concurrency", *concurrency)
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		fmt.Fprintln(os.Stderr, "drishti-worker:", err)
		return 1
	}
	return 0
}
