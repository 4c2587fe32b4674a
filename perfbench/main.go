// Command perfbench is the repository benchmark: one process that runs a
// named workload against the simulator or the job service through their
// public Go interfaces, checks every output, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as the last line of
// standard output. See README.md in this directory for the workloads, the
// metric definitions and the predictions they are meant to test.
//
//	perfbench --workload sweep --seed 1 --seconds 10 --trace 0
//	perfbench compare before.txt after.txt
//	perfbench record-refs 1 64 > ref.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or writing a
// change; a performance claim must also hold on it (README.md).
const heldOutSeed = 9001

// workloads maps each --workload name to its runner.
var workloads = map[string]func(*run) error{
	"sweep":      runSweep,
	"serve-cold": runServeCold,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "record-refs":
			os.Exit(recordRefsMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain())
}

func benchMain() int {
	var (
		name    = flag.String("workload", "", "workload to run: sweep, serve-cold")
		seed    = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "length of the measured window")
		traced  = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
		root    = flag.String("root", ".", "checkout root (its sources are fingerprinted, its references read)")
		scratch = flag.String("scratch", "", "directory for run files (default <root>/.bench_build)")
	)
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	if *scratch == "" {
		*scratch = filepath.Join(*root, ".bench_build")
	}
	dir, err := os.MkdirTemp(*scratch, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	r := &run{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		traced:   *traced == 1,
		scratch:  dir,
		refs:     loadRefs(*root),
		metrics:  map[string]metric{},
		log:      os.Stderr,
	}
	r.logf("workload=%s seed=%d seconds=%v trace=%v gomaxprocs=%d", r.workload, r.seed, *seconds, r.traced, runtime.GOMAXPROCS(0))
	steal0, total0 := hostTicks()
	err = fn(r)
	steal1, total1 := hostTicks()
	r.stealFrac = ratio(steal1-steal0, total1-total0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !r.traced {
		r.set("peak_rss_mb", "MB", peakRSSMB())
	}
	return r.emit(os.Stdout, fingerprint(*root))
}

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a run prints with --trace 0, every one on
// every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"sweep_cpu_s", "s"}, {"cells_per_cpu_s", "cells/cpu-s"},
	{"ok_frac", "ratio"}, {"peak_rss_mb", "MB"},
}

// perLayer are the metrics a run prints with --trace 1. A layer the
// workload does not exercise reads 0 (README.md lists which workload fills
// which metric).
var perLayer = []metricDef{
	{"workload.next_ns", "ns"}, {"workload.records", "count"},
	{"sim.gen_s", "s"}, {"sim.private_replay_s", "s"}, {"sim.lane_run_s", "s"}, {"sim.barrier_s", "s"},
	{"sim.window_grows", "count"}, {"sim.lane_busy_ratio", "ratio"}, {"sim.ns_per_llc_access", "ns"},
	{"sim.batch_minstr_per_s", "Minstr/s"}, {"sim.serial_minstr_per_s", "Minstr/s"}, {"sim.job_batch_minstr_per_s", "Minstr/s"},
	{"llc.demand_accesses", "count"}, {"llc.demand_misses", "count"}, {"llc.bypasses", "count"},
	{"prefetch.issued", "count"}, {"noc.mesh_msgs", "count"}, {"noc.star_msgs", "count"},
	{"fabric.lookups", "count"}, {"fabric.remote_lookups", "count"}, {"dram.reads", "count"},
	{"dram.row_hit_ratio", "ratio"}, {"sampler.dsc_selections", "count"},
	{"cache.llc_access_ns.lru", "ns"}, {"cache.llc_access_ns.hawkeye", "ns"}, {"cache.llc_access_ns.d-hawkeye", "ns"},
	{"cache.llc_access_ns.mockingjay", "ns"}, {"cache.llc_access_ns.d-mockingjay", "ns"},
	{"experiments.overhead_s", "s"},
	{"serve.submit_ms", "ms"}, {"serve.queue_wait_ms", "ms"}, {"serve.run_ms", "ms"}, {"serve.first_cell_ms", "ms"},
	{"serve.stream_tail_ms", "ms"}, {"serve.rejected", "count"}, {"serve.retried", "count"},
	{"store.get_us", "us"}, {"store.put_us", "us"}, {"store.gets", "count"}, {"store.puts", "count"},
	{"store.hit_ratio", "ratio"}, {"store.bytes_per_cell", "B"},
	{"api.decode_us", "us"}, {"api.event_bytes", "B"},
	{"dist.cells_forwarded", "count"}, {"dist.cells_remote", "count"}, {"dist.forwards_reowned", "count"},
	{"dist.owned_share", "ratio"}, {"dist.lease_ms", "ms"}, {"dist.forward_ms", "ms"},
	{"cell.latency_p50_ms", "ms"}, {"cell.latency_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"}, {"trace.overhead_frac", "ratio"}, {"fail_frac", "ratio"},
}

// run is one benchmark invocation: its inputs, its checks and its metrics.
type run struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	scratch  string
	refs     refs
	log      io.Writer

	attempted, failed int
	failures          []string
	latency           cellLatency
	wall              wallTimes
	stealFrac         float64 // the machine's share of CPU time the hypervisor took during the run
	metrics           map[string]metric
	digests           map[string]string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "perfbench: "+format+"\n", args...)
}

func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// check counts n attempted outputs, bad of which failed the named check.
func (r *run) check(what string, n, bad int) {
	r.attempted += n
	r.failed += bad
	if bad > 0 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %d of %d failed", what, bad, n))
	}
}

// fail records one failed output with its reason.
func (r *run) fail(format string, args ...any) {
	r.attempted++
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// wallTimes are the wall-clock counterparts of a run's CPU-time end-to-end
// metrics: what a user waits for. They are printed in the record line, not
// among the end-to-end metrics: on a shared 2-vCPU VM they moved by one
// and a half times the hypervisor's steal time, which the CPU times leave
// out (README.md).
type wallTimes struct {
	SetupS    float64 `json:"setup_s"`
	SweepS    float64 `json:"sweep_s"`
	CellsPerS float64 `json:"capacity_cells_per_s"`
}

// cellLatency is how long the run's cells took to arrive: p50 and p99 and
// the number of cells behind them. It is printed in the record line, and
// among the per-layer metrics of a traced run. It is no end-to-end metric:
// on a shared 2-vCPU VM it moved two to three times as much with the
// host's load as capacity did, past any bound the benchmark may set
// (README.md).
type cellLatency struct {
	P50     float64 `json:"p50_ms"`
	P99     float64 `json:"p99_ms"`
	Samples int     `json:"samples"`
}

func (r *run) setLatency(p50, p99 float64, samples int) {
	r.latency = cellLatency{P50: p50, P99: p99, Samples: samples}
	if r.traced {
		r.set("cell.latency_p50_ms", "ms", p50)
		r.set("cell.latency_p99_ms", "ms", p99)
	}
}

func (r *run) digest(name, sum string) {
	if r.digests == nil {
		r.digests = map[string]string{}
	}
	r.digests[name] = sum
}

// emit prints the full record (fingerprint, digests, failures) on one line
// and the result as the last line; it returns the exit code.
func (r *run) emit(w io.Writer, fp hostFingerprint) int {
	if r.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no outputs were checked")
		return 1
	}
	for _, f := range r.failures {
		r.logf("CHECK FAILED %s", f)
	}
	defs := endToEnd
	if !r.traced {
		r.set("ok_frac", "ratio", 1-float64(r.failed)/float64(r.attempted))
	} else {
		defs = perLayer
		r.set("fail_frac", "ratio", float64(r.failed)/float64(r.attempted))
	}
	out := map[string]metric{}
	for _, d := range defs {
		m, ok := r.metrics[d.name]
		switch {
		case !ok && !r.traced:
			fmt.Fprintf(os.Stderr, "perfbench: end-to-end metric %s was not measured\n", d.name)
			return 1
		case !ok:
			m = metric{Unit: d.unit}
		case m.Unit != d.unit:
			fmt.Fprintf(os.Stderr, "perfbench: metric %s measured in %s, declared in %s\n", d.name, m.Unit, d.unit)
			return 1
		}
		out[d.name] = m
		delete(r.metrics, d.name)
	}
	for name := range r.metrics {
		fmt.Fprintf(os.Stderr, "perfbench: metric %s is not declared\n", name)
		return 1
	}
	res := map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	}
	record := map[string]any{
		"perfbench":   1,
		"workload":    r.workload,
		"seed":        r.seed,
		"trace":       r.traced,
		"fingerprint": fp,
		"digests":     r.digests,
		"failures":    r.failures,
		"latency":     r.latency,
		"wall":        r.wall,
		"steal_frac":  r.stealFrac,
		"result":      res,
	}
	for _, v := range []any{record, res} {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintln(w, string(b))
	}
	return 0
}

// hostFingerprint identifies where and what was measured. Results are only
// comparable when every field but Commit and Source matches.
type hostFingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source"`
}

func (f hostFingerprint) host() string {
	return fmt.Sprintf("%s|nproc=%d|gomaxprocs=%d|%s", f.CPU, f.NProc, f.GOMAXPROCS, f.Go)
}

func fingerprint(root string) hostFingerprint {
	fp := hostFingerprint{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest(root),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	return fp
}

// sourceDigest hashes every Go source and module file of the checkout, so
// results name the code they measured even where no VCS metadata exists.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := newDigest()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		h.add(rel, string(b))
	}
	return h.sum()[:16]
}

// peakRSSMB reads the process's peak resident set size.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
