package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// digest is a SHA-256 over length-prefixed fields, so field boundaries
// cannot alias.
type digest struct{ b []byte }

func newDigest() *digest { return &digest{} }

func (d *digest) add(fields ...string) {
	for _, f := range fields {
		d.b = strconv.AppendInt(d.b, int64(len(f)), 10)
		d.b = append(d.b, ':')
		d.b = append(d.b, f...)
	}
}

func (d *digest) sum() string {
	s := sha256.Sum256(d.b)
	return hex.EncodeToString(s[:])
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// quantile is the linearly interpolated q-quantile of xs (xs is sorted in
// place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// hostTicks reads the machine's steal and total CPU time from /proc/stat,
// in clock ticks; both read 0 where the file is missing.
func hostTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// ratio returns a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// refs are outputs recorded for known seeds (ref.json): the sweep
// workload's fig13 table and the cold service workloads' cell digest.
// A seed without a recorded reference is still checked in every other
// way; see README.md.
type refs struct {
	Sweep   map[string]string `json:"sweep"`
	Service map[string]string `json:"service"`
}

func loadRefs(root string) refs {
	var r refs
	b, err := os.ReadFile(filepath.Join(root, "perfbench", "ref.json"))
	if err == nil {
		err = json.Unmarshal(b, &r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: no recorded references:", err)
	}
	return r
}

// checkRef compares got with the recorded reference for this seed, if one
// exists.
func (r *run) checkRef(kind string, table map[string]string, got string) {
	want, ok := table[strconv.FormatUint(r.seed, 10)]
	if !ok {
		r.logf("%s: no recorded reference for seed %d; digest %s", kind, r.seed, got)
		return
	}
	if want != got {
		r.fail("%s digest %s differs from the reference %s recorded for seed %d", kind, got, want, r.seed)
		return
	}
	r.check(kind+" reference", 1, 0)
}

// compareMain prints per-metric ratios of two saved runs (the stdout of
// two invocations on the same workload), refusing when the host
// fingerprints differ.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <before.txt> <after.txt>")
		return 2
	}
	var recs [2]savedRecord
	for i, path := range args {
		rec, err := readRecord(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
		recs[i] = rec
	}
	a, b := recs[0], recs[1]
	if a.Fingerprint.host() != b.Fingerprint.host() {
		fmt.Fprintf(os.Stderr, "perfbench compare: refusing to compare results from different hosts:\n  %s\n  %s\n",
			a.Fingerprint.host(), b.Fingerprint.host())
		return 3
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		fmt.Fprintf(os.Stderr, "perfbench compare: workloads differ (%s trace=%v vs %s trace=%v)\n",
			a.Workload, a.Trace, b.Workload, b.Trace)
		return 3
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	row := func(name string, x, y float64, unit string) {
		fmt.Printf("%-34s %14.6g %14.6g %9.4f  %s\n", name, x, y, ratio(y, x), unit)
	}
	fmt.Printf("%-34s %14s %14s %9s\n", "metric", "before", "after", "after/before")
	for _, n := range names {
		x, y := a.Result.Metrics[n], b.Result.Metrics[n]
		row(n, x.Value, y.Value, x.Unit)
	}
	row("wall.setup_s", a.Wall.SetupS, b.Wall.SetupS, "s")
	row("wall.sweep_s", a.Wall.SweepS, b.Wall.SweepS, "s")
	row("wall.capacity_cells_per_s", a.Wall.CellsPerS, b.Wall.CellsPerS, "cells/s")
	row("latency.p50_ms", a.Latency.P50, b.Latency.P50, "ms")
	row("latency.p99_ms", a.Latency.P99, b.Latency.P99, "ms")
	row("steal_frac", a.StealFrac, b.StealFrac, "ratio")
	return 0
}

type savedRecord struct {
	Perfbench   int             `json:"perfbench"`
	Workload    string          `json:"workload"`
	Trace       bool            `json:"trace"`
	Fingerprint hostFingerprint `json:"fingerprint"`
	Wall        wallTimes       `json:"wall"`
	Latency     cellLatency     `json:"latency"`
	StealFrac   float64         `json:"steal_frac"`
	Result      struct {
		Metrics map[string]metric `json:"metrics"`
	} `json:"result"`
}

func readRecord(path string) (savedRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRecord{}, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		if !strings.Contains(line, `"perfbench":1`) {
			continue
		}
		var rec savedRecord
		if err := json.Unmarshal([]byte(line), &rec); err == nil && rec.Perfbench == 1 {
			return rec, nil
		}
	}
	if err := sc.Err(); err != nil {
		return savedRecord{}, err
	}
	return savedRecord{}, fmt.Errorf("%s: no perfbench record line", path)
}
