package experiments

import (
	"fmt"
	"io"
	"sort"

	"drishti/internal/policies"
	"drishti/internal/stats"
)

// Fig13MainPerf reproduces Fig 13: normalized weighted speedup of Hawkeye,
// D-Hawkeye, Mockingjay, and D-Mockingjay over LRU on 4-, 16-, and 32-core
// systems across the SPEC+GAP mix population.
func Fig13MainPerf(p Params, w io.Writer) error {
	header(w, "fig13", "normalized WS over LRU (the headline result)", p)
	specs := mainSpecs()
	fmt.Fprintf(w, "%-8s", "cores")
	for _, s := range specs {
		fmt.Fprintf(w, "  %-14s", s.DisplayName())
	}
	fmt.Fprintln(w)
	for _, cores := range []int{4, 16, 32} {
		cfg := p.config(cores)
		mixes := p.paperMixes(cfg, cores)
		sr, err := runSweep(cfg, mixes, specs, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d", cores)
		for si := range specs {
			fmt.Fprintf(w, "  %+13.2f%%", pctOver(sr.geoNormWS(si)))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper (32 cores): hawkeye +3.3%, d-hawkeye +5.6%, mockingjay +6.7%, d-mockingjay +13.2%")
	fmt.Fprintln(w, "shape to check: D- variants beat bases; the gap widens with core count")
	return nil
}

// Fig14MissReduction reproduces Fig 14: the reduction in average LLC MPKI
// relative to LRU for the same policy set and core counts.
func Fig14MissReduction(p Params, w io.Writer) error {
	header(w, "fig14", "LLC miss (MPKI) reduction over LRU", p)
	specs := mainSpecs()
	fmt.Fprintf(w, "%-8s", "cores")
	for _, s := range specs {
		fmt.Fprintf(w, "  %-14s", s.DisplayName())
	}
	fmt.Fprintln(w)
	for _, cores := range []int{4, 16, 32} {
		cfg := p.config(cores)
		mixes := p.paperMixes(cfg, cores)
		sr, err := runSweep(cfg, mixes, specs, p)
		if err != nil {
			return err
		}
		base := sr.avgBaseMPKI()
		fmt.Fprintf(w, "%-8d", cores)
		for si := range specs {
			red := 0.0
			if base > 0 {
				red = (1 - sr.avgMPKI(si)/base) * 100
			}
			fmt.Fprintf(w, "  %+13.2f%%", red)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper (32 cores): hawkeye −10.6%, d-hawkeye −14.1%, mockingjay −21.2%, d-mockingjay −24.1%")
	return nil
}

// Tab05WPKI reproduces Table 5: average LLC writebacks per kilo instruction.
func Tab05WPKI(p Params, w io.Writer) error {
	header(w, "tab05", "average LLC WPKI", p)
	specs := mainSpecs()
	fmt.Fprintf(w, "%-8s  %-10s", "cores", "lru")
	for _, s := range specs {
		fmt.Fprintf(w, "  %-14s", s.DisplayName())
	}
	fmt.Fprintln(w)
	for _, cores := range []int{4, 16, 32} {
		cfg := p.config(cores)
		mixes := p.paperMixes(cfg, cores)
		sr, err := runSweep(cfg, mixes, specs, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d  %-10.2f", cores, sr.avgBaseWPKI())
		for si := range specs {
			fmt.Fprintf(w, "  %-14.2f", sr.avgWPKI(si))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper shape: predictor policies write back much more than LRU (dirty lines get lowest priority)")
	return nil
}

// Fig15Energy reproduces Fig 15: uncore (LLC+NoC+DRAM) dynamic energy
// normalized to LRU on 16- and 32-core systems.
func Fig15Energy(p Params, w io.Writer) error {
	header(w, "fig15", "uncore energy normalized to LRU (lower is better)", p)
	specs := mainSpecs()
	fmt.Fprintf(w, "%-8s", "cores")
	for _, s := range specs {
		fmt.Fprintf(w, "  %-14s", s.DisplayName())
	}
	fmt.Fprintln(w)
	for _, cores := range []int{16, 32} {
		cfg := p.config(cores)
		mixes := p.paperMixes(cfg, cores)
		sr, err := runSweep(cfg, mixes, specs, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8d", cores)
		for si := range specs {
			fmt.Fprintf(w, "  %-14.3f", sr.avgEnergy(si))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "paper (32 cores): hawkeye 0.98, d-hawkeye 0.97, mockingjay 0.95, d-mockingjay 0.91")
	return nil
}

// Tab06Metrics reproduces Table 6: WS, HS, unfairness, and MIS for the four
// policies on the 32-core system.
func Tab06Metrics(p Params, w io.Writer) error {
	header(w, "tab06", "WS / HS / unfairness / max-slowdown on 32 cores", p)
	const cores = 32
	cfg := p.config(cores)
	mixes := p.paperMixes(cfg, cores)
	specs := mainSpecs()
	sr, err := runSweep(cfg, mixes, specs, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s  %-8s  %-8s  %-10s  %-8s\n", "policy", "WS(%)", "HS(%)", "unfair", "MIS(%)")
	for si, spec := range specs {
		var hsRatios, unfair, maxSlow []float64
		for mi := range mixes {
			out := sr.outcomes[si][mi]
			ev := sr.evals[mi]
			baseM, err := outMetrics(ev)
			if err != nil {
				return err
			}
			hsRatios = append(hsRatios, out.multi.HS/baseM.HS)
			unfair = append(unfair, out.multi.Unfairness)
			maxSlow = append(maxSlow, out.multi.MaxSlowdown()*100)
		}
		fmt.Fprintf(w, "%-14s  %+7.2f  %+7.2f  %-10.2f  %-8.1f\n",
			spec.DisplayName(),
			pctOver(sr.geoNormWS(si)),
			pctOver(geomean(hsRatios)),
			stats.Mean(unfair),
			stats.Mean(maxSlow))
	}
	fmt.Fprintln(w, "paper: WS 3.3/5.6/6.7/13.3%, HS 3.4/5/4.5/12.8%, unfairness ~1.2–1.3, MIS 41.4/40/37/34.2%")
	return nil
}

// Fig16PerMix reproduces Fig 16: per-mix normalized WS for Mockingjay and
// D-Mockingjay on 32 cores, sorted by improvement.
func Fig16PerMix(p Params, w io.Writer) error {
	header(w, "fig16", "per-mix performance, Mockingjay vs D-Mockingjay (sorted)", p)
	const cores = 32
	cfg := p.config(cores)
	mixes := p.paperMixes(cfg, cores)
	specs := []policies.Spec{{Name: "mockingjay"}, {Name: "mockingjay", Drishti: true}}
	sr, err := runSweep(cfg, mixes, specs, p)
	if err != nil {
		return err
	}
	type row struct {
		name  string
		m, dm float64
	}
	rows := make([]row, len(mixes))
	for mi, mix := range mixes {
		rows[mi] = row{mix.Name, sr.normWS[0][mi], sr.normWS[1][mi]}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].dm < rows[j].dm })
	wins := 0
	for _, r := range rows {
		marker := ""
		if r.dm >= r.m {
			wins++
		} else {
			marker = "  (d-mockingjay behind)"
		}
		fmt.Fprintf(w, "%-28s mockingjay=%.4f d-mockingjay=%.4f%s\n", r.name, r.m, r.dm, marker)
	}
	fmt.Fprintf(w, "d-mockingjay ≥ mockingjay on %d/%d mixes (paper: consistently outperforms on all 70)\n",
		wins, len(rows))
	return nil
}

// outMetrics computes the LRU baseline's own metrics (for HS normalization).
func outMetrics(ev *mixEval) (m multiLite, err error) {
	// The baseline's HS against its own alone IPCs.
	var invSum float64
	n := 0
	for i, ipc := range ev.baseRes.IPCs() {
		is := ipc / ev.alone[i]
		if is > 0 {
			invSum += 1 / is
			n++
		}
	}
	if n == 0 || invSum == 0 {
		return multiLite{HS: 1}, nil
	}
	return multiLite{HS: float64(n) / invSum}, nil
}

type multiLite struct{ HS float64 }
