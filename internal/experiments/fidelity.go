package experiments

import (
	"fmt"
	"io"

	"drishti/internal/sim"
)

// FidelityAblation quantifies the substrate's modeling choices (DESIGN.md
// §5): strict Table 4 MSHR limits vs the default ROB-window MLP
// approximation, and an inclusive LLC vs the baseline non-inclusive
// hierarchy. This is an extension — the paper fixes both choices — but it
// bounds how sensitive the headline comparison is to them.
func FidelityAblation(p Params, w io.Writer) error {
	header(w, "extB", "EXTENSION: substrate fidelity ablation (16 cores)", p)
	const cores = 16
	specs := mainSpecs()
	variants := []struct {
		label string
		edit  func(*sim.Config)
	}{
		{"baseline (ROB-window MLP)", func(c *sim.Config) {}},
		{"strict MSHRs (8/16/64)", func(c *sim.Config) { c.ModelMSHRs = true }},
		{"inclusive LLC", func(c *sim.Config) { c.InclusiveLLC = true }},
	}
	fmt.Fprintf(w, "%-28s", "variant")
	for _, s := range specs {
		fmt.Fprintf(w, "  %-14s", s.DisplayName())
	}
	fmt.Fprintln(w)
	for _, v := range variants {
		cfg := p.config(cores)
		v.edit(&cfg)
		mixes := p.paperMixes(cfg, cores)
		mixes = mixes[:min2(p.Mixes, len(mixes))]
		sr, err := runSweep(cfg, mixes, specs, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-28s", v.label)
		for si := range specs {
			fmt.Fprintf(w, "  %+13.2f%%", pctOver(sr.geoNormWS(si)))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "reading: fidelity knobs interact strongly with policies — strict MSHRs put the")
	fmt.Fprintln(w, "system in a latency-bound regime where per-mix outcomes can reorder, and an")
	fmt.Fprintln(w, "inclusive LLC devastates aggressive dead-line eviction (back-invalidated")
	fmt.Fprintln(w, "L1-resident lines), which is precisely why the paper's baseline — like AMD's —")
	fmt.Fprintln(w, "is non-inclusive")
	return nil
}
