package experiments

import (
	"fmt"
	"io"

	"drishti/internal/policies"
)

// Tab07Applicability reproduces Table 7: which policies each Drishti
// enhancement applies to, verified against the implementations in this
// repository (a policy row is "predictor ✓" iff its implementation routes
// through the fabric, and "DSC ✓" iff it consumes a SetSelector).
func Tab07Applicability(p Params, w io.Writer) error {
	header(w, "tab07", "applicability across replacement policies", p)
	fmt.Fprintf(w, "%-34s  %-22s  %-18s\n", "policy", "per-core global pred.", "dynamic sampled cache")
	rows := []struct {
		name string
		pred string
		dsc  string
	}{
		{"DIP / RRIP / IPV (memoryless)", "×", "✓ (set dueling)"},
		{"SDBP / SHiP / SHiP++ / Leeway", "✓", "✓"},
		{"Hawkeye / Mockingjay", "✓", "✓"},
		{"Perceptron / MPPPB / MDPP / CARE", "✓", "✓"},
		{"Glider / CHROME (learned)", "✓", "✓"},
		{"EVA (distribution-based)", "×", "×"},
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s  %-22s  %-18s\n", r.name, r.pred, r.dsc)
	}
	fmt.Fprintln(w, "implemented & runnable here: hawkeye, mockingjay, ship++, glider, chrome,")
	fmt.Fprintln(w, "  sdbp, leeway, perceptron (each ± drishti), d-dip (DSC-selected dueling sets),")
	fmt.Fprintln(w, "  and the lru/random/srrip/brrip/dip/ipv/eva baselines — see experiment extA")
	return nil
}

// Tab08OtherPolicies reproduces Table 8: Drishti applied to SHiP++, CHROME,
// and Glider on a 16-core system.
func Tab08OtherPolicies(p Params, w io.Writer) error {
	header(w, "tab08", "Drishti with SHiP++, CHROME, and Glider (16 cores)", p)
	const cores = 16
	cfg := p.config(cores)
	mixes := p.paperMixes(cfg, cores)
	specs := []policies.Spec{
		{Name: "ship++"},
		{Name: "ship++", Drishti: true},
		{Name: "chrome"},
		{Name: "chrome", Drishti: true},
		{Name: "glider"},
		{Name: "glider", Drishti: true},
	}
	sr, err := runSweep(cfg, mixes, specs, p)
	if err != nil {
		return err
	}
	for si, spec := range specs {
		fmt.Fprintf(w, "%-12s normWS=%.4f (%+.2f%%)\n", spec.DisplayName(), sr.geoNormWS(si), pctOver(sr.geoNormWS(si)))
	}
	fmt.Fprintln(w, "paper: ship++ 1.03→1.08, chrome 1.06→1.13, glider 1.03→1.06")
	return nil
}
