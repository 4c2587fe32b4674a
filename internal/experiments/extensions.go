package experiments

import (
	"fmt"
	"io"

	"drishti/internal/policies"
)

// Scalability reproduces the paper's scalability paragraph (Section 5.3):
// D-Mockingjay vs Mockingjay on 64- and 128-core systems with
// proportionally larger sliced LLCs. The paper reports D-Mockingjay stays
// effective, gaining ≈1% over its 32-core advantage.
func Scalability(p Params, w io.Writer) error {
	header(w, "scal", "64/128-core scalability (Section 5.3 text)", p)
	specs := []policies.Spec{
		{Name: "mockingjay"},
		{Name: "mockingjay", Drishti: true},
	}
	for _, cores := range []int{32, 64, 128} {
		cfg := p.config(cores)
		// Larger machines at harness scale are expensive: trim the mix
		// count, keeping at least two of each category.
		mixes := p.paperMixes(cfg, cores)
		limit := min2(len(mixes), 4)
		mixes = mixes[:limit]
		sr, err := runSweep(cfg, mixes, specs, p)
		if err != nil {
			return err
		}
		m, dm := sr.geoNormWS(0), sr.geoNormWS(1)
		fmt.Fprintf(w, "%3d cores  mockingjay=%+.2f%%  d-mockingjay=%+.2f%%  (delta %+.2f pts)\n",
			cores, pctOver(m), pctOver(dm), (dm-m)*100)
	}
	fmt.Fprintln(w, "paper shape: the D-Mockingjay advantage persists (and grows ≈1%) at 64/128 cores")
	return nil
}

// ExtApplicability extends Table 8 beyond the paper: Drishti applied to the
// other prediction-based policies this repository implements (SDBP, Leeway,
// perceptron reuse prediction) plus the dynamic-sampled-cache-only variant
// of DIP from Table 7's memoryless row. This experiment is an extension —
// the paper reports these rows qualitatively (Table 7) but does not measure
// them.
func ExtApplicability(p Params, w io.Writer) error {
	header(w, "extA", "EXTENSION: Drishti across the remaining Table 7 policies (16 cores)", p)
	const cores = 16
	cfg := p.config(cores)
	mixes := p.paperMixes(cfg, cores)
	specs := []policies.Spec{
		{Name: "dip"},
		{Name: "dip", Drishti: true}, // DSC-selected dueling sets only
		{Name: "sdbp"},
		{Name: "sdbp", Drishti: true},
		{Name: "leeway"},
		{Name: "leeway", Drishti: true},
		{Name: "perceptron"},
		{Name: "perceptron", Drishti: true},
		{Name: "ipv"},
		{Name: "eva"},
	}
	sr, err := runSweep(cfg, mixes, specs, p)
	if err != nil {
		return err
	}
	for si, spec := range specs {
		fmt.Fprintf(w, "%-14s normWS=%.4f (%+.2f%%)\n",
			spec.DisplayName(), sr.geoNormWS(si), pctOver(sr.geoNormWS(si)))
	}
	fmt.Fprintln(w, "expected shape: each D- variant at or above its base; eva/ipv are no-enhancement baselines")
	return nil
}
