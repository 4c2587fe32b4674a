package workload

import (
	"fmt"
	"strings"
)

// Key returns a stable identity string for the model: the name plus every
// generation parameter. Name alone is not enough for cache keys — the
// harness scales models per machine (Scale rewrites footprints and
// SetIndexBits while keeping the name), so two same-named models can
// generate different address streams.
func (m Model) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s|gap=%g|bits=%d", m.Name, m.Suite, m.MeanGap, m.SetIndexBits)
	// An explicit "geometric" simulates identically to the default, so
	// it keys identically too; only genuinely different gap processes
	// extend the key (keeping every pre-existing model key byte-stable).
	if m.GapDist != "" && m.GapDist != "geometric" {
		fmt.Fprintf(&b, "|gdist=%s,%g", m.GapDist, m.GapShape)
	}
	for _, st := range m.Streams {
		fmt.Fprintf(&b, "|s=%d,%g,%d,%d,%d,%g,%g,%d,%g,%d",
			st.Kind, st.Weight, st.FootprintKB, st.PCs, st.BlocksPerPC,
			st.WriteFrac, st.Skew, st.StrideBlk, st.HotSetFrac, st.HotSets)
	}
	return b.String()
}

// Key returns a stable identity string for the mix: its name plus the
// per-core model keys and generator seeds, so mixes that share a name but
// differ in population, scaling, or seeding never collide in the store.
func (m Mix) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mix=%s|cores=%d", m.Name, m.Cores())
	for c, mod := range m.Models {
		var seed uint64
		if c < len(m.Seeds) { // malformed mixes still key stably
			seed = m.Seeds[c]
		}
		switch src := m.sourceAt(c); {
		case src.Phased != nil:
			fmt.Fprintf(&b, "|c%d=ph{%s}@%d", c, src.Phased.Key(), seed)
		case src.Trace != nil:
			fmt.Fprintf(&b, "|c%d=tr{%s}@%d", c, src.Trace.Key(), seed)
		default:
			fmt.Fprintf(&b, "|c%d={%s}@%d", c, mod.Key(), seed)
		}
	}
	return b.String()
}

// Key returns a stable identity string for the phased model: the name,
// period, and every phase's full model key.
func (m PhasedModel) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "phased=%s|period=%d", m.Name, m.Period)
	for _, ph := range m.Phases {
		fmt.Fprintf(&b, "|p={%s}", ph.Key())
	}
	return b.String()
}
