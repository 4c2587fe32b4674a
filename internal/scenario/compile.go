package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"drishti/internal/policies"
	"drishti/internal/sim"
	"drishti/internal/stats"
	"drishti/internal/trace"
	"drishti/internal/workload"
)

// Run is one compiled sweep run: a machine configuration (policy unset;
// executors stamp one per cell) over the scenario's mix materialized for
// that machine.
type Run struct {
	Name string
	Cfg  sim.Config
	Mix  workload.Mix
}

// Compiled is a fully resolved scenario: the defaulted spec, one Run per
// sweep config, and the policy list. The grid an executor walks is
// Runs × Policies, in that nesting order — the same order the job
// service and fleet use for plain requests.
type Compiled struct {
	Spec     Spec
	Runs     []Run
	Policies []policies.Spec
}

// Compile resolves the spec into runnable form. baseDir anchors relative
// trace file paths (the directory of the spec file); pass "" in contexts
// without a filesystem anchor — wire submissions — where file-based
// traces are rejected and inline CSV is required.
func (s Spec) Compile(baseDir string) (*Compiled, error) {
	s = s.WithDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	out := &Compiled{Spec: s}
	for _, p := range s.Sweep.Policies {
		out.Policies = append(out.Policies, policies.Spec{Name: p.Name, Drishti: p.Drishti})
	}
	for ci, cs := range s.Sweep.Configs {
		m := s.Machine
		if cs.Cores > 0 {
			m.Cores = cs.Cores
		}
		if cs.Scale > 0 {
			m.Scale = cs.Scale
		}
		if cs.Instructions > 0 {
			m.Instructions = cs.Instructions
		}
		if cs.Warmup > 0 {
			m.Warmup = cs.Warmup
		}
		cfg := sim.ScaledConfig(m.Cores, m.Scale)
		cfg.Instructions = m.Instructions
		cfg.Warmup = m.Warmup
		cfg.Seed = s.Seed
		mix, err := s.compileMix(m, cfg.SetIndexBits(), baseDir)
		if err != nil {
			return nil, err
		}
		name := cs.Name
		if name == "" {
			if cs == (ConfigSpec{}) {
				name = "base"
			} else {
				name = fmt.Sprintf("cfg%d-%dc", ci, m.Cores)
			}
		}
		out.Runs = append(out.Runs, Run{Name: name, Cfg: cfg, Mix: mix})
	}
	return out, nil
}

// Key returns the scenario's content address: the spec identity plus
// every run's exact sim.Config / workload.Mix keys and every policy key.
// Two scenarios with equal keys describe the same set of simulations, so
// store and fleet dedup work across spec submissions unchanged.
func (c *Compiled) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scn=%s|v=%d|seed=%d", c.Spec.Name, c.Spec.Version, c.Spec.Seed)
	for _, r := range c.Runs {
		fmt.Fprintf(&b, "|run=%s{%s|%s}", r.Name, r.Cfg.Key(), r.Mix.Key())
	}
	for _, p := range c.Policies {
		fmt.Fprintf(&b, "|p={%s}", p.Key())
	}
	return b.String()
}

// Key compiles the spec (inline sources only) and returns its content
// address.
func (s Spec) Key() (string, error) {
	c, err := s.Compile("")
	if err != nil {
		return "", err
	}
	return c.Key(), nil
}

// allocate distributes cores cores over the clients: explicit counts
// first, then floors of fractions, with the single rest-client (if any)
// taking the remainder. The sum must cover the machine exactly.
func (s Spec) allocate(cores int) ([]int, error) {
	counts := make([]int, len(s.Clients))
	rest, used := -1, 0
	for i, cl := range s.Clients {
		switch {
		case cl.Cores > 0:
			counts[i] = cl.Cores
		case cl.Fraction > 0:
			counts[i] = int(cl.Fraction * float64(cores))
		default:
			rest = i
		}
		used += counts[i]
	}
	if rest >= 0 {
		counts[rest] = cores - used
		used = cores
	}
	if used != cores {
		return nil, fmt.Errorf("scenario: %s: clients cover %d of %d cores (add a rest client or adjust counts)", s.Name, used, cores)
	}
	for i, n := range counts {
		if n <= 0 {
			return nil, fmt.Errorf("scenario: %s: client %s gets %d cores on a %d-core machine", s.Name, s.Clients[i].Name, n, cores)
		}
	}
	return counts, nil
}

// builtClient is one client's resolved source, shared by all its cores.
type builtClient struct {
	model  workload.Model  // the core's model, or a display placeholder
	source workload.Source // zero for plain model clients
}

func (b builtClient) active() bool { return b.source.Phased != nil || b.source.Trace != nil }

// compileMix materializes the scenario's clients for one machine. A
// single plain-model client spanning the whole machine compiles to
// exactly workload.Homogeneous(model, cores, seed) — same mix name, same
// per-core seed chain — so such a spec shares content addresses (and
// therefore store entries) with the equivalent plain job request.
func (s Spec) compileMix(m MachineSpec, setBits int, baseDir string) (workload.Mix, error) {
	counts, err := s.allocate(m.Cores)
	if err != nil {
		return workload.Mix{}, err
	}
	built := make([]builtClient, len(s.Clients))
	hasSources := false
	for i, cl := range s.Clients {
		b, err := s.buildClient(cl, m.Scale, setBits, baseDir)
		if err != nil {
			return workload.Mix{}, err
		}
		built[i] = b
		if b.active() {
			hasSources = true
		}
	}
	mix := workload.Mix{Name: "scn-" + s.Name}
	if len(s.Clients) == 1 && !hasSources {
		mix.Name = "homo-" + built[0].model.Name
	}
	for i, cl := range s.Clients {
		seed := cl.Seed
		if seed == 0 {
			// Same spacing HomogeneousMixes uses between mixes, so
			// client 0 with the spec seed matches Homogeneous exactly.
			seed = s.Seed + uint64(i)*7919
		}
		for k := 0; k < counts[i]; k++ {
			mix.Models = append(mix.Models, built[i].model)
			mix.Seeds = append(mix.Seeds, stats.Mix64(seed+uint64(k)*1_000_003))
			if hasSources {
				mix.Sources = append(mix.Sources, built[i].source)
			}
		}
	}
	if err := mix.Validate(); err != nil {
		return workload.Mix{}, err
	}
	return mix, nil
}

// buildClient resolves one client's source for a machine scale.
func (s Spec) buildClient(cl ClientSpec, scale, setBits int, baseDir string) (builtClient, error) {
	w := cl.Workload
	switch {
	case w.Preset != "":
		m, err := lookupPreset(w.Preset, scale, setBits)
		if err != nil {
			return builtClient{}, fmt.Errorf("scenario: client %s: %w", cl.Name, err)
		}
		return builtClient{model: applyArrival(m, cl.Arrival)}, nil
	case w.Model != nil:
		m, err := w.Model.build(cl.Name)
		if err != nil {
			return builtClient{}, err
		}
		return builtClient{model: applyArrival(m.Scale(scale, setBits), cl.Arrival)}, nil
	case w.Phases != nil:
		pm := workload.PhasedModel{Name: cl.Name, Period: w.Phases.Period}
		for pi, of := range w.Phases.Of {
			var (
				ph  workload.Model
				err error
			)
			switch {
			case of.Preset != "":
				ph, err = lookupPreset(of.Preset, scale, setBits)
				if err != nil {
					err = fmt.Errorf("scenario: client %s phase %d: %w", cl.Name, pi, err)
				}
			case of.Model != nil:
				ph, err = of.Model.build(fmt.Sprintf("%s-phase%d", cl.Name, pi))
				ph = ph.Scale(scale, setBits)
			default: // rejected by Validate
				err = fmt.Errorf("scenario: client %s phase %d has no source", cl.Name, pi)
			}
			if err != nil {
				return builtClient{}, err
			}
			pm.Phases = append(pm.Phases, applyArrival(ph, cl.Arrival))
		}
		return builtClient{
			model:  workload.Model{Name: "phased-" + cl.Name},
			source: workload.Source{Phased: &pm},
		}, nil
	case w.Trace != nil:
		td, err := loadTrace(w.Trace, cl.Name, baseDir)
		if err != nil {
			return builtClient{}, err
		}
		return builtClient{
			model:  workload.Model{Name: "trace-" + td.Name},
			source: workload.Source{Trace: td},
		}, nil
	}
	return builtClient{}, fmt.Errorf("scenario: client %s: workload needs one of preset/model/phases/trace", cl.Name)
}

// lookupPreset resolves a registry preset at the given machine scale:
// exact name first (a fully-qualified name can never be shadowed), then
// substring in registry order — SPEC/GAP before CVP1/Cloud/XSBench, the
// same first-match rule the job API and drishti-sim use.
func lookupPreset(name string, scale, setBits int) (workload.Model, error) {
	full := append(workload.AllSPECGAP(), workload.Fig19Models()...)
	pop := workload.ScaleAll(full, scale, setBits)
	for _, m := range pop {
		if m.Name == name {
			return m, nil
		}
	}
	for _, m := range pop {
		if strings.Contains(m.Name, name) {
			return m, nil
		}
	}
	return workload.Model{}, fmt.Errorf("no workload preset matching %q; known presets:\n  %s",
		name, strings.Join(workload.Names(full), "\n  "))
}

// applyArrival layers the client's gap process onto a compiled model.
func applyArrival(m workload.Model, a *ArrivalSpec) workload.Model {
	if a == nil {
		return m
	}
	m.GapDist = a.Process
	m.GapShape = a.Shape
	if a.MeanGap > 0 {
		m.MeanGap = a.MeanGap
	}
	return m
}

// streamKind maps a spec kind name to the workload enum.
func streamKind(name string) (workload.StreamKind, error) {
	switch name {
	case "seq", "sequential":
		return workload.Sequential, nil
	case "loop":
		return workload.Loop, nil
	case "chase":
		return workload.Chase, nil
	case "gather":
		return workload.Gather, nil
	case "narrow":
		return workload.Narrow, nil
	}
	return 0, fmt.Errorf("unknown stream kind %q (seq|loop|chase|gather|narrow)", name)
}

// build converts the parametric model spec to a full-size workload.Model.
func (m *ModelSpec) build(client string) (workload.Model, error) {
	name := m.Name
	if name == "" {
		name = client
	}
	out := workload.Model{Name: name, Suite: "Scenario", MeanGap: m.MeanGap}
	for i, st := range m.Streams {
		kind, err := streamKind(st.Kind)
		if err != nil {
			return workload.Model{}, fmt.Errorf("scenario: client %s stream %d: %w", client, i, err)
		}
		out.Streams = append(out.Streams, workload.StreamSpec{
			Kind:        kind,
			Weight:      st.Weight,
			FootprintKB: st.FootprintKB,
			PCs:         st.PCs,
			BlocksPerPC: st.BlocksPerPC,
			WriteFrac:   st.WriteFrac,
			Skew:        st.Skew,
			StrideBlk:   st.StrideBlk,
			HotSetFrac:  st.HotSetFrac,
			HotSets:     st.HotSets,
		})
	}
	if err := out.Validate(); err != nil {
		return workload.Model{}, fmt.Errorf("scenario: client %s: %w", client, err)
	}
	return out, nil
}

// loadTrace materializes a trace source. Inline CSV is wire-portable;
// file paths need a baseDir anchor and are therefore CLI-only.
func loadTrace(t *TraceSpec, client, baseDir string) (*workload.TraceData, error) {
	name := t.Name
	switch {
	case t.CSV != "":
		if name == "" {
			name = client
		}
		recs, err := trace.ReadCSV(strings.NewReader(t.CSV))
		if err != nil {
			return nil, fmt.Errorf("scenario: client %s inline trace: %w", client, err)
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("scenario: client %s inline trace has no records", client)
		}
		return &workload.TraceData{Name: name, Recs: recs}, nil
	case t.File != "":
		if baseDir == "" {
			return nil, fmt.Errorf("scenario: client %s: trace file %q cannot be resolved here (inline the csv for wire submissions)", client, t.File)
		}
		path := t.File
		if !filepath.IsAbs(path) {
			path = filepath.Join(baseDir, path)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("scenario: client %s: %w", client, err)
		}
		defer f.Close()
		recs, err := trace.ReadCSV(f)
		if err != nil {
			return nil, fmt.Errorf("scenario: client %s trace %s: %w", client, path, err)
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("scenario: client %s trace %s has no records", client, path)
		}
		if name == "" {
			name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		}
		return &workload.TraceData{Name: name, Recs: recs}, nil
	}
	return nil, fmt.Errorf("scenario: client %s: trace needs exactly one of file/csv", client)
}
