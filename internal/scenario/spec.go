// Package scenario is the declarative experiment layer: versioned,
// strict-decoded YAML/JSON scenario specs that compile into the existing
// workload.Mix / sim.Config machinery. One spec file describes a whole
// experiment — a multi-client workload (named registry presets, parametric
// models, phase schedules, or CSV trace replay, with per-client
// arrival/burst shaping) plus a sweep block of policies × machine
// configurations — and is accepted everywhere a Go-constructed sweep is:
// drishti-sim -scenario, drishti-bench -scenario, the job API's scenario
// field, and fleet decompose.
//
// Compiled scenarios join the content-address chain: every run resolves to
// the same sim.Config.Key()/workload.Mix.Key() pair a hand-built sweep
// produces, so the result store and fleet dedup treat a
// spec-submitted job and its Go-constructed twin as the same work.
package scenario

import (
	"fmt"
	"strings"

	"drishti/internal/policies"
)

// Version is the current scenario-spec schema generation. Specs carry it
// explicitly (`version: 1`) so a future schema change cannot silently
// reinterpret committed files.
const Version = 1

// MaxCores bounds scenario machines; above the job API's 128-core sweep
// ceiling to cover the 128–256-core datacenter mixes scenarios target.
const MaxCores = 256

// Spec is the root of a scenario file.
type Spec struct {
	Version int    `json:"version"`
	Name    string `json:"name"`
	// Seed is the experiment seed (default 1); per-client seeds derive
	// from it unless a client pins its own.
	Seed    uint64       `json:"seed,omitempty"`
	Machine MachineSpec  `json:"machine"`
	Clients []ClientSpec `json:"clients"`
	Sweep   SweepSpec    `json:"sweep"`
}

// MachineSpec is the base simulated machine; sweep configs override
// individual fields.
type MachineSpec struct {
	Cores        int    `json:"cores"`
	Scale        int    `json:"scale,omitempty"`        // default 8
	Instructions uint64 `json:"instructions,omitempty"` // default 200000
	Warmup       uint64 `json:"warmup,omitempty"`       // default 50000
}

// ClientSpec is one tenant of the machine: a workload source pinned to an
// explicit core count or a fraction of the machine. Exactly one client may
// omit both and takes the remaining cores.
type ClientSpec struct {
	Name     string  `json:"name"`
	Cores    int     `json:"cores,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	// Seed overrides the derived per-client seed (spec seed + client
	// index spacing) when non-zero.
	Seed     uint64       `json:"seed,omitempty"`
	Workload SourceSpec   `json:"workload"`
	Arrival  *ArrivalSpec `json:"arrival,omitempty"`
}

// SourceSpec selects the client's stream source; exactly one field set.
type SourceSpec struct {
	// Preset names a registry model (exact name first, then substring,
	// over SPEC/GAP then CVP1/Cloud/XSBench).
	Preset string `json:"preset,omitempty"`
	// Model declares a parametric model inline.
	Model *ModelSpec `json:"model,omitempty"`
	// Phases alternates component sources on a fixed period
	// (workload.PhasedModel).
	Phases *PhasesSpec `json:"phases,omitempty"`
	// Trace replays a CSV record stream (trace.ReadCSV format).
	Trace *TraceSpec `json:"trace,omitempty"`
}

func (s SourceSpec) count() int {
	n := 0
	if s.Preset != "" {
		n++
	}
	if s.Model != nil {
		n++
	}
	if s.Phases != nil {
		n++
	}
	if s.Trace != nil {
		n++
	}
	return n
}

// ModelSpec is a parametric workload model. Footprints are full-size; the
// machine scale shrinks them exactly as it does registry presets.
type ModelSpec struct {
	Name    string       `json:"name,omitempty"` // default: the client name
	MeanGap float64      `json:"meanGap"`
	Streams []StreamSpec `json:"streams"`
}

// StreamSpec mirrors workload.StreamSpec with a named kind.
type StreamSpec struct {
	Kind        string  `json:"kind"` // seq | loop | chase | gather | narrow
	Weight      float64 `json:"weight"`
	FootprintKB int     `json:"footprintKB"`
	PCs         int     `json:"pcs"`
	BlocksPerPC int     `json:"blocksPerPC,omitempty"`
	WriteFrac   float64 `json:"writeFrac,omitempty"`
	Skew        float64 `json:"skew,omitempty"`
	StrideBlk   int     `json:"strideBlk,omitempty"`
	HotSetFrac  float64 `json:"hotSetFrac,omitempty"`
	HotSets     int     `json:"hotSets,omitempty"`
}

// PhasesSpec is a phase schedule: the component sources (preset or model
// only) alternate every Period memory records.
type PhasesSpec struct {
	Period uint64       `json:"period"`
	Of     []SourceSpec `json:"of"`
}

// TraceSpec is a CSV trace replay source ("pc,addr,write,gap" header,
// looping when shorter than the run). File paths resolve relative to the
// spec file and are CLI-only; wire submissions must inline the CSV.
type TraceSpec struct {
	Name string `json:"name,omitempty"` // default: client name (csv) or file base name
	File string `json:"file,omitempty"`
	CSV  string `json:"csv,omitempty"`
}

// ArrivalSpec layers an inter-access gap process over the client's model
// source (not applicable to trace replay, which carries its own gaps).
type ArrivalSpec struct {
	Process string `json:"process"` // geometric | poisson | gamma | weibull
	// MeanGap overrides the model's mean gap when > 0.
	MeanGap float64 `json:"meanGap,omitempty"`
	// Shape is the gamma/weibull shape parameter k (< 1 = heavy-tailed
	// bursts).
	Shape float64 `json:"shape,omitempty"`
}

// SweepSpec spans the experiment grid: every config × every policy.
// Empty blocks default to the base machine under plain LRU.
type SweepSpec struct {
	Policies []PolicySpec `json:"policies,omitempty"`
	Configs  []ConfigSpec `json:"configs,omitempty"`
}

// PolicySpec selects one replacement-policy stack.
type PolicySpec struct {
	Name    string `json:"name"`
	Drishti bool   `json:"drishti,omitempty"`
}

// ConfigSpec overrides base machine fields for one sweep run; zero fields
// inherit the machine block.
type ConfigSpec struct {
	Name         string `json:"name,omitempty"`
	Cores        int    `json:"cores,omitempty"`
	Scale        int    `json:"scale,omitempty"`
	Instructions uint64 `json:"instructions,omitempty"`
	Warmup       uint64 `json:"warmup,omitempty"`
}

// WithDefaults resolves zero values to the harness-scale defaults the job
// API uses. Compile applies it internally, so callers holding a raw spec
// and callers holding a defaulted one compile to identical runs.
func (s Spec) WithDefaults() Spec {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Machine.Scale == 0 {
		s.Machine.Scale = 8
	}
	if s.Machine.Instructions == 0 {
		s.Machine.Instructions = 200_000
	}
	if s.Machine.Warmup == 0 {
		s.Machine.Warmup = 50_000
	}
	if len(s.Sweep.Policies) == 0 {
		s.Sweep.Policies = []PolicySpec{{Name: "lru"}}
	}
	if len(s.Sweep.Configs) == 0 {
		s.Sweep.Configs = []ConfigSpec{{}}
	}
	return s
}

// validName restricts names that feed content-address keys and mix names
// to a charset that cannot collide with the keys' delimiters.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// Validate reports structural errors in the spec. It checks everything
// that does not require resolving sources (Compile covers preset lookup,
// trace loading, and per-config core allocation).
func (s Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("scenario: version %d not supported (current: %d)", s.Version, Version)
	}
	if !validName(s.Name) {
		return fmt.Errorf("scenario: name %q must be non-empty [a-zA-Z0-9._-]", s.Name)
	}
	if s.Machine.Cores <= 0 || s.Machine.Cores > MaxCores {
		return fmt.Errorf("scenario: machine cores must be in [1,%d], got %d", MaxCores, s.Machine.Cores)
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("scenario: at least one client is required")
	}
	rest := -1
	for i, cl := range s.Clients {
		if !validName(cl.Name) {
			return fmt.Errorf("scenario: client %d name %q must be non-empty [a-zA-Z0-9._-]", i, cl.Name)
		}
		if cl.Cores < 0 || cl.Cores > MaxCores {
			return fmt.Errorf("scenario: client %s cores out of range", cl.Name)
		}
		if cl.Fraction < 0 || cl.Fraction > 1 {
			return fmt.Errorf("scenario: client %s fraction must be in (0,1]", cl.Name)
		}
		if cl.Cores > 0 && cl.Fraction > 0 {
			return fmt.Errorf("scenario: client %s sets both cores and fraction", cl.Name)
		}
		if cl.Cores == 0 && cl.Fraction == 0 {
			if rest >= 0 {
				return fmt.Errorf("scenario: clients %s and %s both omit cores/fraction; at most one client may take the rest",
					s.Clients[rest].Name, cl.Name)
			}
			rest = i
		}
		if err := cl.Workload.validate(cl.Name, true); err != nil {
			return err
		}
		if cl.Arrival != nil {
			if cl.Workload.Trace != nil {
				return fmt.Errorf("scenario: client %s: arrival shaping does not apply to trace replay (traces carry their own gaps)", cl.Name)
			}
			if err := cl.Arrival.validate(cl.Name); err != nil {
				return err
			}
		}
	}
	known := policies.KnownPolicies()
	for _, p := range s.Sweep.Policies {
		ok := false
		for _, k := range known {
			if p.Name == k {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("scenario: unknown policy %q; known policies:\n  %s", p.Name, strings.Join(known, "\n  "))
		}
	}
	for i, c := range s.Sweep.Configs {
		if c.Name != "" && !validName(c.Name) {
			return fmt.Errorf("scenario: sweep config %d name %q must be [a-zA-Z0-9._-]", i, c.Name)
		}
		if c.Cores < 0 || c.Cores > MaxCores {
			return fmt.Errorf("scenario: sweep config %d cores must be in [1,%d]", i, MaxCores)
		}
		if c.Scale < 0 {
			return fmt.Errorf("scenario: sweep config %d has negative scale", i)
		}
	}
	return nil
}

// validate checks one source spec. Phase components recurse with
// nested=false: a phase may only be a preset or an inline model.
func (s SourceSpec) validate(client string, topLevel bool) error {
	switch n := s.count(); {
	case n == 0:
		return fmt.Errorf("scenario: client %s: workload needs one of preset/model/phases/trace", client)
	case n > 1:
		return fmt.Errorf("scenario: client %s: workload sets %d of preset/model/phases/trace; exactly one allowed", client, n)
	}
	if s.Model != nil {
		if err := s.Model.validate(client); err != nil {
			return err
		}
	}
	if s.Phases != nil {
		if !topLevel {
			return fmt.Errorf("scenario: client %s: phases cannot nest inside phases", client)
		}
		if s.Phases.Period == 0 {
			return fmt.Errorf("scenario: client %s: phases needs a non-zero period", client)
		}
		if len(s.Phases.Of) < 2 {
			return fmt.Errorf("scenario: client %s: phases needs at least two components", client)
		}
		for _, of := range s.Phases.Of {
			if of.Trace != nil {
				return fmt.Errorf("scenario: client %s: a phase component cannot be a trace", client)
			}
			if err := of.validate(client, false); err != nil {
				return err
			}
		}
	}
	if s.Trace != nil {
		set := 0
		if s.Trace.File != "" {
			set++
		}
		if s.Trace.CSV != "" {
			set++
		}
		if set != 1 {
			return fmt.Errorf("scenario: client %s: trace needs exactly one of file/csv", client)
		}
		if s.Trace.Name != "" && !validName(s.Trace.Name) {
			return fmt.Errorf("scenario: client %s: trace name %q must be [a-zA-Z0-9._-]", client, s.Trace.Name)
		}
	}
	return nil
}

func (m *ModelSpec) validate(client string) error {
	if m.Name != "" && !validName(m.Name) {
		return fmt.Errorf("scenario: client %s: model name %q must be [a-zA-Z0-9._-]", client, m.Name)
	}
	if len(m.Streams) == 0 {
		return fmt.Errorf("scenario: client %s: model has no streams", client)
	}
	for i, st := range m.Streams {
		if _, err := streamKind(st.Kind); err != nil {
			return fmt.Errorf("scenario: client %s stream %d: %w", client, i, err)
		}
	}
	// Numeric ranges are covered by workload.Model.Validate at compile.
	return nil
}

func (a *ArrivalSpec) validate(client string) error {
	switch a.Process {
	case "geometric", "poisson":
		if a.Shape != 0 {
			return fmt.Errorf("scenario: client %s: arrival process %q takes no shape", client, a.Process)
		}
	case "gamma", "weibull":
		if a.Shape <= 0 {
			return fmt.Errorf("scenario: client %s: arrival process %q needs shape > 0", client, a.Process)
		}
	default:
		return fmt.Errorf("scenario: client %s: unknown arrival process %q (geometric|poisson|gamma|weibull)", client, a.Process)
	}
	if a.MeanGap < 0 {
		return fmt.Errorf("scenario: client %s: arrival meanGap must be >= 0", client)
	}
	return nil
}
