// Package api is the versioned, self-describing wire schema of the drishti
// job service — the single definition of every JSON body that crosses a
// process boundary, consumed by the HTTP front end (internal/serve), the
// fleet coordinator and workers (internal/dist), and any external client.
//
// Keeping the schema in one package is what stops the wire format from
// drifting: the coordinator marshals exactly the structs the worker
// unmarshals, defaults are applied in exactly one place (WithDefaults), and
// every decoder rejects unknown fields (DecodeStrict) so a field added on
// one side cannot be silently dropped by the other.
//
// Versioning: Version is the schema generation. Requests may carry an
// explicit APIVersion; zero means "current" so that pre-versioning clients
// keep working, and WithDefaults deliberately does not stamp the field — a
// request echoed back by the service carries exactly the version the client
// sent, keeping /v1 responses byte-compatible with the unversioned wire
// format (pinned by the golden-file test in this package).
//
// # Migrating from v2 to v3
//
// v3 is a strict superset of v2 for job submission: every valid v2
// JobRequest (apiVersion 2 or 0) is still accepted, decodes to the same
// sweep, and echoes back byte-identically — the new fields are omitted
// when unset. Fleet messages (register/lease/complete and the new forward
// endpoints) require an exact version match as before, so workers must be
// rebuilt when the coordinator is upgraded. What v3 adds:
//
//   - Streamed per-cell results: GET /v1/jobs/{id}/results serves chunked
//     NDJSON (Content-Type application/x-ndjson), one ResultEvent per
//     line — "cell" events as each sweep cell resolves, in completion
//     order, then exactly one "done" event with the job's summary. The
//     buffered GET /v1/jobs/{id}/result endpoint is unchanged; clients
//     that want whole-sweep bytes keep using it.
//   - Multi-tenant queueing: JobRequest.Tenant names the submitting
//     tenant for per-tenant quota enforcement (429 + Retry-After once the
//     tenant's active-job quota is reached), and JobRequest.Priority
//     ("interactive" | "normal" | "batch", default "normal") selects the
//     queue class — higher classes are always dispatched first, FIFO
//     within a class.
//   - Stateless multi-coordinator fleets: coordinators forward sweep
//     cells they do not own (consistent hashing over CellKey) to the
//     owning peer via ForwardCellsRequest and get results back via
//     ForwardCompleteRequest; FleetStatus reports the coordinator ring
//     and forwarding counters.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"drishti/internal/obs/trace"
	"drishti/internal/policies"
	"drishti/internal/scenario"
	"drishti/internal/sim"
	"drishti/internal/workload"
)

// Version is the current wire-schema generation. Fleet messages carry it
// explicitly so a coordinator refuses workers built against another schema
// instead of mis-decoding their payloads.
//
// v2 added distributed tracing: JobView.TraceID, trace context on Lease,
// completed spans on CompleteRequest, and lease-latency/batch-lane
// telemetry on FleetStatus.
//
// v3 added streamed per-cell results (ResultEvent NDJSON on
// GET /v1/jobs/{id}/results), per-tenant quota and priority classes on
// JobRequest, and the multi-coordinator forwarding messages
// (ForwardCellsRequest/ForwardCompleteRequest). Job submission remains
// backward compatible: requests carrying apiVersion 2 (or 0) are still
// accepted.
const Version = 3

// CompatVersions lists the request schema generations Validate accepts
// for job submission. Fleet traffic still requires an exact match.
var CompatVersions = []int{2, Version}

// Priority classes for JobRequest.Priority. Higher classes are always
// dispatched before lower ones; jobs within a class run FIFO. An empty
// Priority means PriorityNormal.
const (
	PriorityInteractive = "interactive"
	PriorityNormal      = "normal"
	PriorityBatch       = "batch"
)

// PriorityRank orders priority classes for the queue: 0 is dispatched
// first. Unknown strings rank as normal (Validate rejects them at the
// boundary; internal callers get a sane default).
func PriorityRank(p string) int {
	switch p {
	case PriorityInteractive:
		return 0
	case PriorityBatch:
		return 2
	default:
		return 1
	}
}

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// PolicyRequest selects one replacement-policy stack.
type PolicyRequest struct {
	Name    string `json:"name"`
	Drishti bool   `json:"drishti,omitempty"`
}

// JobRequest is the JSON body of POST /v1/jobs: a sweep of one machine
// configuration over workloads × policies. A single simulation is the
// 1×1 special case. Fields mirror sim.Config / experiments.Params; zero
// values take the harness-scale defaults.
type JobRequest struct {
	// APIVersion pins the schema the client speaks. Zero means the
	// current version; anything else must match Version exactly.
	APIVersion int `json:"apiVersion,omitempty"`

	Cores        int    `json:"cores"`
	Scale        int    `json:"scale,omitempty"`        // default 8
	Instructions uint64 `json:"instructions,omitempty"` // default 200000
	Warmup       uint64 `json:"warmup,omitempty"`       // default 50000
	Seed         uint64 `json:"seed,omitempty"`         // default 1

	// Policies and Workloads span the sweep grid. Workload entries name
	// registry models (substring match, like drishti-sim -workload); each
	// becomes one homogeneous mix, or "hetero" for one heterogeneous mix
	// drawn from the whole population.
	Policies  []PolicyRequest `json:"policies"`
	Workloads []string        `json:"workloads"`

	// Scenario, when set, replaces Cores/Policies/Workloads with a
	// declarative scenario spec (internal/scenario): the sweep grid
	// becomes the spec's configs × policies, resolved by Grid/Cell like
	// any other request. Mutually exclusive with the fields above.
	// File-based trace sources are rejected at this boundary — a wire
	// submission must inline its CSV so every fleet node can rebuild the
	// cell without a shared filesystem.
	Scenario *scenario.Spec `json:"scenario,omitempty"`

	// TimeoutSec bounds the job's wall clock (0 = the service default).
	TimeoutSec int `json:"timeoutSec,omitempty"`

	// MaxRetries overrides the service's bounded retry budget for
	// transient failures (-1 = no retries, 0 = service default).
	MaxRetries int `json:"maxRetries,omitempty"`

	// Tenant names the submitting tenant (v3). The service enforces its
	// per-tenant active-job quota against this label; empty means the
	// anonymous tenant, which shares one bucket.
	Tenant string `json:"tenant,omitempty"`

	// Priority selects the queue class (v3): "interactive", "normal"
	// (default), or "batch". Higher classes are always dispatched first;
	// within a class, jobs run FIFO.
	Priority string `json:"priority,omitempty"`
}

// WithDefaults resolves zero values to harness-scale defaults. It is the
// only place defaults are applied: the service calls it once at submission,
// so every later consumer — executor, coordinator, worker — sees the same
// fully resolved request.
func (r JobRequest) WithDefaults() JobRequest {
	if r.Scenario != nil {
		// The spec carries its own defaults (scenario.WithDefaults,
		// applied inside Compile); leaving the request untouched keeps
		// the echoed request byte-identical to what the client sent.
		return r
	}
	if r.Scale == 0 {
		r.Scale = 8
	}
	if r.Instructions == 0 {
		r.Instructions = 200_000
	}
	if r.Warmup == 0 {
		r.Warmup = 50_000
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	return r
}

// Validate rejects malformed requests before they reach the queue.
func (r JobRequest) Validate() error {
	ok := r.APIVersion == 0
	for _, v := range CompatVersions {
		ok = ok || r.APIVersion == v
	}
	if !ok {
		return fmt.Errorf("apiVersion %d not supported (current: %d, accepted: %v)", r.APIVersion, Version, CompatVersions)
	}
	if err := r.validateTenancy(); err != nil {
		return err
	}
	if r.Scenario != nil {
		return r.validateScenario()
	}
	if r.Cores <= 0 || r.Cores > 128 {
		return fmt.Errorf("cores must be in [1,128], got %d", r.Cores)
	}
	if len(r.Policies) == 0 {
		return fmt.Errorf("at least one policy is required")
	}
	if len(r.Workloads) == 0 {
		return fmt.Errorf("at least one workload is required")
	}
	known := policies.KnownPolicies()
	for _, p := range r.Policies {
		ok := false
		for _, k := range known {
			if p.Name == k {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("unknown policy %q (known: %s)", p.Name, strings.Join(known, ", "))
		}
	}
	cfg := sim.ScaledConfig(r.Cores, max(r.Scale, 1))
	for _, w := range r.Workloads {
		if w == "hetero" {
			continue
		}
		if _, err := lookupModel(cfg, w, max(r.Scale, 1)); err != nil {
			return err
		}
	}
	if r.TimeoutSec < 0 {
		return fmt.Errorf("timeoutSec must be >= 0")
	}
	if r.Instructions > 100_000_000 {
		return fmt.Errorf("instructions above the 100M service ceiling")
	}
	return nil
}

// validateTenancy checks the v3 multi-tenant fields; both are optional.
func (r JobRequest) validateTenancy() error {
	if len(r.Tenant) > 64 {
		return fmt.Errorf("tenant longer than 64 bytes")
	}
	for _, c := range r.Tenant {
		if c <= ' ' || c == 0x7f {
			return fmt.Errorf("tenant contains whitespace or control characters")
		}
	}
	switch r.Priority {
	case "", PriorityInteractive, PriorityNormal, PriorityBatch:
		return nil
	default:
		return fmt.Errorf("priority %q unknown (accepted: %s, %s, %s)",
			r.Priority, PriorityInteractive, PriorityNormal, PriorityBatch)
	}
}

// validateScenario checks a scenario-bearing request: the spec fields are
// exclusive with the plain sweep fields, the spec must compile with inline
// sources only, and the compiled runs must respect the service ceilings.
func (r JobRequest) validateScenario() error {
	if r.Cores != 0 || len(r.Policies) != 0 || len(r.Workloads) != 0 {
		return fmt.Errorf("scenario jobs must not also set cores/policies/workloads")
	}
	c, err := r.Scenario.Compile("")
	if err != nil {
		return err
	}
	for _, run := range c.Runs {
		if run.Cfg.Instructions > 100_000_000 {
			return fmt.Errorf("scenario run %s: instructions above the 100M service ceiling", run.Name)
		}
	}
	if r.TimeoutSec < 0 {
		return fmt.Errorf("timeoutSec must be >= 0")
	}
	return nil
}

// compiled resolves the request's scenario with inline sources only (no
// filesystem anchor exists on the wire).
func (r JobRequest) compiled() (*scenario.Compiled, error) {
	return r.Scenario.Compile("")
}

// Grid returns the sweep grid dimensions: workload entries × policies for
// plain requests, runs × policies for scenario requests. Executors loop
// wi over [0,nw) and pi over [0,np) and resolve each cell via Cell.
func (r JobRequest) Grid() (nw, np int, err error) {
	if r.Scenario != nil {
		c, err := r.compiled()
		if err != nil {
			return 0, 0, err
		}
		return len(c.Runs), len(c.Policies), nil
	}
	return len(r.Workloads), len(r.Policies), nil
}

// WorkloadName labels workload entry wi for results and fleet status: the
// request's workload string, or "<scenario>/<run>" for scenario jobs.
// Out-of-range indices label stably rather than panic (results for such
// cells cannot exist).
func (r JobRequest) WorkloadName(wi int) string {
	if r.Scenario != nil {
		if c, err := r.compiled(); err == nil && wi >= 0 && wi < len(c.Runs) {
			return c.Spec.Name + "/" + c.Runs[wi].Name
		}
		return fmt.Sprintf("scenario[%d]", wi)
	}
	if wi >= 0 && wi < len(r.Workloads) {
		return r.Workloads[wi]
	}
	return fmt.Sprintf("workload[%d]", wi)
}

// lookupModel resolves a workload name (substring match) against the
// scaled model population, exactly like drishti-sim -workload.
func lookupModel(cfg sim.Config, name string, scale int) (workload.Model, error) {
	for _, m := range workload.ScaleAll(workload.AllSPECGAP(), scale, cfg.SetIndexBits()) {
		if strings.Contains(m.Name, name) {
			return m, nil
		}
	}
	return workload.Model{}, fmt.Errorf("no workload model matching %q", name)
}

// Config builds the simulated machine for the request (policy unset; the
// executor stamps one per cell). Scenario requests return the first run's
// machine; per-run machines come from Cell.
func (r JobRequest) Config() sim.Config {
	if r.Scenario != nil {
		if c, err := r.compiled(); err == nil && len(c.Runs) > 0 {
			return c.Runs[0].Cfg
		}
		return sim.Config{}
	}
	cfg := sim.ScaledConfig(r.Cores, r.Scale)
	cfg.Instructions = r.Instructions
	cfg.Warmup = r.Warmup
	cfg.Seed = r.Seed
	return cfg
}

// Mix materializes workload wi of the request as a scaled mix. Entries are
// independent, so materializing one is identical to taking Mixes()[wi].
func (r JobRequest) Mix(wi int) (workload.Mix, error) {
	if r.Scenario != nil {
		c, err := r.compiled()
		if err != nil {
			return workload.Mix{}, err
		}
		if wi < 0 || wi >= len(c.Runs) {
			return workload.Mix{}, fmt.Errorf("scenario run index %d out of range [0,%d)", wi, len(c.Runs))
		}
		return c.Runs[wi].Mix, nil
	}
	if wi < 0 || wi >= len(r.Workloads) {
		return workload.Mix{}, fmt.Errorf("workload index %d out of range [0,%d)", wi, len(r.Workloads))
	}
	cfg := r.Config()
	w := r.Workloads[wi]
	if w == "hetero" {
		models := workload.ScaleAll(workload.AllSPECGAP(), r.Scale, cfg.SetIndexBits())
		return workload.HeterogeneousMixes(models, r.Cores, 1, r.Seed)[0], nil
	}
	m, err := lookupModel(cfg, w, r.Scale)
	if err != nil {
		return workload.Mix{}, err
	}
	return workload.Homogeneous(m, r.Cores, r.Seed), nil
}

// Mixes materializes every workload entry as a scaled mix.
func (r JobRequest) Mixes() ([]workload.Mix, error) {
	nw, _, err := r.Grid()
	if err != nil {
		return nil, err
	}
	out := make([]workload.Mix, 0, nw)
	for wi := 0; wi < nw; wi++ {
		m, err := r.Mix(wi)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// Cell resolves sweep cell (wi, pi) — workload wi under policy pi — to the
// exact machine configuration and mix a worker must simulate. Coordinator
// and workers both call this, so a cell means the same simulation on every
// node of a fleet. Scenario requests resolve wi to the spec's runs and pi
// to the spec's sweep policies.
func (r JobRequest) Cell(wi, pi int) (sim.Config, workload.Mix, error) {
	if r.Scenario != nil {
		c, err := r.compiled()
		if err != nil {
			return sim.Config{}, workload.Mix{}, err
		}
		if wi < 0 || wi >= len(c.Runs) {
			return sim.Config{}, workload.Mix{}, fmt.Errorf("scenario run index %d out of range [0,%d)", wi, len(c.Runs))
		}
		if pi < 0 || pi >= len(c.Policies) {
			return sim.Config{}, workload.Mix{}, fmt.Errorf("policy index %d out of range [0,%d)", pi, len(c.Policies))
		}
		cfg := c.Runs[wi].Cfg
		cfg.Policy = c.Policies[pi]
		return cfg, c.Runs[wi].Mix, nil
	}
	if pi < 0 || pi >= len(r.Policies) {
		return sim.Config{}, workload.Mix{}, fmt.Errorf("policy index %d out of range [0,%d)", pi, len(r.Policies))
	}
	mix, err := r.Mix(wi)
	if err != nil {
		return sim.Config{}, workload.Mix{}, err
	}
	cfg := r.Config()
	p := r.Policies[pi]
	cfg.Policy = policies.Spec{Name: p.Name, Drishti: p.Drishti}
	return cfg, mix, nil
}

// CellKey is the content-address of one simulation cell in the durable
// store: the explicit Key() builders joined, shared by the single-node
// executor, the coordinator, and every worker.
func CellKey(cfg sim.Config, mix workload.Mix) string {
	return cfg.Key() + "|" + mix.Key()
}

// AloneCellKey is the content-address of core's alone run on cfg's
// machine (sim.Variant Alone semantics): the cell's CellKey plus the core
// index. The experiment harness stores its per-core alone calibration
// (run under LRU) under it.
func AloneCellKey(cfg sim.Config, mix workload.Mix, core int) string {
	return fmt.Sprintf("%s|alone=%d", CellKey(cfg, mix), core)
}

// CellResult is one (workload, policy) simulation inside a job.
type CellResult struct {
	Policy    string      `json:"policy"`
	Workload  string      `json:"workload"`
	Mix       string      `json:"mix"`
	FromStore bool        `json:"fromStore"` // served from the durable store
	IPCSum    float64     `json:"ipcSum"`
	MPKI      float64     `json:"mpki"`
	WPKI      float64     `json:"wpki"`
	APKI      float64     `json:"apki"`
	Result    *sim.Result `json:"result,omitempty"`
}

// JobResult is what GET /v1/jobs/{id}/result returns for a done job.
type JobResult struct {
	Cells       []CellResult `json:"cells"`
	StoreHits   int          `json:"storeHits"`
	StoreMisses int          `json:"storeMisses"`
	ElapsedMS   int64        `json:"elapsedMs"`
}

// ResultEvent is one NDJSON line of the v3 streaming results endpoint,
// GET /v1/jobs/{id}/results (Content-Type: application/x-ndjson). The
// stream carries one "cell" event per sweep cell as it resolves — in
// completion order, each index exactly once, even across job retries —
// followed by exactly one "done" event summarizing the job. Clients that
// want the whole sweep in deterministic cell order keep using the
// buffered GET /v1/jobs/{id}/result.
type ResultEvent struct {
	// Event is "cell" (one resolved sweep cell) or "done" (terminal
	// summary; always the last line).
	Event string `json:"event"`

	// Cell events: Index is the cell's position in the job's
	// deterministic cell order (omitted when zero — Cell non-nil marks a
	// cell event), Cell the resolved result.
	Index int         `json:"index,omitempty"`
	Cell  *CellResult `json:"cell,omitempty"`

	// Done events: the job's terminal status, its error when failed, and
	// the JobResult summary when one exists.
	Status      Status `json:"status,omitempty"`
	Error       string `json:"error,omitempty"`
	Cells       int    `json:"cells,omitempty"`
	StoreHits   int    `json:"storeHits,omitempty"`
	StoreMisses int    `json:"storeMisses,omitempty"`
	ElapsedMS   int64  `json:"elapsedMs,omitempty"`
}

// EventCell and EventDone are the ResultEvent.Event values.
const (
	EventCell = "cell"
	EventDone = "done"
)

// JobView is the wire form of a job's status (result elided).
type JobView struct {
	ID         string     `json:"id"`
	Status     Status     `json:"status"`
	Error      string     `json:"error,omitempty"`
	Attempts   int        `json:"attempts"`
	EnqueuedAt time.Time  `json:"enqueuedAt"`
	StartedAt  *time.Time `json:"startedAt,omitempty"`
	FinishedAt *time.Time `json:"finishedAt,omitempty"`
	Request    JobRequest `json:"request"`
	// TraceID identifies the job's distributed trace; fetch the span
	// tree via GET /v1/jobs/{id}/trace. Empty when tracing is disabled.
	TraceID string `json:"traceId,omitempty"`
}

// TraceView is GET /v1/jobs/{id}/trace: every span collected so far for
// one job's trace (the tree is complete once the job is done and all
// workers' completions have arrived).
type TraceView struct {
	TraceID string       `json:"traceId"`
	Spans   []trace.Span `json:"spans"`
}

// Error is the JSON error envelope every endpoint returns on failure.
type Error struct {
	Error string `json:"error"`
}

// DecodeStrict decodes one JSON value from r into v, rejecting unknown
// fields and trailing garbage. Every process boundary uses it, so a schema
// mismatch surfaces as an explicit decode error on the receiving side
// instead of a silently dropped field.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}
