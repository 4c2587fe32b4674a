package sim

import (
	"fmt"
	"strings"
)

// Key returns a stable identity string for the configuration, covering
// every field that can influence a simulation's outcome. Store cell keys
// (api.CellKey) are built on it.
//
// Unlike a fmt %+v rendering, the key is explicit about optional fields:
// zero-valued DRAM/CPU/MSHR sub-configs are resolved to the defaults they
// select, so a config that spells out the defaults and one that leaves
// them zero — which simulate identically — share a cache entry, while the
// nested policy spec is keyed through Spec.Key (whose pointer fields %+v
// would render as addresses).
func (c Config) Key() string {
	var b strings.Builder
	d := c.dramConfig()
	u := c.cpuConfig()
	fmt.Fprintf(&b, "cores=%d|slice=%d/%d|l1=%d/%d|l2=%d/%d",
		c.Cores, c.SliceKB, c.LLCWays, c.L1KB, c.L1Ways, c.L2KB, c.L2Ways)
	fmt.Fprintf(&b, "|lat=%d,%d,%d|mesh=%d,%d|star=%d",
		c.L1Latency, c.L2Latency, c.LLCLatency, c.MeshPerHop, c.MeshRouter, c.StarLatency)
	fmt.Fprintf(&b, "|dram=%d,%d,%d,%d,%d,%d,%d",
		d.Channels, d.BanksPerCh, d.RowBytes, d.TRP, d.TRCD, d.TCAS, d.BurstCycles)
	fmt.Fprintf(&b, "|policy={%s}", c.Policy.Key())
	fmt.Fprintf(&b, "|pf=%s,%s", c.L1Prefetcher, c.L2Prefetcher)
	fmt.Fprintf(&b, "|instr=%d|warmup=%d", c.Instructions, c.Warmup)
	fmt.Fprintf(&b, "|cpu=%d,%d|seed=%d", u.IssueWidth, u.ROBSize, c.Seed)
	fmt.Fprintf(&b, "|track=%t|incl=%t", c.TrackPCSlices, c.InclusiveLLC)
	fmt.Fprintf(&b, "|mshr=%t,%d,%d,%d", c.ModelMSHRs, c.l1MSHRs(), c.l2MSHRs(), c.llcMSHRs())
	// TelemetryEpoch is keyed even though telemetry never changes results:
	// a store hit replays no epochs, so a telemetry-enabled run must
	// not be satisfied by a cached telemetry-off result (or vice versa).
	// The sink and tag are deliberately excluded — they don't affect what
	// is simulated, only where the epochs go. Phases is excluded for the
	// same reason: a phase observer measures wall time around existing
	// work and never changes the simulation. LaneWorkers is excluded too:
	// batched lanes merge at deterministic barriers, so every worker count
	// produces byte-identical results (pinned by the workers-sweep
	// determinism test) and a cached result is valid for all of them.
	fmt.Fprintf(&b, "|telem=%d", c.TelemetryEpoch)
	return b.String()
}
