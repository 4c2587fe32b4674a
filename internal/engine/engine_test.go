package engine

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"drishti/internal/obs"
	"drishti/internal/policies"
	"drishti/internal/serve/api"
	"drishti/internal/sim"
	"drishti/internal/store"
	"drishti/internal/workload"
)

// fixture is a small 2-core machine and one scaled homogeneous mix.
func fixture() (sim.Config, workload.Mix) {
	cfg := sim.ScaledConfig(2, 8)
	cfg.Instructions, cfg.Warmup, cfg.Seed = 10_000, 2_500, 1
	m := workload.AllSPECGAP()[0].Scale(8, cfg.SetIndexBits())
	return cfg, workload.Homogeneous(m, 2, 1)
}

// groupCells builds alone cells for every core followed by one cell per
// policy, the harness's lane order.
func groupCells(cfg sim.Config, mix workload.Mix, names ...string) []Cell {
	var cells []Cell
	lru := cfg
	lru.Policy = policies.Spec{Name: "lru"}
	for c := 0; c < cfg.Cores; c++ {
		cells = append(cells, Cell{Key: api.AloneCellKey(lru, mix, c), Config: lru, Mix: mix, Alone: true, AloneCore: c})
	}
	for _, n := range names {
		c := cfg
		c.Policy = policies.Spec{Name: n}
		cells = append(cells, Cell{Key: api.CellKey(c, mix), Config: c, Mix: mix})
	}
	return cells
}

func jsonOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunMatchesDirectBatch: alone and mix cells resolved as one group
// equal a direct sim.RunBatchContext of the same lanes byte for byte, and
// a second resolution of the group is served from the store without
// simulating (Puts unchanged) and with the same bytes.
func TestRunMatchesDirectBatch(t *testing.T) {
	cfg, mix := fixture()
	cells := groupCells(cfg, mix, "lru", "srrip")
	vars := make([]sim.Variant, len(cells))
	for i, c := range cells {
		vars[i] = sim.Variant{Policy: c.Config.Policy, Alone: c.Alone, AloneCore: c.AloneCore}
	}
	direct, err := sim.RunBatchContext(context.Background(), cfg, vars, mix)
	if err != nil {
		t.Fatal(err)
	}

	st := store.OpenBackend(store.NewMem())
	got, fromStore, err := Run(context.Background(), st, obs.Discard(), nil, cells, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if fromStore[i] {
			t.Errorf("cell %d served from an empty store", i)
		}
		if jsonOf(t, got[i]) != jsonOf(t, direct[i]) {
			t.Errorf("cell %d differs from the direct batch lane", i)
		}
	}
	if puts := st.Stats().Puts; puts != uint64(len(cells)) {
		t.Fatalf("%d puts, want %d", puts, len(cells))
	}

	again, fromStore, err := Run(context.Background(), st, obs.Discard(), nil, cells, 1)
	if err != nil {
		t.Fatal(err)
	}
	if puts := st.Stats().Puts; puts != uint64(len(cells)) {
		t.Errorf("all-hits group wrote %d more entries", puts-uint64(len(cells)))
	}
	for i := range cells {
		if !fromStore[i] {
			t.Errorf("cell %d not served from the store", i)
		}
		if jsonOf(t, again[i]) != jsonOf(t, direct[i]) {
			t.Errorf("cell %d served from the store differs from its run", i)
		}
	}
}

// TestRunRejectsForeignCell: a cell of another batch group (here another
// core count) fails the whole group: nothing runs and nothing is stored.
func TestRunRejectsForeignCell(t *testing.T) {
	cfg, mix := fixture()
	cells := groupCells(cfg, mix, "lru")
	other := sim.ScaledConfig(4, 8)
	other.Instructions, other.Warmup, other.Seed = cfg.Instructions, cfg.Warmup, cfg.Seed
	other.Policy = policies.Spec{Name: "lru"}
	omix := workload.Homogeneous(mix.Models[0], 4, 1)
	cells = append(cells, Cell{Key: api.CellKey(other, omix), Config: other, Mix: omix})

	st := store.OpenBackend(store.NewMem())
	_, _, err := Run(context.Background(), st, obs.Discard(), nil, cells, 1)
	if err == nil || !strings.Contains(err.Error(), "not in the batch group") {
		t.Fatalf("got %v, want a batch-group error", err)
	}
	if puts := st.Stats().Puts; puts != 0 {
		t.Fatalf("rejected group wrote %d store entries", puts)
	}
}

// epochLog is a concurrency-safe EpochSink that keeps every epoch.
type epochLog struct {
	mu     sync.Mutex
	epochs []obs.Epoch
}

func (l *epochLog) WriteEpoch(e *obs.Epoch) error {
	l.mu.Lock()
	l.epochs = append(l.epochs, *e)
	l.mu.Unlock()
	return nil
}

// TestRunTagsEpochs: with a sink on the config every lane's epochs carry
// its 1-based lane index and its cell's run ID. Lanes number the misses
// only, alone lanes included though they emit nothing: with the LRU cell
// already stored, the batch is alone 0, alone 1, srrip, so srrip is lane 3.
func TestRunTagsEpochs(t *testing.T) {
	cfg, mix := fixture()
	sink := &epochLog{}
	cfg.TelemetryEpoch = 2_000
	cfg.TelemetrySink = sink
	cells := groupCells(cfg, mix, "lru", "srrip")

	st := store.OpenBackend(store.NewMem())
	if _, _, err := Run(context.Background(), st, obs.Discard(), nil, cells[2:3], 1); err != nil {
		t.Fatal(err)
	}
	sink.epochs = nil
	if _, _, err := Run(context.Background(), st, obs.Discard(), nil, cells, 2); err != nil {
		t.Fatal(err)
	}
	if len(sink.epochs) == 0 {
		t.Fatal("no epochs emitted")
	}
	want := obs.RunID(cells[3].Config.Key(), mix.Key())
	for _, e := range sink.epochs {
		if e.Lane != 3 || e.Cell != want {
			t.Fatalf("epoch tagged lane %d cell %q, want lane 3 cell %q", e.Lane, e.Cell, want)
		}
	}
}
