package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"drishti/internal/serve/api"
	"drishti/internal/sim"
	"drishti/internal/workload"
)

// TestJobBatchesRowsOverWarmStore runs a 2-workload × 4-policy job whose
// store already holds half of its cells. Every workload row goes through
// the cell engine as a batch of maxJobLanes policies and one of the rest,
// so batches mix store hits with lanes, and one is served from the store
// alone. The results must equal serial sim.RunMixContext runs byte for
// byte, the hit/miss accounting must be exact, and the result stream must
// carry each index once, in index order.
func TestJobBatchesRowsOverWarmStore(t *testing.T) {
	s, srv, _ := testService(t, Options{Workers: 1})
	defer s.Shutdown(shortCtx(t))

	models := workload.AllSPECGAP()
	req := JobRequest{
		Cores:        2,
		Scale:        8,
		Instructions: 10_000,
		Warmup:       2_500,
		Policies:     []PolicyRequest{{Name: "lru"}, {Name: "srrip"}, {Name: "hawkeye", Drishti: true}, {Name: "mockingjay"}},
		Workloads:    []string{models[0].Name, models[1].Name},
	}.WithDefaults()
	nw, np, err := req.Grid()
	if err != nil {
		t.Fatal(err)
	}

	// Serial oracle for every cell; pre-warm cells 0 and 2 (two hits in
	// row 0's first batch), 5 (one in row 1's first) and 7 (row 1's
	// second batch, all hits).
	if np != maxJobLanes+1 {
		t.Fatalf("want rows of maxJobLanes+1 policies, got %d", np)
	}
	oracle := make([]string, nw*np)
	warm := map[int]bool{0: true, 2: true, 5: true, 7: true}
	for wi := 0; wi < nw; wi++ {
		for pi := 0; pi < np; pi++ {
			idx := wi*np + pi
			cfg, mix, err := req.Cell(wi, pi)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.RunMixContext(context.Background(), cfg, mix)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			oracle[idx] = string(b)
			if warm[idx] {
				if err := s.Store().Put(api.CellKey(cfg, mix), res); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	id, resp := postJob(t, srv, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	hr, err := http.Get(srv.URL + "/v1/jobs/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var streamed []int
	sc := bufio.NewScanner(hr.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev api.ResultEvent
		if err := api.DecodeStrict(strings.NewReader(sc.Text()), &ev); err != nil {
			t.Fatalf("stream line: %v", err)
		}
		if ev.Event == api.EventCell {
			streamed = append(streamed, ev.Index)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if v := waitTerminal(t, srv, id, time.Minute); v.Status != StatusDone {
		t.Fatalf("job ended %s: %s", v.Status, v.Error)
	}
	for i, idx := range streamed {
		if idx != i {
			t.Fatalf("stream indices %v, want 0..%d in order, each once", streamed, nw*np-1)
		}
	}
	if len(streamed) != nw*np {
		t.Fatalf("streamed %d cells, want %d", len(streamed), nw*np)
	}

	res := fetchResult(t, srv, id)
	if res.StoreHits != len(warm) || res.StoreMisses != nw*np-len(warm) {
		t.Errorf("hits=%d misses=%d, want %d/%d", res.StoreHits, res.StoreMisses, len(warm), nw*np-len(warm))
	}
	if len(res.Cells) != nw*np {
		t.Fatalf("result has %d cells, want %d", len(res.Cells), nw*np)
	}
	for idx, cell := range res.Cells {
		if cell.FromStore != warm[idx] {
			t.Errorf("cell %d fromStore=%v, want %v", idx, cell.FromStore, warm[idx])
		}
		b, err := json.Marshal(cell.Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != oracle[idx] {
			t.Errorf("cell %d (%s on %s) differs from its serial run", idx, cell.Policy, cell.Mix)
		}
	}
}
