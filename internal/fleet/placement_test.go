package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
)

// placementRequests are distinct evaluations of one stack: different
// args, modes, and seeds, so they spread over its owners.
func placementRequests() []eisvc.EvalRequest {
	var c eisvc.Client
	var reqs []eisvc.EvalRequest
	for k := 0; k < 6; k++ {
		opts := traceOpts
		if k%2 == 1 {
			opts = core.EvalOptions{Mode: core.ModeWorstCase, Seed: int64(k)}
		}
		reqs = append(reqs, c.EvalRequestFor("ml_webservice", "handle", traceArgs(k), opts))
	}
	return reqs
}

// firstChoices is where each way of sending req is placed first: as a
// binary /v1/eval frame, as a JSON /v1/eval body, and as the middle item
// of a binary /v1/evalbatch.
func firstChoices(t *testing.T, rt *Router, req eisvc.EvalRequest) (binary, jsonBody, batchItem string) {
	t.Helper()
	first := func(f *eisvc.EvalFrame) string {
		p := rt.placeEval(f, nil)
		if len(p.cands) == 0 {
			t.Fatal("no candidates")
		}
		return p.cands[0].ID
	}
	var bin bytes.Buffer
	f, err := eisvc.FrameEvalRequest(&bin, &req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var jr eisvc.EvalRequest
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatal(err)
	}
	var jb bytes.Buffer
	jf, err := eisvc.FrameEvalRequest(&jb, &jr)
	if err != nil {
		t.Fatal(err)
	}
	other := req
	other.Method = "other"
	var batch bytes.Buffer
	frames, err := eisvc.FrameBatchEvalRequest(&batch, &eisvc.BatchEvalRequest{Requests: []eisvc.EvalRequest{other, req, other}})
	if err != nil {
		t.Fatal(err)
	}
	return first(&f), first(&jf), first(&frames[1])
}

// TestPlacementAgreesAcrossCodecs: one request sent as a JSON /v1/eval, a
// binary /v1/eval, and an item of /v1/evalbatch gets the same
// first-choice replica — placement hashes the frame every path builds —
// and each way is really served there.
func TestPlacementAgreesAcrossCodecs(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	if _, err := f.RegisterSource(fleetEIL); err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(f)
	spread := map[string]bool{}
	for i, req := range placementRequests() {
		bin, js, item := firstChoices(t, rt, req)
		if bin != js || bin != item {
			t.Fatalf("request %d placed binary=%s json=%s batch-item=%s", i, bin, js, item)
		}
		spread[bin] = true

		// End to end, each way through a fresh router (no affinity yet).
		served := func(way string, send func(c *eisvc.Client) string) {
			_, url, stop, err := f.StartRouter("")
			if err != nil {
				t.Fatal(err)
			}
			defer stop()
			if got := send(eisvc.NewClient(url)); got != bin {
				t.Errorf("request %d sent as %s: served by %s, placed on %s", i, way, got, bin)
			}
		}
		eval := func(binary bool) func(c *eisvc.Client) string {
			return func(c *eisvc.Client) string {
				c.Binary = binary
				opts, err := req.Options()
				if err != nil {
					t.Fatal(err)
				}
				_, resp, err := c.Eval(req.Interface, req.Method, traceArgs(i), opts)
				if err != nil {
					t.Fatal(err)
				}
				return resp.Node
			}
		}
		served("binary eval", eval(true))
		served("json eval", eval(false))
		served("batch item", func(c *eisvc.Client) string {
			before := batchItemsByNode(t, f)
			c.Binary = true
			items, err := c.EvalBatch([]eisvc.EvalRequest{req})
			if err != nil || items[0].Error != "" {
				t.Fatalf("batch: %v %+v", err, items)
			}
			for id, n := range batchItemsByNode(t, f) {
				if n > before[id] {
					return id
				}
			}
			return "none"
		})
	}
	if len(spread) < 2 {
		t.Errorf("distinct requests all placed on %v; the spread hash does not spread", spread)
	}
}

func batchItemsByNode(t *testing.T, f *Fleet) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	for _, n := range f.Nodes() {
		st, err := n.peer.StatsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out[n.ID] = st.BatchItems
	}
	return out
}

// TestPlacementAllocs guards the router's per-request placement: once a
// stack's owners are cached for the current membership, placing a
// framed eval allocates nothing.
func TestPlacementAllocs(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	rt := NewRouter(f)
	req := placementRequests()[0]
	var buf bytes.Buffer
	fr, err := eisvc.FrameEvalRequest(&buf, &req)
	if err != nil {
		t.Fatal(err)
	}
	var scratch [8]*Node
	p := rt.placeEval(&fr, scratch[:])
	rt.aff.put(p.affKey, p.cands[1].ID) // exercise the affinity reorder too
	const budget = 0
	allocs := testing.AllocsPerRun(200, func() {
		if p := rt.placeEval(&fr, scratch[:]); !p.warm || len(p.cands) != 3 {
			panic(fmt.Sprintf("placement %+v", p))
		}
	})
	if allocs > budget {
		t.Fatalf("placement: %.1f allocs per request, budget %d", allocs, budget)
	}
}
