package eisvc

import (
	"net/http/httptest"
	"testing"

	"energyclarity/internal/core"
)

// TestWireSmokeInterop is the wire-format acceptance gate: a JSON
// client, a binary client over TCP, and a binary client over the
// in-process loopback transport all talk to the same daemon and get
// bit-identical distributions for every mode, for batches, and for
// peer cache lookups. The JSON debug path and the binary hot path must
// never diverge.
func TestWireSmokeInterop(t *testing.T) {
	srv := NewServer(Config{NodeID: "interop"})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	jsonC := NewClient(ts.URL)
	jsonC.ID = "json-client"
	binC := NewClient(ts.URL)
	binC.ID = "bin-client"
	binC.Binary = true
	loopC := NewClient("http://loopback")
	loopC.SetTransport(NewLoopbackTransport(srv))
	loopC.ID = "loop-client"
	loopC.Binary = true

	infos, err := jsonC.Register(testEIL)
	if err != nil {
		t.Fatal(err)
	}
	var version uint64
	for _, info := range infos {
		if info.Name == "ml_webservice" {
			version = info.Version
		}
	}
	if version == 0 {
		t.Fatal("register did not report a version for ml_webservice")
	}

	args := []core.Value{reqArg()}
	modes := []struct {
		name string
		opts core.EvalOptions
	}{
		{"expected", core.Expected()},
		{"worst-case", core.WorstCase()},
		{"monte-carlo", core.MonteCarlo(512, 42)},
		{"fixed", core.FixedAssignment(map[string]core.Value{
			"request_hit": core.Bool(true), "local_cache_hit": core.Bool(false),
		})},
	}
	for _, m := range modes {
		ref, refResp, err := jsonC.Eval("ml_webservice", "handle", args, m.opts)
		if err != nil {
			t.Fatalf("%s: json eval: %v", m.name, err)
		}
		got, resp, err := binC.Eval("ml_webservice", "handle", args, m.opts)
		if err != nil {
			t.Fatalf("%s: binary eval: %v", m.name, err)
		}
		sameDist(t, m.name+"/binary-tcp", got, ref)
		if !resp.Cached {
			t.Fatalf("%s: binary repeat of a memoized request was not cache-served", m.name)
		}
		loopGot, _, err := loopC.Eval("ml_webservice", "handle", args, m.opts)
		if err != nil {
			t.Fatalf("%s: loopback eval: %v", m.name, err)
		}
		sameDist(t, m.name+"/binary-loopback", loopGot, ref)
		if refResp.Version == 0 {
			t.Fatalf("%s: json response missing interface version", m.name)
		}
	}

	// Batches: the same three requests through both codecs.
	batch := []EvalRequest{
		jsonC.EvalRequestFor("ml_webservice", "handle", args, core.Expected()),
		jsonC.EvalRequestFor("ml_webservice", "handle", args, core.WorstCase()),
		jsonC.EvalRequestFor("ml_webservice", "handle", args, core.MonteCarlo(512, 42)),
	}
	jsonItems, err := jsonC.EvalBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	binItems, err := binC.EvalBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(jsonItems) != len(batch) || len(binItems) != len(batch) {
		t.Fatalf("batch sizes: json %d, binary %d, want %d", len(jsonItems), len(binItems), len(batch))
	}
	for i := range batch {
		if jsonItems[i].Error != "" || binItems[i].Error != "" {
			t.Fatalf("batch item %d errored: json=%q binary=%q", i, jsonItems[i].Error, binItems[i].Error)
		}
		jd, err := jsonItems[i].Dist.Dist()
		if err != nil {
			t.Fatal(err)
		}
		bd, err := binItems[i].Dist.Dist()
		if err != nil {
			t.Fatal(err)
		}
		sameDist(t, "batch", bd, jd)
	}

	// Cache lookups: probe a warm key through both codecs. The canonical
	// key is computable in-package from the registered version.
	key := callKey(t, "ml_webservice", version, "handle", args, core.Expected())
	jd, found, err := jsonC.CacheLookup(key)
	if err != nil || !found {
		t.Fatalf("json cache lookup: found=%v err=%v", found, err)
	}
	bd, found, err := binC.CacheLookup(key)
	if err != nil || !found {
		t.Fatalf("binary cache lookup: found=%v err=%v", found, err)
	}
	sameDist(t, "cachelookup", bd, jd)
	if _, found, err := binC.CacheLookup("no-such-key"); err != nil || found {
		t.Fatalf("binary miss lookup: found=%v err=%v", found, err)
	}
}
