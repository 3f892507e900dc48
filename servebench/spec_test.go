package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct{ Name string }      `json:"end_to_end"`
	PerLayer  []struct{ Name string }      `json:"per_layer"`
}

// The benchmark's definition at the repository root and its own spec.json
// must describe the same workloads and metrics.
func TestSpecMatchesBenchmarkDefinition(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for _, w := range b.Workloads {
		workloads[w.Name] = true
		ws, ok := spec.Workloads[w.Name]
		if !ok {
			t.Errorf("workload %s has no spec", w.Name)
			continue
		}
		if ws.Rounds < 1 {
			t.Errorf("%s: %d rounds", w.Name, ws.Rounds)
		}
		if ws.Clients < 1 || ws.Clients > 2 {
			t.Errorf("%s: %d clients, want 1 or 2", w.Name, ws.Clients)
		}
		if !strings.Contains(w.Why, fmt.Sprintf("%d clients", ws.Clients)) {
			t.Errorf("%s: why does not state its %d clients: %q", w.Name, ws.Clients, w.Why)
		}
		if ws.OpenRate > 0 && !strings.Contains(w.Why, fmt.Sprintf("%g/s", ws.OpenRate)) {
			t.Errorf("%s: why does not state its open-loop rate %g/s: %q", w.Name, ws.OpenRate, w.Why)
		}
		if (ws.OpenRate > 0) == (w.Name == "batch-churn") {
			t.Errorf("%s: open-loop rate %g", w.Name, ws.OpenRate)
		}
	}
	if len(workloads) != len(workloadNames) || len(spec.Workloads) != len(workloadNames) {
		t.Errorf("workloads: BENCHMARK.json %d, spec.json %d, program %v", len(workloads), len(spec.Workloads), workloadNames)
	}
	endToEnd := map[string]bool{"fail_frac": true}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = true
		if _, ok := spec.EndToEndNotes[m.Name]; !ok {
			t.Errorf("end-to-end metric %s has no note in spec.json", m.Name)
		}
	}
	for _, m := range b.PerLayer {
		ls, ok := spec.PerLayer[m.Name]
		if !ok {
			t.Errorf("per-layer metric %s has no mapping in spec.json", m.Name)
			continue
		}
		for _, e := range ls.Moves {
			if !endToEnd[e] {
				t.Errorf("%s moves %q, which is no end-to-end metric", m.Name, e)
			}
		}
		for _, w := range append(ls.On, ls.UnmovedOn...) {
			if !workloads[w] {
				t.Errorf("%s names workload %q", m.Name, w)
			}
		}
	}
	if len(spec.PerLayer) != len(b.PerLayer) {
		t.Errorf("spec.json maps %d per-layer metrics, BENCHMARK.json declares %d", len(spec.PerLayer), len(b.PerLayer))
	}
}
