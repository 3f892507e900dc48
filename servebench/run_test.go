package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// A short run of every workload, traced and not, reports exactly the
// metrics BENCHMARK.json declares, and every answer passes the oracle.
func TestRunsReportTheDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet per run")
	}
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
	var endToEnd, perLayer []string
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			rep, err := execute(spec, w, spec.HeldOutSeed, time.Second, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			var got []string
			for k := range rep.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: reported %v, declared %v", w, traced, got, want)
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s traced=%v: reported %v, declared %v", w, traced, got, want)
					break
				}
			}
		}
	}
}
