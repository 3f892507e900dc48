package main

import (
	"reflect"
	"testing"
)

// sequence returns the identities of the first n requests a workload
// sends, and of its working or warm-up set.
func sequence(t *testing.T, name string, seed int64, n int) (seq, set []string) {
	t.Helper()
	r := &run{name: name, seed: seed}
	if err := r.plan(); err != nil {
		t.Fatal(err)
	}
	for _, c := range r.warm {
		set = append(set, c.id)
	}
	for i := 0; i < n; i++ {
		if r.cold != nil {
			seq = append(seq, r.cold.next().id)
		} else {
			seq = append(seq, r.set[r.zipf.next()].id)
		}
	}
	return seq, set
}

func TestRequestSequenceDependsOnlyOnWorkloadAndSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, setA := sequence(t, name, 1, 500)
		b, setB := sequence(t, name, 1, 500)
		c, setC := sequence(t, name, 2, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave two different sequences", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same sequence", name)
		}
		if !reflect.DeepEqual(setA, setB) || !reflect.DeepEqual(setA, setC) {
			t.Errorf("%s: the working set changed with the seed", name)
		}
	}
}

func TestColdMixNeverRepeatsAKey(t *testing.T) {
	seq, warm := sequence(t, "cold-mix", 1, 20000)
	seen := map[string]bool{}
	for _, id := range append(warm, seq...) {
		if seen[id] {
			t.Fatalf("cold-mix repeated %s", id)
		}
		seen[id] = true
	}
}

func TestHotSetFitsTheMemo(t *testing.T) {
	seq, set := sequence(t, "hot-zipf", 1, 5000)
	in := map[string]bool{}
	for _, id := range set {
		in[id] = true
	}
	if len(in) != hotSet || hotSet > 1024 {
		t.Fatalf("working set of %d distinct requests, want %d within the default memo of 1024", len(in), hotSet)
	}
	for _, id := range seq {
		if !in[id] {
			t.Fatalf("hot-zipf sent %s, outside its working set", id)
		}
	}
}
