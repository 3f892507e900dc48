package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100 * ms},
		// Two concurrent children overlapping on [30, 40): covered once.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms},
		// A child nested inside another counts once too.
		{ID: 4, Parent: 1, Name: "c", Start: 15 * ms, End: 20 * ms},
		// A child running past its parent counts only inside it.
		{ID: 5, Parent: 1, Name: "d", Start: 90 * ms, End: 120 * ms},
		// A grandchild is its parent's business, not the root's.
		{ID: 6, Parent: 3, Name: "b1", Start: 35 * ms, End: 45 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*ms - (50*ms + 10*ms), // covered [10,60) and [90,100)
		2: 30 * ms,
		3: 30*ms - 10*ms,
		4: 5 * ms,
		5: 30 * ms,
		6: 10 * ms,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerWritesSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request", 7, 0)
	tr.do("child", 7, root, func() { time.Sleep(time.Millisecond) })
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Req != 7 {
		t.Fatalf("spans %+v", tr.spans)
	}
	if s := tr.spans[1]; s.End-s.Start < time.Millisecond || s.Start < tr.spans[0].Start || s.End > tr.spans[0].End {
		t.Errorf("child span %+v does not sit inside its parent %+v", s, tr.spans[0])
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	if len(got) != 2 || got[0] != tr.spans[0] || got[1] != tr.spans[1] {
		t.Errorf("read back %+v, wrote %+v", got, tr.spans)
	}
}
