package eisvc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/energy"
)

// warmServer builds a server with a few memoized answers and layer
// entries, returning the memo keys it warmed.
func warmServer(t *testing.T) (*Server, []string) {
	t.Helper()
	s := NewServer(Config{NodeID: "node-test"})
	keys := make([]string, 0, 8)
	for i := 0; i < 8; i++ {
		d, err := energy.FromSorted(
			[]float64{float64(i), float64(i) + 1.5, float64(i) + 7},
			[]float64{0.25, 0.5, 0.25})
		if err != nil {
			t.Fatal(err)
		}
		key := callKey(t, "stack", uint64(i+1), "serve", nil, core.EvalOptions{Mode: core.ModeExpected})
		key += "#" + strings.Repeat("x", i) // distinct keys
		s.memo.Put(key, d)
		keys = append(keys, key)
	}
	if s.layer != nil {
		s.layer.Restore([]LayerEntry{
			{Key: "fold1|m|A;|E;", Joules: 1.25},
			{Key: "fold2|m|A;|E;", Joules: math.Inf(1)},
			{Key: "fold3|m|A;|E;", Joules: math.Copysign(0, -1)},
		})
	}
	return s, keys
}

func TestSnapshotSaveLoadRoundTrip(t *testing.T) {
	src, keys := warmServer(t)
	path := filepath.Join(t.TempDir(), "node-test.eisnap")
	if err := src.SaveCacheSnapshot(path); err != nil {
		t.Fatal(err)
	}

	dst := NewServer(Config{NodeID: "node-test"})
	memoN, layerN, err := dst.LoadCacheSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if memoN != len(keys) || layerN != 3 {
		t.Fatalf("restored %d memo / %d layer entries, want %d / 3", memoN, layerN, len(keys))
	}
	for _, key := range keys {
		want, ok := src.memo.Get(key)
		if !ok {
			t.Fatalf("source lost key %q", key)
		}
		got, ok := dst.memo.Get(key)
		if !ok {
			t.Fatalf("restored memo misses key %q", key)
		}
		ws, gs := want.Support(), got.Support()
		wp, gp := want.Probs(), got.Probs()
		if !bitsEqual(ws, gs) || !bitsEqual(wp, gp) {
			t.Fatalf("restored dist for %q not bit-identical", key)
		}
	}
}

// TestSnapshotCorruptionSafety is the safety gate for warm restarts: a
// truncated, bit-flipped, or version-mismatched snapshot file must be
// detected and rejected wholesale — the node falls back to a cold start
// and never installs a partial or corrupted cache.
func TestSnapshotCorruptionSafety(t *testing.T) {
	src, _ := warmServer(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "good.eisnap")
	if err := src.SaveCacheSnapshot(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			bad := mutate(append([]byte{}, good...))
			p := filepath.Join(dir, name+".eisnap")
			if err := os.WriteFile(p, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			fresh := NewServer(Config{NodeID: "node-test"})
			memoN, layerN, err := fresh.LoadCacheSnapshot(p)
			if err == nil {
				t.Fatal("corrupted snapshot loaded without error")
			}
			if memoN != 0 || layerN != 0 {
				t.Fatalf("corrupted snapshot installed %d/%d entries", memoN, layerN)
			}
			if _, _, _, size := fresh.memo.Stats(); size != 0 {
				t.Fatalf("memo holds %d entries after rejected load", size)
			}
		})
	}

	corrupt("truncated-half", func(b []byte) []byte { return b[:len(b)/2] })
	corrupt("truncated-tail", func(b []byte) []byte { return b[:len(b)-3] })
	corrupt("empty", func(b []byte) []byte { return nil })
	corrupt("bad-magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("version-mismatch", func(b []byte) []byte { b[3] = binVersion + 9; return b })
	corrupt("bitflip-payload", func(b []byte) []byte { b[len(b)/2] ^= 0x40; return b })
	corrupt("bitflip-checksum", func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b })

	// A missing file is an error too (callers log-and-cold-start on it).
	fresh := NewServer(Config{})
	if _, _, err := fresh.LoadCacheSnapshot(filepath.Join(dir, "nope.eisnap")); !os.IsNotExist(err) {
		t.Fatalf("missing file: got %v, want IsNotExist", err)
	}
}

// TestSnapshotInvalidDistSkipped checks Restore's last line of defense:
// a snapshot whose checksum is intact but whose vectors do not form a
// valid distribution (here: probs that do not sum to 1) installs
// nothing for that entry.
func TestSnapshotInvalidDistSkipped(t *testing.T) {
	s := NewServer(Config{})
	memoN, _ := s.RestoreCacheSnapshot(&CacheSnapshot{
		Memo: []MemoEntry{
			{Key: "bad", Support: []float64{1, 2}, Probs: []float64{0.9, 0.9}},
			{Key: "good", Support: []float64{1, 2}, Probs: []float64{0.5, 0.5}},
		},
	})
	if memoN != 1 {
		t.Fatalf("installed %d entries, want 1 (the valid one)", memoN)
	}
	if _, ok := s.memo.Get("bad"); ok {
		t.Fatal("invalid distribution was installed")
	}
	if _, ok := s.memo.Get("good"); !ok {
		t.Fatal("valid entry was not installed")
	}
}

func TestSnapshotLoopSavesOnStop(t *testing.T) {
	s, keys := warmServer(t)
	path := filepath.Join(t.TempDir(), "loop.eisnap")
	stop := s.StartSnapshotLoop(path, time.Hour, nil) // interval never fires; stop saves
	stop()
	dst := NewServer(Config{})
	memoN, _, err := dst.LoadCacheSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if memoN != len(keys) {
		t.Fatalf("final save restored %d entries, want %d", memoN, len(keys))
	}
}

// TestSnapshotPreFrameKeysRejected: a snapshot written before memo keys
// were derived from request frames (format version 1) is rejected whole —
// its keys could never hit again — and the node cold-starts with correct
// answers.
func TestSnapshotPreFrameKeysRejected(t *testing.T) {
	srv, c, done := newTestDaemon(t, Config{NodeID: "node-old"})
	defer done()
	if _, err := c.Register(testEIL); err != nil {
		t.Fatal(err)
	}
	_, version, _ := srv.Registry().Get("ml_webservice")

	// A version-1 file: the same layout with the old key spelling and a
	// valid checksum, so only the format version gives it away. Its answer
	// is deliberately wrong: it must never be served.
	oldKey := fmt.Sprintf("ml_webservice@%d|handle|m0|s2048|l4096|r0|A[R{pixels=N1e+06;zeros=N200000;};]|F{}", version)
	var buf bytes.Buffer
	if err := EncodeCacheSnapshot(&buf, &CacheSnapshot{
		NodeID: "node-old",
		Memo:   []MemoEntry{{Key: oldKey, Support: []float64{42}, Probs: []float64{1}}},
		Layer:  []LayerEntry{{Key: "fold|m|AR{pixels=N1e+06;};|E", Joules: 42}},
	}); err != nil {
		t.Fatal(err)
	}
	old := buf.Bytes()
	old[3] = 1
	binary.LittleEndian.PutUint32(old[len(old)-4:], crc32.ChecksumIEEE(old[:len(old)-4]))
	path := filepath.Join(t.TempDir(), "node-old.eisnap")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	memoN, layerN, err := srv.LoadCacheSnapshot(path)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("version-1 snapshot: err = %v, want a format-version rejection", err)
	}
	if memoN != 0 || layerN != 0 {
		t.Fatalf("rejected snapshot installed %d/%d entries", memoN, layerN)
	}

	want, err := localIface(t).Eval("handle", []core.Value{reqArg()}, core.Expected())
	if err != nil {
		t.Fatal(err)
	}
	got, resp, err := c.Eval("ml_webservice", "handle", []core.Value{reqArg()}, core.Expected())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cached {
		t.Fatal("first answer after a rejected snapshot claims a memo hit")
	}
	sameDist(t, "cold start", got, want)
}
