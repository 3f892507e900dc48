package eisvc

import (
	"strings"
	"sync"

	"energyclarity/internal/cache"
	"energyclarity/internal/energy"
)

// Memo is the daemon's evaluation cache: a bounded LRU (cache.Store) from
// canonicalized request keys to distributions, wrapped in a mutex so
// concurrent handlers share it safely.
type Memo struct {
	mu    sync.Mutex
	store *cache.Store[energy.Dist]
}

// NewMemo returns a memo cache bounded to capacity entries; capacity 0
// disables memoization.
func NewMemo(capacity int) *Memo {
	return &Memo{store: cache.NewStore[energy.Dist](capacity)}
}

// Get returns the cached distribution for key.
func (m *Memo) Get(key string) (energy.Dist, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.store.Get(key)
}

// Put caches the distribution for key.
func (m *Memo) Put(key string, d energy.Dist) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.store.Put(key, d)
}

// Stats returns the memo counters and current size.
func (m *Memo) Stats() (hits, misses, evictions uint64, size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	hits, misses, evictions = m.store.Stats()
	return hits, misses, evictions, m.store.Len()
}

// MemoEntry is one persisted memo entry: the canonical key plus the
// distribution's exact (support, probs) vectors. The raw vectors (not an
// energy.Dist) travel in snapshots so the codec layer stays dumb;
// Restore revalidates through energy.FromSorted.
type MemoEntry struct {
	Key     string
	Support []float64
	Probs   []float64
}

// Entries copies every live memo entry, most- to least-recently used —
// the order Restore needs to rebuild the same LRU state.
func (m *Memo) Entries() []MemoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemoEntry, 0, m.store.Len())
	m.store.Each(func(key string, d energy.Dist) bool {
		out = append(out, MemoEntry{Key: key, Support: d.Support(), Probs: d.Probs()})
		return true
	})
	return out
}

// Restore installs snapshot entries into the memo, least-recently-used
// first so the MRU ordering Entries captured survives the round trip.
// Entries that fail distribution validation are skipped (a snapshot must
// never make the daemon serve garbage); the returned count is how many
// were installed.
func (m *Memo) Restore(entries []MemoEntry) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	installed := 0
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		d, err := energy.FromSorted(e.Support, e.Probs)
		if err != nil || e.Key == "" {
			continue
		}
		m.store.Put(e.Key, d)
		installed++
	}
	return installed
}

// KeyStack returns the interface-stack name embedded in a canonical memo
// key (the prefix before the '@' that introduces the version). The fleet
// router uses it to aim peer cache probes at the stack's shard owners
// first — they are where the key is most likely warm. The key's hex tail
// holds no '|' and the version no '@', so a name containing either still
// reads back whole.
func KeyStack(key string) string {
	head := key
	if i := strings.LastIndexByte(head, '|'); i >= 0 {
		head = head[:i]
	}
	if i := strings.LastIndexByte(head, '@'); i >= 0 {
		return head[:i]
	}
	return key
}
