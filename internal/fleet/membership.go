package fleet

import (
	"sort"
	"sync"
)

// membership is an immutable view of the fleet's nodes, rebuilt on every
// membership change, so the router places a request without locking the
// fleet, sorting its node map, or allocating. Liveness is not part of the
// view: a kill or drain flips Node state, which placement reads per
// request.
type membership struct {
	nodes []*Node // every node, sorted by ID

	// owners caches each interface stack's ring owners, primary first,
	// filled on a stack's first placement against this view.
	mu     sync.RWMutex
	owners map[string][]*Node
}

// refresh installs a fresh membership view; f.mu must be held for
// writing.
func (f *Fleet) refresh() {
	v := &membership{nodes: make([]*Node, 0, len(f.nodes)), owners: map[string][]*Node{}}
	for _, n := range f.nodes {
		v.nodes = append(v.nodes, n)
	}
	sort.Slice(v.nodes, func(i, j int) bool { return v.nodes[i].ID < v.nodes[j].ID })
	f.view.Store(v)
}

// ownersOf returns stack's ring owners under the current view.
func (f *Fleet) ownersOf(stack []byte) []*Node {
	v := f.view.Load()
	v.mu.RLock()
	owners, ok := v.owners[string(stack)]
	v.mu.RUnlock()
	if ok {
		return owners
	}
	f.mu.RLock()
	for _, id := range f.ring.Lookup(string(stack), f.cfg.Replication) {
		if n, ok := f.nodes[id]; ok {
			owners = append(owners, n)
		}
	}
	current := f.view.Load() == v
	f.mu.RUnlock()
	if current {
		// A view replaced meanwhile is unreachable, so caching into it
		// would only waste the lookup; past maxCachedStacks names (say, a
		// client probing random interfaces) lookups simply go uncached.
		v.mu.Lock()
		if len(v.owners) < maxCachedStacks {
			v.owners[string(stack)] = owners
		}
		v.mu.Unlock()
	}
	return owners
}

// maxCachedStacks bounds one view's owner cache.
const maxCachedStacks = 4096
