package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"energyclarity/internal/eisvc"
	"energyclarity/internal/energy"
)

// Workload shapes. The working sets fit every node's memo (1024 entries by
// default); batch-churn rebinds one stack after every writeEvery-th batch,
// so each stack turns cold once every 3*writeEvery batches and the set
// stays mostly warm.
const (
	hotSet     = 300 // hot-zipf working set
	batchSet   = 240 // batch-churn working set
	coldWarm   = 120 // cold-mix warm-up requests, never repeated when timed
	batchSize  = 32
	writeEvery = 4
	zipfS      = 1.1
	setups     = 11                     // set-ups per run; setup_s is their median
	openShare  = 0.5                    // share of each round spent in the open-loop phase
	probeGap   = 100 * time.Millisecond // between write-probe rebinds on hot-zipf and cold-mix
)

var workloadNames = []string{"hot-zipf", "cold-mix", "batch-churn"}

// run is one benchmark run of one workload. Every request it sends is
// generated from (workload, seed) and checked against the oracle.
type run struct {
	name    string
	seed    int64
	clients int
	or      *oracle
	rig     *rig

	// hot-zipf and batch-churn draw Zipf-ranked indices into set;
	// refs[b][i] answers set[i] with its stack on device b.
	set  []call
	refs [2][]energy.Dist
	zipf *picker

	// cold-mix draws fresh requests; warm primes the compiled programs
	// during set-up with requests the timed phases never send.
	cold     *coldSource
	warm     []call
	warmRefs []energy.Dist

	// batch-churn: the device each stack is bound to. Batches hold the
	// read lock from send to answer and writes the write lock, so every
	// answer has one binding to be checked against.
	mu      sync.RWMutex
	bind    map[string]int
	batches atomic.Int64
	deduped atomic.Int64
	items   atomic.Int64

	wmu      sync.Mutex
	writeMs  []float64
	writeRes result

	check checker
}

func newRun(name string, seed int64, clients int) (*run, error) {
	or, err := newOracle()
	if err != nil {
		return nil, err
	}
	r := &run{name: name, seed: seed, clients: clients, or: or, bind: map[string]int{}}
	if err := r.plan(); err != nil {
		return nil, err
	}
	switch {
	case r.cold != nil:
		r.warmRefs, err = or.refs(r.warm, fill(len(r.warm), 0))
	default:
		bindings := 1
		if name == "batch-churn" {
			bindings = 2
		}
		for b := 0; b < bindings && err == nil; b++ {
			r.refs[b], err = or.refs(r.set, fill(len(r.set), b))
		}
		r.warmRefs = r.refs[0]
	}
	return r, err
}

// plan generates the workload's requests. The working sets are fixed per
// workload, so set-up does the same work under every seed; the seed drives
// the request sequence.
func (r *run) plan() error {
	h := fnv.New64a()
	h.Write([]byte(r.name))
	setRng := rand.New(rand.NewSource(int64(h.Sum64())))
	rng := rand.New(rand.NewSource(r.seed ^ int64(h.Sum64())))
	seen := idSet{}
	switch r.name {
	case "hot-zipf", "batch-churn":
		n := hotSet
		if r.name == "batch-churn" {
			n = batchSet
		}
		r.set = distinctCalls(setRng, n, true, seen)
		r.warm = r.set
		r.zipf = newPicker(setRng, rng, n)
	case "cold-mix":
		r.warm = distinctCalls(setRng, coldWarm, false, seen)
		r.cold = &coldSource{rng: rng, seen: seen}
	default:
		return fmt.Errorf("unknown workload %q (want one of %v)", r.name, workloadNames)
	}
	return nil
}

func fill(n, v int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// setup boots a fleet, registers the stacks and sends the warm-up
// requests through the router, split over the clients.
func (r *run) setup() (*rig, error) {
	rg, err := bootRig(r.clients)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	fails := make([]result, r.clients)
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(r.warm); i += r.clients {
				d, _, res := eval(rg.senders[c], r.warm[i])
				if res.answers == 1 {
					r.check.compare(r.warm[i], d, r.warmRefs[i])
				}
				fails[c].add(res)
			}
		}(c)
	}
	wg.Wait()
	for _, f := range fails {
		if f.failed > 0 {
			rg.close()
			return nil, fmt.Errorf("warm-up: %d requests failed", f.failed)
		}
	}
	return rg, nil
}

// eval sends one request and classifies the outcome.
func eval(cl *eisvc.Client, c call) (energy.Dist, *eisvc.EvalResponse, result) {
	d, resp, err := cl.EvalCtx(context.Background(), c.stack, c.method, c.args, c.opts())
	if err != nil {
		return energy.Dist{}, nil, failure(err)
	}
	return d, resp, result{answers: 1}
}

func failure(err error) result {
	var ae *eisvc.APIError
	if errors.As(err, &ae) && ae.Shed() {
		return result{failed: 1, shed: 1}
	}
	return result{failed: 1}
}

// op sends the workload's next single request on client c.
func (r *run) op(c int) result {
	cl := r.rig.senders[c]
	if r.cold != nil {
		call := r.cold.next()
		d, _, res := eval(cl, call)
		if res.answers == 1 {
			r.check.later(call, d)
		}
		return res
	}
	i := r.zipf.next()
	d, _, res := eval(cl, r.set[i])
	if res.answers == 1 {
		r.check.compare(r.set[i], d, r.refs[0][i])
	}
	return res
}

// batchOp sends one batch on client c, timed alone, and then the write
// whose turn it is.
func (r *run) batchOp(c int, start time.Time) sample {
	cl := r.rig.senders[c]
	r.mu.RLock()
	idx := r.zipf.nextN(batchSize)
	reqs := make([]eisvc.EvalRequest, len(idx))
	binds := make([]int, len(idx))
	for j, i := range idx {
		s := r.set[i]
		reqs[j] = cl.EvalRequestFor(s.stack, s.method, s.args, s.opts())
		binds[j] = r.bind[s.stack]
	}
	var (
		items []eisvc.BatchEvalItem
		dists []energy.Dist
	)
	s := timeOp(start, func() result {
		var err error
		items, err = cl.EvalBatchCtx(context.Background(), reqs)
		if err != nil {
			f := failure(err)
			return result{failed: len(reqs), shed: f.shed * len(reqs)}
		}
		var res result
		dists = make([]energy.Dist, len(items))
		for j, it := range items {
			if it.Status != http.StatusOK || it.Dist == nil {
				res.failed++
				if it.Status == http.StatusTooManyRequests || it.Status == http.StatusServiceUnavailable {
					res.shed++
				}
				continue
			}
			d, err := it.Dist.Dist()
			if err != nil {
				res.failed++
				continue
			}
			dists[j] = d
			res.answers++
		}
		return res
	})
	r.mu.RUnlock()
	r.items.Add(int64(len(items)))
	for j, it := range items {
		if it.Deduped {
			r.deduped.Add(1)
		}
		if it.Status == http.StatusOK && it.Dist != nil {
			r.check.compare(r.set[idx[j]], dists[j], r.refs[binds[j]][idx[j]])
		}
	}
	if n := r.batches.Add(1); n%writeEvery == 0 {
		r.write(cl, stacks[int(n/writeEvery)%len(stacks)])
	}
	return s
}

// write rebinds stack to its other device through the router and records
// the write's latency, replication included.
func (r *run) write(cl *eisvc.Client, stack string) {
	r.mu.Lock()
	next := 1 - r.bind[stack]
	t := time.Now()
	err := r.rig.rebind(context.Background(), cl, stack, next)
	ms := float64(time.Since(t)) / float64(time.Millisecond)
	if err == nil {
		r.bind[stack] = next
	}
	r.mu.Unlock()
	r.wmu.Lock()
	defer r.wmu.Unlock()
	if err != nil {
		r.writeRes.add(failure(err))
		return
	}
	r.writeRes.answers++
	r.writeMs = append(r.writeMs, ms)
}

// picker draws working-set indices Zipf-distributed over a fixed
// permutation of the set: how popular each request is belongs to the
// working set, and the seed drives only the draws.
type picker struct {
	mu   sync.Mutex
	z    *rand.Zipf
	perm []int
}

func newPicker(setRng, rng *rand.Rand, n int) *picker {
	return &picker{z: rand.NewZipf(rng, zipfS, 1, uint64(n-1)), perm: setRng.Perm(n)}
}

func (p *picker) next() int { return p.nextN(1)[0] }

func (p *picker) nextN(n int) []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, n)
	for i := range out {
		out[i] = p.perm[p.z.Uint64()]
	}
	return out
}

// coldSource yields cold-mix requests whose identity never repeats in a
// run, cycling through the stacks.
type coldSource struct {
	mu   sync.Mutex
	rng  *rand.Rand
	seen idSet
	n    int
}

func (s *coldSource) next() call {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if c := draw(s.rng, stacks[s.n%len(stacks)], false); s.seen.add(c.id) {
			s.n++
			return c
		}
	}
}

// checker compares answers with the oracle bit for bit. Answers whose
// reference is not known yet (cold-mix) wait in pending until verify.
type checker struct {
	mu         sync.Mutex
	checked    int
	mismatches int
	first      string
	pending    []pendingAnswer
}

type pendingAnswer struct {
	c call
	d energy.Dist
}

func (k *checker) compare(c call, got, want energy.Dist) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.checked++
	if !got.Equal(want, 0) {
		k.mismatches++
		if k.first == "" {
			k.first = fmt.Sprintf("%s: got %v, want %v", c.id, got, want)
		}
	}
}

func (k *checker) later(c call, d energy.Dist) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.pending = append(k.pending, pendingAnswer{c, d})
}

// verify evaluates the references for every pending answer (device
// binding 0: cold-mix never rebinds) and compares.
func (k *checker) verify(or *oracle) error {
	k.mu.Lock()
	pending := k.pending
	k.pending = nil
	k.mu.Unlock()
	calls := make([]call, len(pending))
	for i, p := range pending {
		calls[i] = p.c
	}
	refs, err := or.refs(calls, fill(len(calls), 0))
	if err != nil {
		return err
	}
	for i, p := range pending {
		k.compare(p.c, p.d, refs[i])
	}
	return nil
}
