package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/eil"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/energy"
)

// The traced run follows traceSample requests through the served path
// and replays each one's layers in-process; as many untraced requests
// interleave with them to price the tracing itself.
const (
	traceSample     = 100
	layerReps       = 20 // calls per request when timing one layer call
	replicatePairs  = 8
	recompileTrials = 6
	compileReps     = 5
	probeKeys       = 100
)

// phaseStats is what the timed phases left for the per-layer metrics.
type phaseStats struct {
	delta                           counters // node counters' growth
	routed, affinityHits, failovers uint64
	reads, all                      result    // all adds the writes
	lags                            []float64 // open-loop generator lateness, ms
	openP50, openP99                []float64 // per round, open loop from due times: ms
}

// replayReq carries one sampled request through the in-process layers.
type replayReq struct {
	c       call
	req     eisvc.EvalRequest
	reqBin  []byte
	args    []core.Value
	opts    core.EvalOptions
	key     string
	dist    energy.Dist
	hit     bool
	resp    eisvc.EvalResponse
	respBin []byte
}

// layerOp is one call into a layer's public functions, the unit both the
// spans and the per-layer timings measure.
type layerOp struct {
	name string
	run  func(q *replayReq) error
}

// hitPath are the in-process layers a memo hit passes through, in order.
func hitPath(cl *eisvc.Client, memo *eisvc.Memo, ledger *eisvc.Ledger) []layerOp {
	var buf bytes.Buffer
	return []layerOp{
		{"eisvc.encode_req", func(q *replayReq) error {
			q.req = cl.EvalRequestFor(q.c.stack, q.c.method, q.c.args, q.c.opts())
			buf.Reset()
			if err := eisvc.EncodeEvalRequest(&buf, &q.req); err != nil {
				return err
			}
			q.reqBin = append(q.reqBin[:0], buf.Bytes()...)
			return nil
		}},
		{"eisvc.decode_req", func(q *replayReq) error {
			req, err := eisvc.DecodeEvalRequest(q.reqBin)
			if err != nil {
				return err
			}
			q.args = q.args[:0]
			for _, a := range req.Args {
				v, err := eisvc.ValueFromJSON(a)
				if err != nil {
					return err
				}
				q.args = append(q.args, v)
			}
			q.opts, err = req.Options()
			return err
		}},
		{"core.key", func(q *replayReq) error {
			q.key = replayKey(q.c.stack, q.c.method, q.args, q.opts)
			return nil
		}},
		{"eisvc.memo_get", func(q *replayReq) error {
			q.dist, q.hit = memo.Get(q.key)
			return nil
		}},
		{"eisvc.encode_resp", func(q *replayReq) error {
			q.resp = eisvc.EvalResponse{Interface: q.c.stack, Version: 1, Method: q.c.method,
				Mode: q.opts.Mode.String(), Dist: eisvc.ToWire(q.dist), Cached: q.hit}
			buf.Reset()
			if err := eisvc.EncodeEvalResponse(&buf, &q.resp); err != nil {
				return err
			}
			q.respBin = append(q.respBin[:0], buf.Bytes()...)
			return nil
		}},
		{"eisvc.decode_resp", func(q *replayReq) error {
			resp, err := eisvc.DecodeEvalResponse(q.respBin)
			if err != nil {
				return err
			}
			_, err = resp.Dist.Dist()
			return err
		}},
		{"eisvc.ledger_record", func(q *replayReq) error {
			ledger.Record("servebench", q.c.stack, q.dist, q.hit)
			return nil
		}},
	}
}

// replayKey builds a memo key of the daemon's shape from Value.Key: stack,
// version, method and mode, every argument's key, and the pinned ECVs in
// name order.
func replayKey(stack, method string, args []core.Value, opts core.EvalOptions) string {
	var b strings.Builder
	b.WriteString(stack)
	b.WriteString("@1|")
	b.WriteString(method)
	b.WriteString("|m")
	b.WriteString(strconv.Itoa(int(opts.Mode)))
	b.WriteString("|A[")
	for _, a := range args {
		b.WriteString(a.Key())
		b.WriteByte(';')
	}
	b.WriteString("]|F{")
	names := make([]string, 0, len(opts.Fixed))
	for n := range opts.Fixed {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(opts.Fixed[n].Key())
		b.WriteByte(';')
	}
	b.WriteByte('}')
	return b.String()
}

// nextSample draws the workload's next request and returns it with the
// check its answer must pass.
func (r *run) nextSample() (call, func(energy.Dist)) {
	if r.cold != nil {
		c := r.cold.next()
		return c, func(d energy.Dist) { r.check.later(c, d) }
	}
	i := r.zipf.next()
	c, ref := r.set[i], r.refs[r.bind[r.set[i].stack]][i]
	return c, func(d energy.Dist) { r.check.compare(c, d, ref) }
}

// traceLayers is the traced run: per-layer metrics from the phases'
// counters, a span-traced replay of sampled requests, and isolated timings
// of the layers a request's latency is made of.
func (r *run) traceLayers(spec *benchSpec, rep *report, outDir string, ps phaseStats) error {
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	d := ps.delta
	put("fleet.affinity_hit_ratio", ratio(float64(ps.affinityHits), float64(ps.routed)), "ratio")
	put("fleet.failovers", float64(ps.failovers), "count")
	put("eisvc.memo_hit_ratio", ratio(d["memo_hits"], d["memo_hits"]+d["memo_misses"]), "ratio")
	put("eisvc.evals_per_answer", ratio(d["evaluations"], float64(ps.reads.answers)), "ratio")
	put("eisvc.dedup_ratio", ratio(float64(r.deduped.Load()), float64(r.items.Load())), "ratio")
	put("eisvc.coalesced", d["coalesced"], "count")
	put("eisvc.peer_hit_ratio", ratio(d["peer_hits"], d["peer_hits"]+d["peer_misses"]), "ratio")
	put("eisvc.peak_queue", d["peak_queue"], "count")
	put("eisvc.shed", d["shed_queue_full"]+d["shed_deadline"]+d["shed_draining"], "count")
	put("core.layer_hit_ratio", ratio(d["layer_hits"], d["layer_hits"]+d["layer_misses"]), "ratio")
	put("opt.compiled_share", ratio(d["compiled_evals"], d["evaluations"]), "ratio")
	put("loadgen.fail_frac", ratio(float64(ps.all.failed), float64(ps.all.answers+ps.all.failed)), "ratio")
	lag := 0.0 // batch-churn has no open loop
	if len(ps.lags) > 0 {
		lag = percentile(ps.lags, 99).Value
	}
	put("loadgen.lag_p99_ms", lag, "ms")
	put("loadgen.open_p50_ms", median0(ps.openP50), "ms")
	put("loadgen.open_p99_ms", median0(ps.openP99), "ms")
	fmt.Printf("  during the rounds: %.0f evaluations, %.0f programs compiled, %.0f layer-cache invalidations\n",
		d["evaluations"], d["compiled_programs"], d["layer_invalidations"])

	router := r.rig.senders[0]
	direct := map[string]*eisvc.Client{}
	for _, n := range r.rig.fl.Nodes() {
		direct[n.ID] = r.rig.client(n.URL)
	}
	trees, err := r.currentTrees()
	if err != nil {
		return err
	}
	memo, ledger, layer := eisvc.NewMemo(1024), eisvc.NewLedger(), core.NewLayerCache(core.DefaultLayerCapacity)
	for i, c := range r.set {
		memo.Put(replayKey(c.stack, c.method, c.args, c.opts()), r.refs[r.bind[c.stack]][i])
	}
	ops := hitPath(router, memo, ledger)
	evalOp := layerOp{"core.eval", func(q *replayReq) error {
		opts := q.opts
		opts.Layer = layer
		var err error
		q.dist, err = trees[q.c.stack].Eval(q.c.method, q.args, opts)
		memo.Put(q.key, q.dist)
		return err
	}}

	// The span-traced sample.
	tr := newTracer()
	// e2e and direct are the warm path: a sampled request that missed the
	// memo is timed again once its answer is cached, so the path's shares
	// split a memo hit on every workload. first is the sampled request
	// itself, hit or miss, which the untraced ones are compared with.
	type timed struct {
		req                int
		first, e2e, direct float64 // us
	}
	var (
		reqs     []*replayReq
		times    []timed
		untraced []float64
	)
	for i := 0; i < 2*traceSample; i++ {
		c, check := r.nextSample()
		if i%2 == 1 {
			t := time.Now()
			got, _, res := eval(router, c)
			untraced = append(untraced, us(time.Since(t)))
			if res.failed > 0 {
				return fmt.Errorf("traced sample: %s failed", c.id)
			}
			check(got)
			continue
		}
		root := tr.begin("request", i, 0)
		var (
			got, again      energy.Dist
			resp, dresp     *eisvc.EvalResponse
			res, res2, res3 result
		)
		e2eID := tr.begin("e2e", i, root)
		got, resp, res = eval(router, c)
		tr.end(e2eID)
		if res.failed > 0 {
			return fmt.Errorf("traced sample: %s failed through the router", c.id)
		}
		check(got)
		warmID := e2eID
		if !resp.Cached || resp.Peer {
			// A miss: time the warm path on the repeat.
			warmID = tr.begin("e2e_warm", i, root)
			_, _, res2 = eval(router, c)
			tr.end(warmID)
		}
		dc, ok := direct[resp.Node]
		if !ok {
			return fmt.Errorf("traced sample: answer from unknown node %q", resp.Node)
		}
		dirID := tr.begin("direct", i, root)
		again, dresp, res3 = eval(dc, c)
		tr.end(dirID)
		if res2.failed+res3.failed > 0 || !dresp.Cached {
			return fmt.Errorf("traced sample: %s: warm repeat failed or missed the memo", c.id)
		}
		check(again)

		q := &replayReq{c: c}
		rid := tr.begin("replay", i, root)
		for _, op := range ops {
			if op.name == "eisvc.encode_resp" && !q.hit {
				if err := traced(tr, evalOp, q, i, rid); err != nil {
					return err
				}
			}
			if err := traced(tr, op, q, i, rid); err != nil {
				return err
			}
		}
		tr.end(rid)
		tr.end(root)
		reqs = append(reqs, q)

		span := func(id int) float64 { s := tr.spans[id-1]; return us(s.End - s.Start) }
		times = append(times, timed{i, span(e2eID), span(warmID), span(dirID)})
	}
	// The path's shares per request: the router's is e2e minus direct, the
	// transport's is direct minus the in-process layers' self time.
	self := selfTimes(tr.spans)
	selfBy := map[string][]float64{}
	layerSum := map[int]float64{}
	for _, s := range tr.spans {
		if strings.HasPrefix(s.Name, "eisvc.") || s.Name == "core.key" {
			v := us(self[s.ID])
			selfBy[s.Name] = append(selfBy[s.Name], v)
			layerSum[s.Req] += v
		}
	}
	var first, e2e, routerShare, transportShare, layers []float64
	for _, t := range times {
		first = append(first, t.first)
		e2e = append(e2e, t.e2e)
		routerShare = append(routerShare, t.e2e-t.direct)
		transportShare = append(transportShare, t.direct-layerSum[t.req])
		layers = append(layers, layerSum[t.req])
	}
	e2eMed := median(e2e).Value
	sum := median(routerShare).Value + median(transportShare).Value
	for _, op := range ops {
		sum += median(selfBy[op.name]).Value
	}
	sumErr := (sum - e2eMed) / e2eMed * 100
	put("trace.e2e_us", e2eMed, "us")
	put("trace.router_us", median(routerShare).Value, "us")
	put("trace.transport_us", median(transportShare).Value, "us")
	put("trace.sum_err_pct", math.Abs(sumErr), "%")
	put("trace.overhead_pct", (median(first).Value-median(untraced).Value)/median(untraced).Value*100, "%")
	put("fleet.hop_us", median(routerShare).Value, "us")

	fmt.Printf("  traced requests: %d, first answer median %.2f us; warm path (self-time medians, us): e2e %.2f = router %.2f + transport %.2f + layers %.2f\n",
		len(e2e), median(first).Value, e2eMed, median(routerShare).Value, median(transportShare).Value, median(layers).Value)
	for _, op := range ops {
		fmt.Printf("    %-22s %8.3f us\n", op.name, median(selfBy[op.name]).Value)
	}
	verdict := "within"
	if sumErr > spec.PathSumTolerancePct || sumErr < -spec.PathSumTolerancePct {
		verdict = "OUTSIDE"
	}
	fmt.Printf("  sum of medians %.2f us vs e2e median %.2f us: %+.2f%%, %s the +/-%g%% tolerance\n",
		sum, e2eMed, sumErr, verdict, spec.PathSumTolerancePct)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.name, r.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	fmt.Printf("  spans: %d written to %s\n", len(tr.spans), path)

	// Each hit-path layer in isolation: median time per call over the
	// sampled requests and allocations per call.
	for _, op := range ops {
		ns, allocs, err := measure(reqs, op.run)
		if err != nil {
			return fmt.Errorf("%s: %w", op.name, err)
		}
		switch op.name {
		case "core.key":
			put("core.key_ns", ns, "ns")
			put("core.key_allocs", allocs, "count")
		case "eisvc.memo_get", "eisvc.ledger_record":
			put(op.name+"_ns", ns, "ns")
		default:
			put(op.name+"_ns", ns, "ns")
			put(op.name+"_allocs", allocs, "count")
		}
	}
	ns, _, err := measure(reqs, func(q *replayReq) error {
		_, err := energy.FromSorted(q.resp.Dist.Support, q.resp.Dist.Probs)
		return err
	})
	if err != nil {
		return err
	}
	put("energy.fromsorted_ns", ns, "ns")
	var supp, bytesOut []float64
	for _, q := range reqs {
		supp = append(supp, float64(q.dist.Len()))
		bytesOut = append(bytesOut, float64(len(q.respBin)))
	}
	put("energy.support_len", mean(supp), "count")
	put("eisvc.resp_bytes", median(bytesOut).Value, "B")

	if err := r.engineLayers(reqs, put); err != nil {
		return err
	}
	if err := r.probeAndReplicate(router, direct, put); err != nil {
		return err
	}
	return r.check.verify(r.or)
}

// currentTrees compiles every stack in-process, fresh, at the device
// binding the fleet serves it with.
func (r *run) currentTrees() (map[string]*core.Interface, error) {
	trees := map[string]*core.Interface{}
	for _, s := range stacks {
		t, err := buildTree(s, r.bind[s])
		if err != nil {
			return nil, err
		}
		trees[s] = t
	}
	return trees, nil
}

// traced runs op on q inside a span.
func traced(tr *tracer, op layerOp, q *replayReq, req, parent int) error {
	var err error
	tr.do(op.name, req, parent, func() { err = op.run(q) })
	if err != nil {
		return fmt.Errorf("%s: %w", op.name, err)
	}
	return nil
}

// measure times run over every request, layerReps calls each, and returns
// the median time per call in ns and the process-wide allocations per call.
func measure(reqs []*replayReq, run func(q *replayReq) error) (ns, allocs float64, err error) {
	per := make([]float64, len(reqs))
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for j, q := range reqs {
		t := time.Now()
		for k := 0; k < layerReps; k++ {
			if err := run(q); err != nil {
				return 0, 0, err
			}
		}
		per[j] = float64(time.Since(t).Nanoseconds()) / layerReps
	}
	runtime.ReadMemStats(&b)
	return median(per).Value, float64(b.Mallocs-a.Mallocs) / float64(len(reqs)*layerReps), nil
}

// engineLayers times the evaluation engines on the sampled requests:
// interpreted Fig. 1 evaluations with a layer cache, compiled
// specialization and VM runs, recompilation after a rebind, and EIL
// compilation of every registered source.
func (r *run) engineLayers(reqs []*replayReq, put func(string, float64, string)) error {
	distinct := map[string]call{}
	var order []string
	for _, q := range reqs {
		if _, ok := distinct[q.c.id]; !ok {
			distinct[q.c.id] = q.c
			order = append(order, q.c.id)
		}
	}
	trees, err := r.currentTrees()
	if err != nil {
		return err
	}
	layer := core.NewLayerCache(core.DefaultLayerCapacity)
	warmed := map[string]bool{}
	var interp, spec, vm []float64
	timeEval := func(t *core.Interface, c call, opts core.EvalOptions) (float64, error) {
		start := time.Now()
		_, err := t.Eval(c.method, c.args, opts)
		return us(time.Since(start)), err
	}
	for _, id := range order {
		c := distinct[id]
		t := trees[c.stack]
		if c.stack == fig1Stack {
			opts := c.opts()
			opts.Layer = layer
			v, err := timeEval(t, c, opts)
			if err != nil {
				return err
			}
			interp = append(interp, v)
			continue
		}
		// The first request per method compiles the program; later ones
		// find it warm and pay only for specialization to their args.
		first, err := timeEval(t, c, c.opts())
		if err != nil {
			return err
		}
		if !warmed[c.stack+"."+c.method] {
			warmed[c.stack+"."+c.method] = true
			continue
		}
		repeat, err := timeEval(t, c, c.opts())
		if err != nil {
			return err
		}
		spec = append(spec, first-repeat)
		vm = append(vm, repeat)
	}
	put("core.interp_eval_us", median0(interp), "us")
	put("opt.specialize_us", median0(spec), "us")
	put("opt.vm_eval_us", median0(vm), "us")

	var recompile []float64
	for _, s := range []string{gpt2Stack, moeStack} {
		var c *call
		for _, id := range order {
			if distinct[id].stack == s {
				cc := distinct[id]
				c = &cc
				break
			}
		}
		if c == nil {
			continue
		}
		dev := devices[s]
		var alt [2]*core.Interface
		for b := range alt {
			t, err := buildTree(s, b)
			if err != nil {
				return err
			}
			alt[b] = t.Binding(dev.path)
		}
		cur, b := trees[s], r.bind[s]
		for k := 0; k < recompileTrials; k++ {
			b = 1 - b
			next, err := cur.Rebind(dev.path, alt[b])
			if err != nil {
				return err
			}
			v, err := timeEval(next, *c, c.opts())
			if err != nil {
				return err
			}
			recompile = append(recompile, v/1000)
			cur = next
		}
	}
	put("opt.recompile_ms", median0(recompile), "ms")

	cnn, err := nativeCNN(0)
	if err != nil {
		return err
	}
	for _, s := range stackSources {
		var reg map[string]*core.Interface
		if s.name == "fig1" {
			reg = map[string]*core.Interface{"cnn_forward": cnn}
		}
		var xs []float64
		for k := 0; k < compileReps; k++ {
			start := time.Now()
			if _, err := eil.Compile(s.src, reg); err != nil {
				return fmt.Errorf("compile %s: %w", s.name, err)
			}
			xs = append(xs, float64(time.Since(start))/float64(time.Millisecond))
		}
		put("eil.compile_ms."+s.name, median(xs).Value, "ms")
	}
	return nil
}

// probeAndReplicate times a peer probe for an absent key, and the
// replication share of a rebind: through the router (which replicates to
// every node before answering) against the same rebind sent straight to
// the primary, after which the benchmark replicates it untimed.
func (r *run) probeAndReplicate(router *eisvc.Client, direct map[string]*eisvc.Client, put func(string, float64, string)) error {
	nodes := r.rig.fl.LiveNodes()
	var probe []float64
	for k := 0; k < probeKeys; k++ {
		start := time.Now()
		_, found, err := direct[nodes[len(nodes)-1].ID].CacheLookup(fmt.Sprintf("servebench-absent-%d", k))
		probe = append(probe, us(time.Since(start)))
		if err != nil || found {
			return fmt.Errorf("peer probe of an absent key: found=%v err=%v", found, err)
		}
	}
	put("eisvc.peer_probe_us", median(probe).Value, "us")

	ctx := context.Background()
	primary := nodes[0]
	dev := devices[gpt2Stack]
	var viaRouter, straight []float64
	for k := 0; k < replicatePairs; k++ {
		b := 1 - r.bind[gpt2Stack]
		start := time.Now()
		if err := r.rig.rebind(ctx, router, gpt2Stack, b); err != nil {
			return err
		}
		viaRouter = append(viaRouter, ms(time.Since(start)))
		start = time.Now()
		if _, err := direct[primary.ID].RebindCtx(ctx, gpt2Stack, dev.path, dev.targets[1-b]); err != nil {
			return err
		}
		straight = append(straight, ms(time.Since(start)))
		r.rig.fl.ReplicateFrom(primary)
	}
	put("fleet.replicate_ms", median(viaRouter).Value-median(straight).Value, "ms")
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median0 is the median, or 0 for a workload whose sample has no case.
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs).Value
}
