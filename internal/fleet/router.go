package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"energyclarity/internal/eisvc"
)

// Router fronts a Fleet with the same wire API as a single daemon, so
// every eisvc.Client works against a fleet unchanged. Evaluations route
// to their stack's ring owners (spread across replicas by a request
// hash, so identical hot keys still fan over R nodes); a dead, draining,
// or shedding owner fails over to the next replica and then to any live
// node — correctness never depends on placement, because the replicated
// registry means every node can evaluate every stack; the ring only
// decides where caches get warm. Registry mutations serialize through
// the fleet primary and replicate before the response returns.
type Router struct {
	f   *Fleet
	fwd *http.Client
	aff *affinity

	routed       atomic.Uint64 // evaluation requests routed
	failovers    atomic.Uint64 // candidates skipped after a failure
	exhausted    atomic.Uint64 // requests no candidate could serve
	affinityHits atomic.Uint64 // evals steered to their last-serving node
}

// NewRouter returns a router over the fleet.
func NewRouter(f *Fleet) *Router {
	return &Router{
		f: f,
		// One pooled transport serves all nodes; MaxIdleConnsPerHost is the
		// satellite tuning that keeps fan-out off the dialer's hot path.
		fwd: &http.Client{Transport: eisvc.NewTransport(eisvc.TransportTuning{})},
		aff: newAffinity(0),
	}
}

// RouterCounters is a snapshot of the router's routing counters.
type RouterCounters struct {
	Routed       uint64
	Failovers    uint64
	Exhausted    uint64
	AffinityHits uint64
}

// Counters returns the router's routing counters.
func (rt *Router) Counters() RouterCounters {
	return RouterCounters{
		Routed:       rt.routed.Load(),
		Failovers:    rt.failovers.Load(),
		Exhausted:    rt.exhausted.Load(),
		AffinityHits: rt.affinityHits.Load(),
	}
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/v1/eval":
		rt.handleEval(w, r)
	case r.Method == http.MethodPost && r.URL.Path == "/v1/evalbatch":
		rt.handleEvalBatch(w, r)
	case r.Method == http.MethodPost && r.URL.Path == "/v1/optimize":
		rt.handleOptimize(w, r)
	case r.Method == http.MethodPost && (r.URL.Path == "/v1/register" || r.URL.Path == "/v1/rebind"):
		rt.handleMutate(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/v1/stats":
		rt.handleStats(w, r)
	default:
		// Reads (healthz, interfaces, drift, cachelookup, ...) are served
		// identically by every node thanks to registry replication.
		rt.forwardToAnyLive(w, r)
	}
}

// --- forwarding machinery ---

// forwardHeaders ride from the inbound request to the node so the serving
// node's codec negotiation, ledger, and stats attribute correctly;
// relayHeaders ride back. Both are canonical keys, and the value slices
// are shared rather than copied: Header.Set would allocate per value.
var (
	forwardHeaders = []string{"Content-Type", "Accept", "X-Eisvc-Client", "X-Eisvc-Attempt", "X-Eisvc-Hedge"}
	relayHeaders   = []string{"Content-Type", "X-Eisvc-Node", "Retry-After"}
)

// forward replays one request body to a node and returns the raw
// response.
func (rt *Router) forward(ctx context.Context, n *Node, r *http.Request, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, r.Method, n.URL+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for _, h := range forwardHeaders {
		if v := r.Header[h]; len(v) > 0 {
			req.Header[h] = v
		}
	}
	return rt.fwd.Do(req)
}

// relay copies a node's response to the client verbatim (plus the
// X-Eisvc-Node attribution the node stamped).
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	h := w.Header()
	for _, k := range relayHeaders {
		if v := resp.Header[k]; len(v) > 0 {
			h[k] = v
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// shedFailover reports whether a response should push the router to the
// next candidate: the node refused under load (429), or is draining or
// otherwise unavailable (503). Other statuses — including request errors
// like 400/404/422 — are the answer; every node would say the same.
func shedFailover(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// tryCandidates forwards body to each candidate in order until one
// yields a non-shed response; onServed (optional) learns which node
// answered before the response relays. It returns false when every
// candidate failed at the transport level or shed.
func (rt *Router) tryCandidates(w http.ResponseWriter, r *http.Request, body []byte, candidates []*Node, onServed func(n *Node)) bool {
	for i, n := range candidates {
		if i > 0 {
			rt.failovers.Add(1)
		}
		resp, err := rt.forward(r.Context(), n, r, body)
		if err != nil {
			continue // dead or partitioned node: next candidate
		}
		if shedFailover(resp.StatusCode) && i < len(candidates)-1 {
			resp.Body.Close()
			continue
		}
		if onServed != nil && resp.StatusCode/100 == 2 {
			onServed(n)
		}
		relay(w, resp)
		return true
	}
	return false
}

// writeExhausted answers when no node could serve. Deliberately a 503
// with no Retry-After: a retrying client applies its own short backoff
// instead of a server-imposed full-second sleep, which matters when the
// fleet is healing (a kill's replacement replica warms in milliseconds).
func (rt *Router) writeExhausted(w http.ResponseWriter, what string) {
	rt.exhausted.Add(1)
	writeJSON(w, http.StatusServiceUnavailable, eisvc.ErrorResponse{Error: "fleet: no node could serve " + what})
}

// placement is where one request goes: the candidates to try in order,
// and the affinity fingerprint that remembers who served it. warm means
// the first candidate is the node that last served this fingerprint.
type placement struct {
	cands  []*Node
	affKey uint64
	warm   bool
}

// place orders the nodes to try for a request on stack with the given
// spread hash: the stack's live ring owners first — rotated by the
// spread, so a hot stack's traffic fans over all R replicas instead of
// hammering the primary — then every other live node as a last resort.
// The node that last served this exact fingerprint (its memo is warm)
// moves to the front regardless of ring order. cands is scratch space
// the result reuses.
func (rt *Router) place(stack []byte, spread uint64, cands []*Node) placement {
	owners := rt.f.ownersOf(stack)
	p := placement{cands: cands[:0], affKey: hash64(stack) ^ spread}
	if len(owners) > 0 {
		rot := int(spread % uint64(len(owners)))
		for i := range owners {
			if n := owners[(rot+i)%len(owners)]; n.Live() {
				p.cands = append(p.cands, n)
			}
		}
	}
	for _, n := range rt.f.view.Load().nodes {
		if n.Live() && !slices.Contains(owners, n) {
			p.cands = append(p.cands, n)
		}
	}
	if id, ok := rt.aff.get(p.affKey); ok {
		for i, n := range p.cands {
			if n.ID == id {
				copy(p.cands[1:i+1], p.cands[0:i])
				p.cands[0] = n
				p.warm = true
				break
			}
		}
	}
	return p
}

// placeEval places one framed evaluation. Its spread hash covers the
// method, mode, seed, and the frame's canonical argument bytes, so
// repeated identical requests land on the same replica (maximizing memo
// locality) while distinct requests for the same stack spread across its
// owners. The splitmix finalizer matters: raw FNV low bits do not spread
// over R=2 owners.
func (rt *Router) placeEval(f *eisvc.EvalFrame, cands []*Node) placement {
	var seed [8]byte
	for i := range seed {
		seed[i] = byte(f.Seed >> (8 * i))
	}
	h := fnv1a(fnvOffset, f.Method)
	h = fnv1a(h, "|")
	h = fnv1a(h, f.Mode)
	h = fnv1a(h, "|")
	h = fnv1a(h, seed[:])
	h = fnv1a(h, f.Canon)
	return rt.place(f.Interface, mix64(h), cands)
}

// --- handlers ---

// scanEval reads one eval request body and frames it: a binary body is
// scanned in place, a JSON body decoded and framed once into buf. A
// false return means the 400 was written.
func (rt *Router) scanEval(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) (body []byte, f eisvc.EvalFrame, ok bool) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.badRequest(w, "read body: %v", err)
		return nil, f, false
	}
	if eisvc.IsBinaryContentType(r.Header.Get("Content-Type")) {
		if f, err = eisvc.ScanEvalRequest(body); err != nil {
			rt.badRequest(w, "bad binary request body: %v", err)
			return nil, f, false
		}
		return body, f, true
	}
	var req eisvc.EvalRequest
	if err := json.Unmarshal(body, &req); err != nil {
		rt.badRequest(w, "bad request body: %v", err)
		return nil, f, false
	}
	if f, err = eisvc.FrameEvalRequest(buf, &req); err != nil {
		rt.badRequest(w, "bad request body: %v", err)
		return nil, f, false
	}
	return body, f, true
}

// handleEval places an eval from its frame and forwards the client's
// exact bytes: the router never decodes a binary request.
func (rt *Router) handleEval(w http.ResponseWriter, r *http.Request) {
	rt.routed.Add(1)
	buf := eisvc.GetBuffer()
	defer eisvc.PutBuffer(buf)
	body, f, ok := rt.scanEval(w, r, buf)
	if !ok {
		return
	}
	var scratch [8]*Node
	if !rt.routeAffine(w, r, body, rt.placeEval(&f, scratch[:])) {
		rt.writeExhausted(w, "eval of "+string(f.Interface))
	}
}

// routeAffine forwards one request whose answer benefits from memo
// locality along its placement, recording which node served it. It
// returns false when no candidate could serve.
func (rt *Router) routeAffine(w http.ResponseWriter, r *http.Request, body []byte, p placement) bool {
	return rt.tryCandidates(w, r, body, p.cands, func(n *Node) {
		if p.warm && n == p.cands[0] {
			rt.affinityHits.Add(1)
		}
		rt.aff.put(p.affKey, n.ID)
	})
}

// handleOptimize routes a whole auto-optimizer sweep to one node — the
// stack's owner under the sweep fingerprint — so a repeat sweep lands
// where its per-evaluation memos are warm. A dead or shedding owner
// fails over like an eval; sweeps are deterministic, so the failover
// node fits a bit-identical frontier (a cold cache costs time, never
// correctness).
func (rt *Router) handleOptimize(w http.ResponseWriter, r *http.Request) {
	rt.routed.Add(1)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.badRequest(w, "read body: %v", err)
		return
	}
	var req eisvc.OptimizeRequest
	if eisvc.IsBinaryContentType(r.Header.Get("Content-Type")) {
		rq, err := eisvc.DecodeOptimizeRequest(body)
		if err != nil {
			rt.badRequest(w, "bad binary request body: %v", err)
			return
		}
		req = *rq
	} else if err := json.Unmarshal(body, &req); err != nil {
		rt.badRequest(w, "bad request body: %v", err)
		return
	}
	if !rt.routeAffine(w, r, body, rt.place([]byte(req.Interface), optimizeSpread(&req), nil)) {
		rt.writeExhausted(w, "optimize of "+req.Interface)
	}
}

// optimizeSpread fingerprints a sweep the way placeEval fingerprints an
// eval: identical sweeps land on the same replica, distinct sweeps over
// the same stack spread across its owners. The binary decoder yields the
// same field values as a JSON decode, so codecs agree.
func optimizeSpread(req *eisvc.OptimizeRequest) uint64 {
	var b bytes.Buffer
	b.WriteString(req.EnergyMethod)
	b.WriteByte('|')
	b.WriteString(req.LatencyMethod)
	b.WriteByte('|')
	b.WriteString(req.Mode)
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(req.Seed, 10))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(req.SLOMs, 'g', -1, 64))
	if raw, err := json.Marshal(req.Knobs); err == nil {
		b.Write(raw)
	}
	return hash64(b.String())
}

// handleEvalBatch splits a batch by each item's first-choice node — the
// same placement a single /v1/eval of the item gets — and forwards the
// sub-batches concurrently, stitching results back in request order. A
// sub-batch whose preferred node fails retries on the shared candidate
// list, so a mid-batch node kill surfaces as latency, not errors.
func (rt *Router) handleEvalBatch(w http.ResponseWriter, r *http.Request) {
	rt.routed.Add(1)
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		rt.badRequest(w, "read body: %v", err)
		return
	}
	// Sub-batches keep the inbound codec, so binary clients stay binary
	// hop to hop and JSON clients stay debuggable end to end. A binary
	// sub-batch is the items' own bytes, never re-encoded.
	binary := eisvc.IsBinaryContentType(r.Header.Get("Content-Type"))
	var req eisvc.BatchEvalRequest
	var frames []eisvc.EvalFrame
	if binary {
		if frames, err = eisvc.ScanBatchEvalRequest(raw); err != nil {
			rt.badRequest(w, "bad binary request body: %v", err)
			return
		}
	} else {
		if err := json.Unmarshal(raw, &req); err != nil {
			rt.badRequest(w, "bad request body: %v", err)
			return
		}
		buf := eisvc.GetBuffer()
		defer eisvc.PutBuffer(buf)
		if frames, err = eisvc.FrameBatchEvalRequest(buf, &req); err != nil {
			rt.badRequest(w, "bad request body: %v", err)
			return
		}
	}
	if len(frames) == 0 {
		rt.badRequest(w, "empty batch")
		return
	}

	// Group item indices by first-choice node ID. With no live node the
	// items fall into the "" group, which fails over like any other.
	groups := map[string][]int{}
	var scratch [8]*Node
	for i := range frames {
		pref := ""
		if p := rt.placeEval(&frames[i], scratch[:]); len(p.cands) > 0 {
			pref = p.cands[0].ID
		}
		groups[pref] = append(groups[pref], i)
	}

	results := make([]eisvc.BatchEvalItem, len(frames))
	var wg sync.WaitGroup
	for pref, idxs := range groups {
		wg.Add(1)
		go func(pref string, idxs []int) {
			defer wg.Done()
			var body []byte
			if binary {
				sub := make([]eisvc.EvalFrame, len(idxs))
				for j, i := range idxs {
					sub[j] = frames[i]
				}
				buf := eisvc.GetBuffer()
				defer eisvc.PutBuffer(buf)
				eisvc.EncodeBatchFrames(buf, sub)
				body = buf.Bytes()
			} else {
				sub := eisvc.BatchEvalRequest{Requests: make([]eisvc.EvalRequest, len(idxs))}
				for j, i := range idxs {
					sub.Requests[j] = req.Requests[i]
				}
				b, err := json.Marshal(sub)
				if err != nil {
					failGroup(results, idxs, frames, "marshal sub-batch: "+err.Error())
					return
				}
				body = b
			}
			items, ok := rt.forwardBatch(r, pref, body, len(idxs))
			if !ok {
				rt.exhausted.Add(1)
				failGroup(results, idxs, frames, "fleet: no node could serve batch")
				return
			}
			for j, i := range idxs {
				results[i] = items[j]
			}
		}(pref, idxs)
	}
	wg.Wait()
	out := eisvc.BatchEvalResponse{Results: results}
	if eisvc.IsBinaryContentType(r.Header.Get("Accept")) {
		buf := eisvc.GetBuffer()
		defer eisvc.PutBuffer(buf)
		if err := eisvc.EncodeBatchEvalResponse(buf, &out); err == nil {
			w.Header()["Content-Type"] = binaryContentType
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(buf.Bytes())
			return
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// forwardBatch sends one sub-batch to its preferred node, failing over
// to every other live node. It returns ok=false when no node answered.
func (rt *Router) forwardBatch(r *http.Request, pref string, body []byte, want int) ([]eisvc.BatchEvalItem, bool) {
	var candidates []*Node
	seen := map[string]bool{}
	if n, ok := rt.f.Node(pref); ok && n.Live() {
		candidates = append(candidates, n)
		seen[pref] = true
	}
	for _, n := range rt.f.LiveNodes() {
		if !seen[n.ID] {
			candidates = append(candidates, n)
		}
	}
	for i, n := range candidates {
		if i > 0 {
			rt.failovers.Add(1)
		}
		resp, err := rt.forward(r.Context(), n, r, body)
		if err != nil {
			continue
		}
		if shedFailover(resp.StatusCode) {
			resp.Body.Close()
			continue
		}
		data, err := io.ReadAll(resp.Body)
		ctype := resp.Header.Get("Content-Type")
		resp.Body.Close()
		if err != nil || resp.StatusCode/100 != 2 {
			continue
		}
		var out eisvc.BatchEvalResponse
		if eisvc.IsBinaryContentType(ctype) {
			dec, err := eisvc.DecodeBatchEvalResponse(data)
			if err != nil {
				continue
			}
			out = *dec
		} else if json.Unmarshal(data, &out) != nil {
			continue
		}
		if len(out.Results) != want {
			continue
		}
		return out.Results, true
	}
	return nil, false
}

// failGroup marks every item of a failed sub-batch as 503 so callers can
// retry item-by-item.
func failGroup(results []eisvc.BatchEvalItem, idxs []int, frames []eisvc.EvalFrame, msg string) {
	for _, i := range idxs {
		results[i] = eisvc.BatchEvalItem{
			Interface: string(frames[i].Interface),
			Method:    string(frames[i].Method),
			Status:    http.StatusServiceUnavailable,
			Error:     msg,
		}
	}
}

// handleMutate serializes a register/rebind through the fleet primary
// and replicates the resulting registry snapshot to every node before
// answering, so a client that mutates and immediately evaluates sees its
// write no matter which node the evaluation routes to.
func (rt *Router) handleMutate(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		rt.badRequest(w, "read body: %v", err)
		return
	}
	rt.f.mutMu.Lock()
	defer rt.f.mutMu.Unlock()
	p := rt.f.primary()
	if p == nil {
		rt.writeExhausted(w, r.URL.Path)
		return
	}
	resp, err := rt.forward(r.Context(), p, r, body)
	if err != nil {
		rt.writeExhausted(w, r.URL.Path)
		return
	}
	if resp.StatusCode/100 == 2 {
		rt.f.ReplicateFrom(p)
	}
	relay(w, resp)
}

// forwardToAnyLive serves reads: any live node answers identically.
func (rt *Router) forwardToAnyLive(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Body != nil {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			rt.badRequest(w, "read body: %v", err)
			return
		}
		body = b
	}
	for _, n := range rt.f.LiveNodes() {
		resp, err := rt.forward(r.Context(), n, r, body)
		if err != nil {
			rt.failovers.Add(1)
			continue
		}
		relay(w, resp)
		return
	}
	rt.writeExhausted(w, r.URL.Path)
}

func (rt *Router) badRequest(w http.ResponseWriter, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, eisvc.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// Shared Content-Type values for the router's own answers.
var (
	jsonContentType   = []string{"application/json"}
	binaryContentType = []string{eisvc.BinaryContentType}
)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// --- fleet stats ---

// FleetStats is the router's /v1/stats payload: cluster shape, routing
// counters, a fleet-wide aggregate, and each reachable node's own stats
// keyed by node ID.
type FleetStats struct {
	Nodes       int `json:"nodes"`
	LiveNodes   int `json:"live_nodes"`
	Replication int `json:"replication"`

	Routed       uint64 `json:"routed"`
	Failovers    uint64 `json:"failovers"`
	Exhausted    uint64 `json:"exhausted"`
	AffinityHits uint64 `json:"affinity_hits"`

	Aggregate eisvc.StatsResponse             `json:"aggregate"`
	PerNode   map[string]*eisvc.StatsResponse `json:"per_node"`
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Stats(r.Context()))
}

// Stats gathers per-node stats and folds them into a fleet aggregate.
// Unreachable nodes are skipped (they still count in Nodes).
func (rt *Router) Stats(ctx context.Context) *FleetStats {
	nodes := rt.f.Nodes()
	c := rt.Counters()
	fs := &FleetStats{
		Nodes:        len(nodes),
		Replication:  rt.f.cfg.Replication,
		Routed:       c.Routed,
		Failovers:    c.Failovers,
		Exhausted:    c.Exhausted,
		AffinityHits: c.AffinityHits,
		PerNode:      map[string]*eisvc.StatsResponse{},
	}
	var latWeighted float64
	for _, n := range nodes {
		if n.Live() {
			fs.LiveNodes++
		}
		if !n.reachable() {
			continue
		}
		st, err := n.peer.StatsCtx(ctx)
		if err != nil {
			continue
		}
		fs.PerNode[n.ID] = st
		agg := &fs.Aggregate
		if st.Interfaces > agg.Interfaces {
			agg.Interfaces = st.Interfaces
		}
		agg.EvalRequests += st.EvalRequests
		agg.Evaluations += st.Evaluations
		agg.MemoHits += st.MemoHits
		agg.MemoMisses += st.MemoMisses
		agg.MemoEvictions += st.MemoEvictions
		agg.MemoLen += st.MemoLen
		agg.Coalesced += st.Coalesced
		agg.BatchRequests += st.BatchRequests
		agg.BatchItems += st.BatchItems
		agg.OptimizeRequests += st.OptimizeRequests
		agg.OptimizeEvals += st.OptimizeEvals
		agg.OptimizeMemoServed += st.OptimizeMemoServed
		agg.PeerHits += st.PeerHits
		agg.PeerMisses += st.PeerMisses
		agg.PeerServed += st.PeerServed
		agg.PeerServedHits += st.PeerServedHits
		agg.LayerEnabled = agg.LayerEnabled || st.LayerEnabled
		agg.LayerHits += st.LayerHits
		agg.LayerMisses += st.LayerMisses
		agg.LayerEvictions += st.LayerEvictions
		agg.LayerLen += st.LayerLen
		agg.LayerInvalidations += st.LayerInvalidations
		agg.ShedQueueFull += st.ShedQueueFull
		agg.ShedDeadline += st.ShedDeadline
		agg.ShedDraining += st.ShedDraining
		agg.QueueDepth += st.QueueDepth
		if st.PeakQueue > agg.PeakQueue {
			agg.PeakQueue = st.PeakQueue
		}
		agg.Workers += st.Workers
		agg.QueueLimit += st.QueueLimit
		agg.InFlight += st.InFlight
		agg.RetriedRequests += st.RetriedRequests
		agg.RetryAttempts += st.RetryAttempts
		agg.HedgedRequests += st.HedgedRequests
		agg.AttribJ += st.AttribJ
		agg.AttribP99J += st.AttribP99J
		agg.Latency.Count += st.Latency.Count
		latWeighted += st.Latency.MeanMs * float64(st.Latency.Count)
		if st.Latency.P50Ms > agg.Latency.P50Ms {
			agg.Latency.P50Ms = st.Latency.P50Ms
		}
		if st.Latency.P99Ms > agg.Latency.P99Ms {
			agg.Latency.P99Ms = st.Latency.P99Ms
		}
		if st.Latency.MaxMs > agg.Latency.MaxMs {
			agg.Latency.MaxMs = st.Latency.MaxMs
		}
	}
	if fs.Aggregate.Latency.Count > 0 {
		fs.Aggregate.Latency.MeanMs = latWeighted / float64(fs.Aggregate.Latency.Count)
	}
	if total := fs.Aggregate.MemoHits + fs.Aggregate.MemoMisses; total > 0 {
		fs.Aggregate.MemoHitRate = float64(fs.Aggregate.MemoHits) / float64(total)
	}
	if total := fs.Aggregate.LayerHits + fs.Aggregate.LayerMisses; total > 0 {
		fs.Aggregate.LayerHitRate = float64(fs.Aggregate.LayerHits) / float64(total)
	}
	return fs
}

// StartRouter listens on addr ("" means an ephemeral loopback port) and
// serves a new router for the fleet. It returns the router (for
// counters/stats), its base URL, and a shutdown func.
func (f *Fleet) StartRouter(addr string) (*Router, string, func(), error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", nil, fmt.Errorf("fleet: router: %w", err)
	}
	rt := NewRouter(f)
	hs := &http.Server{Handler: rt}
	done := make(chan struct{})
	go func() {
		_ = hs.Serve(ln)
		close(done)
	}()
	shutdown := func() {
		_ = hs.Close()
		<-done
	}
	return rt, "http://" + ln.Addr().String(), shutdown, nil
}
