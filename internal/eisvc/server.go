package eisvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"energyclarity/internal/cache"
	"energyclarity/internal/core"
	"energyclarity/internal/drift"
	"energyclarity/internal/energy"

	// The daemon serves EIL interfaces through compiled programs;
	// importing opt registers the compiler with core.
	_ "energyclarity/internal/opt"
)

// Config tunes a Server. The zero value picks sane defaults.
type Config struct {
	// Workers bounds concurrent evaluations (default: GOMAXPROCS).
	Workers int
	// QueueLimit bounds requests waiting for a worker slot; arrivals
	// beyond it are shed with 429 (default 64).
	QueueLimit int
	// MemoCapacity bounds the memoization cache (default 1024 entries;
	// 0 keeps the default — use NoMemo to disable memoization).
	MemoCapacity int
	// NoMemo disables the memoization cache entirely.
	NoMemo bool
	// DefaultDeadline bounds how long a request may wait for a worker
	// slot when it does not carry its own deadline (default 5s).
	DefaultDeadline time.Duration
	// MaxSamples caps EvalRequest.Samples; larger asks are rejected with
	// 400 before touching the worker pool (default 1<<20).
	MaxSamples int
	// MaxEnumLimit likewise caps EvalRequest.EnumLimit (default 1<<20).
	MaxEnumLimit int
	// LayerCapacity bounds the compositional layer cache shared by all
	// evaluations (default core.DefaultLayerCapacity; 0 keeps the default —
	// use NoLayerCache to disable).
	LayerCapacity int
	// NoLayerCache disables the compositional layer cache: evaluations
	// recompute every sub-interface result. Mostly for benchmarking the
	// cache itself.
	NoLayerCache bool
	// MaxBatch caps the number of items in one /v1/evalbatch request
	// (default 1024).
	MaxBatch int
	// NodeID names this daemon instance in a fleet. When set it is echoed
	// on every response as X-Eisvc-Node and surfaced in /v1/stats, so
	// traces attribute answers (and hedged winners) to the serving node.
	NodeID string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 64
	}
	if c.MemoCapacity <= 0 {
		c.MemoCapacity = 1024
	}
	if c.NoMemo {
		c.MemoCapacity = 0
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 5 * time.Second
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 1 << 20
	}
	if c.MaxEnumLimit <= 0 {
		c.MaxEnumLimit = 1 << 20
	}
	if c.LayerCapacity <= 0 {
		c.LayerCapacity = core.DefaultLayerCapacity
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	return c
}

// Server is the energy-interface daemon: an http.Handler exposing the
// registry, the memoized evaluation service, and the stats endpoint.
// Construct with NewServer, seed the registry (wire registrations and/or
// Registry.RegisterInterface for native stacks), and serve.
type Server struct {
	cfg    Config
	reg    *Registry
	memo   *Memo
	layer  *core.LayerCache // nil when Config.NoLayerCache
	flight cache.Flight[evalOutcome]
	adm    *admission
	ledger *Ledger
	lat    *latencies
	mux    *http.ServeMux

	// nodeHeader is the X-Eisvc-Node value, built once (nil standalone).
	nodeHeader []string

	evalRequests  atomic.Uint64
	evaluations   atomic.Uint64
	coalesced     atomic.Uint64
	batchRequests atomic.Uint64
	batchItems    atomic.Uint64

	// Auto-optimizer sweeps (POST /v1/optimize): requests served, the
	// evaluations those sweeps issued, and how many of them a cache
	// answered (memo hit, coalesced, or peer).
	optimizeRequests   atomic.Uint64
	optimizeEvals      atomic.Uint64
	optimizeMemoServed atomic.Uint64

	// Peer cache forwarding (see SetPeerLookup): outbound lookups this
	// node issued on memo misses, and inbound /v1/cachelookup traffic it
	// answered for other nodes.
	peerLookup     atomic.Pointer[PeerLookup]
	peerHits       atomic.Uint64
	peerMisses     atomic.Uint64
	peerServed     atomic.Uint64
	peerServedHits atomic.Uint64

	// Fleet-resilience counters, aggregated from the client-reported
	// X-Eisvc-Attempt / X-Eisvc-Hedge headers.
	retriedRequests atomic.Uint64
	retryAttempts   atomic.Uint64
	hedgedRequests  atomic.Uint64

	// Drain state: once draining, evaluation endpoints shed with 503 and
	// idle is closed when the last in-flight evaluation finishes.
	drainMu      sync.Mutex
	draining     bool
	inflight     int
	idle         chan struct{}
	idleOnce     sync.Once
	shedDraining atomic.Uint64

	// Continuous calibration (see drift.go): the attached controller plus
	// loop counters surfaced at /v1/drift and /v1/stats.
	driftCtl       atomic.Pointer[drift.Controller]
	driftSteps     atomic.Uint64
	driftErrors    atomic.Uint64
	recalibrations atomic.Uint64
}

// NewServer returns a daemon with the given configuration.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		reg:    NewRegistry(),
		memo:   NewMemo(cfg.MemoCapacity),
		adm:    newAdmission(cfg.Workers, cfg.QueueLimit),
		ledger: NewLedger(),
		lat:    newLatencies(),
		mux:    http.NewServeMux(),
		idle:   make(chan struct{}),
	}
	if !cfg.NoLayerCache {
		s.layer = core.NewLayerCache(cfg.LayerCapacity)
	}
	if cfg.NodeID != "" {
		s.nodeHeader = []string{cfg.NodeID}
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/drift", s.handleDrift)
	s.mux.HandleFunc("POST /v1/register", s.handleRegister)
	s.mux.HandleFunc("GET /v1/interfaces", s.handleList)
	s.mux.HandleFunc("GET /v1/interfaces/{name}", s.handleDescribe)
	s.mux.HandleFunc("GET /v1/interfaces/{name}/source", s.handleSource)
	s.mux.HandleFunc("POST /v1/rebind", s.handleRebind)
	s.mux.HandleFunc("POST /v1/eval", s.handleEval)
	s.mux.HandleFunc("POST /v1/evalbatch", s.handleEvalBatch)
	s.mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("POST /v1/cachelookup", s.handleCacheLookup)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// Registry exposes the daemon's registry so embedding code (cmd/eid, the
// experiments rig) can seed native interfaces before serving.
func (s *Server) Registry() *Registry { return s.reg }

// NodeID returns the configured fleet node name ("" standalone).
func (s *Server) NodeID() string { return s.cfg.NodeID }

// ApplyRegistrySnapshot merges a replication snapshot into this node's
// registry (see Registry.ApplySnapshot) and, when anything new was
// installed, notes a layer-cache invalidation exactly as a local
// register/rebind would: the snapshot carries fresh interface versions,
// so entries keyed by the old versions are unreachable.
func (s *Server) ApplyRegistrySnapshot(snap RegistrySnapshot) int {
	applied := s.reg.ApplySnapshot(snap)
	if applied > 0 && s.layer != nil {
		s.layer.NoteInvalidation()
	}
	return applied
}

// PeerLookup asks the rest of the fleet for a memoized answer by its
// canonical memo key. It must return (dist, true) only on an exact hit;
// errors and misses are both "false". Implementations should bound their
// own time (the fleet router uses a short per-peer timeout) — the lookup
// runs on the singleflight leader's critical path.
type PeerLookup func(ctx context.Context, key string) (energy.Dist, bool)

// SetPeerLookup installs (or, with nil, removes) the fleet peer-cache
// hook. When set, a memo miss consults peers before paying for a local
// evaluation; a peer hit is stored in the local memo, so each key is
// fetched across the fleet at most once per node.
func (s *Server) SetPeerLookup(fn PeerLookup) {
	if fn == nil {
		s.peerLookup.Store(nil)
		return
	}
	s.peerLookup.Store(&fn)
}

// --- graceful drain ---

// beginEval admits one evaluation request into the drain accounting; it
// returns false when the server is draining (the caller must shed with
// 503) and otherwise the caller must run endEval when the request
// finishes.
func (s *Server) beginEval() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

// endEval releases what beginEval admitted.
func (s *Server) endEval() {
	s.drainMu.Lock()
	s.inflight--
	settled := s.draining && s.inflight == 0
	s.drainMu.Unlock()
	if settled {
		s.idleOnce.Do(func() { close(s.idle) })
	}
}

// BeginDrain stops admitting evaluation work: /v1/eval and /v1/evalbatch
// answer 503 (with Retry-After, so well-behaved clients fail over) while
// registry reads, registrations, and /v1/stats keep working. In-flight
// evaluations run to completion; wait for them with Drain. BeginDrain is
// idempotent.
func (s *Server) BeginDrain() {
	s.drainMu.Lock()
	s.draining = true
	settled := s.inflight == 0
	s.drainMu.Unlock()
	if settled {
		s.idleOnce.Do(func() { close(s.idle) })
	}
}

// Drain begins draining (if not already) and blocks until every in-flight
// evaluation has finished or ctx expires; on expiry it reports how many
// evaluations were still running.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	select {
	case <-s.idle:
		return nil
	case <-ctx.Done():
		s.drainMu.Lock()
		n := s.inflight
		s.drainMu.Unlock()
		return fmt.Errorf("eisvc: drain: %d evaluation(s) still in flight: %w", n, ctx.Err())
	}
}

// Draining reports whether the server has stopped admitting evaluations.
func (s *Server) Draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// InFlight returns the number of evaluation requests currently admitted.
func (s *Server) InFlight() int {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.inflight
}

// shedForDrain answers an evaluation request arriving after BeginDrain.
func (s *Server) shedForDrain(w http.ResponseWriter) {
	s.shedDraining.Add(1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "eisvc: draining — not admitting new evaluations")
}

// noteResilience aggregates the client-reported retry/hedge headers so
// /v1/stats shows fleet-wide resilience behavior.
func (s *Server) noteResilience(r *http.Request) {
	if v := r.Header.Get("X-Eisvc-Attempt"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 1 {
			s.retriedRequests.Add(1)
			s.retryAttempts.Add(uint64(n - 1))
		}
	}
	if r.Header.Get("X-Eisvc-Hedge") == "1" {
		s.hedgedRequests.Add(1)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.nodeHeader != nil {
		w.Header()[headerNode] = s.nodeHeader
	}
	s.mux.ServeHTTP(w, r)
}

// --- helpers ---

// Response header values are shared, pre-canonicalized slices: assigning
// one costs nothing, where Header.Set allocates a fresh slice per call.
var (
	jsonContentType   = []string{"application/json"}
	binaryContentType = []string{BinaryContentType}
)

// writeBody answers with buf's bytes under the given Content-Type.
func writeBody(w http.ResponseWriter, status int, ctype []string, buf *bytes.Buffer) {
	h := w.Header()
	h["Content-Type"] = ctype
	h["Content-Length"] = []string{strconv.Itoa(buf.Len())}
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	// Encode through a pooled buffer: one reusable allocation instead of
	// the encoder's per-call growth, and an exact Content-Length.
	buf := GetBuffer()
	defer PutBuffer(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, status, jsonContentType, buf)
}

// writeBin answers with a binary frame produced by encode. Encoding
// failures (an unsupported value type snuck into a payload) fall back to
// a JSON 500 — the error path stays human-readable.
func writeBin(w http.ResponseWriter, status int, encode func(*bytes.Buffer) error) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	if err := encode(buf); err != nil {
		writeError(w, http.StatusInternalServerError, "binary encode: %v", err)
		return
	}
	writeBody(w, status, binaryContentType, buf)
}

// binaryRequest reports whether the request body is a binary frame.
func binaryRequest(r *http.Request) bool {
	return IsBinaryContentType(r.Header.Get("Content-Type"))
}

// wantsBinary reports whether the client asked for a binary answer. The
// check is a substring match so a multi-valued Accept ("application/
// x-eisvc-bin, application/json") negotiates correctly.
func wantsBinary(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), BinaryContentType)
}

// readBody drains the request body into buf (the caller's pooled buffer)
// and hands the bytes to decode; whatever decode keeps aliases buf until
// the caller releases it. A false return means the 400 was written.
func readBody(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer, decode func(data []byte) error) bool {
	if _, err := buf.ReadFrom(r.Body); err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return false
	}
	if err := decode(buf.Bytes()); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// readEvalFrame reads an eval request into buf and returns its frame: a
// binary body is scanned in place, a JSON body decoded and framed once. A
// false return means the 400 was written.
func readEvalFrame(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) (f EvalFrame, ok bool) {
	var err error
	if binaryRequest(r) {
		return f, readBody(w, r, buf, func(data []byte) error {
			f, err = ScanEvalRequest(data)
			return err
		})
	}
	var req EvalRequest
	if !decodeJSON(w, r, &req) {
		return f, false
	}
	if f, err = FrameEvalRequest(buf, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return f, false
	}
	return f, true
}

// readBatchFrames is readEvalFrame for /v1/evalbatch.
func readBatchFrames(w http.ResponseWriter, r *http.Request, buf *bytes.Buffer) (frames []EvalFrame, ok bool) {
	var err error
	if binaryRequest(r) {
		return frames, readBody(w, r, buf, func(data []byte) error {
			frames, err = ScanBatchEvalRequest(data)
			return err
		})
	}
	var req BatchEvalRequest
	if !decodeJSON(w, r, &req) {
		return nil, false
	}
	if frames, err = FrameBatchEvalRequest(buf, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil, false
	}
	return frames, true
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// clientID identifies the requester for the energy ledger.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Eisvc-Client"); id != "" {
		return id
	}
	return "anonymous"
}

// --- handlers ---

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "interfaces": s.reg.Len()})
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, "empty source")
		return
	}
	names, err := s.reg.RegisterSource(req.Source)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "register: %v", err)
		return
	}
	if s.layer != nil {
		// Re-registration gives the stack fresh interface versions; old
		// layer-cache entries become unreachable (implicit invalidation).
		s.layer.NoteInvalidation()
	}
	resp := RegisterResponse{}
	for _, name := range names {
		iface, version, _ := s.reg.Get(name)
		resp.Registered = append(resp.Registered, infoFor(name, version, iface, false))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"interfaces": s.reg.List()})
}

func (s *Server) handleDescribe(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	iface, version, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no interface %q", name)
		return
	}
	_, native, _ := s.reg.Source(name)
	info := infoFor(name, version, iface, native)
	writeJSON(w, http.StatusOK, map[string]any{
		"interface": info,
		"describe":  iface.Describe(),
	})
}

func (s *Server) handleSource(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	src, native, ok := s.reg.Source(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no interface %q", name)
		return
	}
	if native {
		writeError(w, http.StatusNotFound, "interface %q is native (built in Go); no EIL source", name)
		return
	}
	writeJSON(w, http.StatusOK, SourceResponse{Name: name, Source: src})
}

func (s *Server) handleRebind(w http.ResponseWriter, r *http.Request) {
	var req RebindRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	version, err := s.reg.Rebind(req.Interface, req.Path, req.Target)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if _, _, ok := s.reg.Get(req.Interface); !ok {
			status = http.StatusNotFound
		}
		writeError(w, status, "rebind: %v", err)
		return
	}
	if s.layer != nil {
		// The rebind clone carries fresh versions along the rebound path;
		// entries for the untouched sibling subtrees stay live.
		s.layer.NoteInvalidation()
	}
	writeJSON(w, http.StatusOK, RebindResponse{Interface: req.Interface, Version: version})
}

// evalOutcome is what one coalesced evaluation produces: the distribution
// and whether it was resolved without running Eval locally — from the
// memo, or (peer) from another fleet node's warm cache.
type evalOutcome struct {
	dist    energy.Dist
	memoHit bool
	peer    bool
}

// evalCall is one admitted evaluation: the request's frame resolved
// against the registry, plus its memo key. The frame aliases the
// request's buffer, which outlives the call.
type evalCall struct {
	frame   EvalFrame
	name    string // the registry's own copy of the interface name
	iface   *core.Interface
	version uint64
	mode    core.Mode
	key     string
}

// withFrame returns the call for another frame on the same interface
// version (an optimize sweep's configurations).
func (c evalCall) withFrame(f EvalFrame) evalCall {
	c.frame = f
	c.key = memoKey(c.name, c.version, c.mode, &f)
	return c
}

// evaluate is the deferred half of a call: it decodes the arguments and
// options from the frame and runs the interface. Only a singleflight
// leader that missed every cache gets here.
func (c *evalCall) evaluate(ctx context.Context, layer *core.LayerCache) (energy.Dist, error) {
	args, fixed, err := c.frame.decode()
	if err != nil {
		return energy.Dist{}, err
	}
	return c.iface.EvalCtx(ctx, string(c.frame.Method), args, core.EvalOptions{
		Mode:        c.mode,
		Fixed:       fixed,
		EnumLimit:   int(c.frame.EnumLimit),
		Samples:     int(c.frame.Samples),
		Seed:        c.frame.Seed,
		Parallelism: int(c.frame.Parallelism),
		Layer:       layer, // nil (disabled) is valid
	})
}

// evalShared resolves one admitted evaluation. All evaluation paths
// (/v1/eval, /v1/evalbatch, /v1/optimize) funnel through here, so the
// discipline is uniform: memo lookup, then a singleflight keyed by the
// memo key — N concurrent identical misses run exactly one Eval — whose
// leader re-checks the memo (a flight that finished between our miss and
// the flight forming already published its answer), wins a worker slot
// under the usual admission rules, evaluates with the layer cache
// attached, and publishes to the memo.
//
// ctx is the request's own context; it cancels the running evaluation
// when the client disconnects, so an abandoned request frees its worker
// slot within one shard chunk instead of burning it to completion. wait
// additionally bounds the flight and queue waits only — once running, an
// evaluation is bounded by the samples/enum caps (and by ctx), not by the
// queue deadline. A cancelled coalesced leader fails its followers too
// (they see context.Canceled as a 503 and may retry).
func (s *Server) evalShared(ctx context.Context, wait time.Duration, c *evalCall) (out evalOutcome, coalesced bool, err error) {
	key := c.key
	if d, hit := s.memo.Get(key); hit {
		return evalOutcome{dist: d, memoHit: true}, false, nil
	}
	waitCtx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	out, coalesced, err = s.flight.Do(waitCtx, key, func() (evalOutcome, error) {
		if d, hit := s.memo.Get(key); hit {
			return evalOutcome{dist: d, memoHit: true}, nil
		}
		// Fleet peer forwarding: before paying for a local evaluation, ask
		// whether another node already holds this key warm. Running here —
		// on the singleflight leader, before admission — means one peer
		// round trip serves every coalesced waiter and never occupies a
		// worker slot. The distribution travels bit-exactly (WireDist
		// round-trips through energy.FromSorted), so a peer answer is
		// indistinguishable from a local one.
		if pl := s.peerLookup.Load(); pl != nil {
			if d, hit := (*pl)(waitCtx, key); hit {
				s.peerHits.Add(1)
				s.memo.Put(key, d)
				return evalOutcome{dist: d, memoHit: true, peer: true}, nil
			}
			s.peerMisses.Add(1)
		}
		release, err := s.adm.acquire(waitCtx)
		if err != nil {
			return evalOutcome{}, err
		}
		defer release()
		s.evaluations.Add(1)
		d, evalErr := c.evaluate(ctx, s.layer)
		if evalErr != nil {
			if errors.Is(evalErr, context.Canceled) || errors.Is(evalErr, context.DeadlineExceeded) {
				return evalOutcome{}, evalErr
			}
			return evalOutcome{}, &evalFailed{err: evalErr}
		}
		s.memo.Put(key, d)
		return evalOutcome{dist: d}, nil
	})
	if coalesced {
		s.coalesced.Add(1)
	}
	return out, coalesced, err
}

// evalFailed wraps an Interface.Eval error so writeEvalError can tell a
// malformed-evaluation failure (422) from admission shedding (429/503).
type evalFailed struct{ err error }

func (e *evalFailed) Error() string { return e.err.Error() }
func (e *evalFailed) Unwrap() error { return e.err }

// writeEvalError maps an evalShared error onto the wire.
func writeEvalError(w http.ResponseWriter, err error) {
	status := evalStatus(err)
	if status == http.StatusUnprocessableEntity {
		writeError(w, status, "eval: %v", err)
		return
	}
	writeError(w, status, "%v", err)
}

// evalStatus maps an evalShared error onto its HTTP status.
func evalStatus(err error) int {
	var ef *evalFailed
	switch {
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDeadline), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.As(err, &ef):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// admit validates a framed request's caps and mode and resolves its
// interface; it returns the call or a (status, message) rejection.
func (s *Server) admit(f *EvalFrame) (c evalCall, status int, errMsg string) {
	if f.Samples > int64(s.cfg.MaxSamples) {
		return c, http.StatusBadRequest, fmt.Sprintf("samples %d exceeds server cap %d", f.Samples, s.cfg.MaxSamples)
	}
	if f.EnumLimit > int64(s.cfg.MaxEnumLimit) {
		return c, http.StatusBadRequest, fmt.Sprintf("enum_limit %d exceeds server cap %d", f.EnumLimit, s.cfg.MaxEnumLimit)
	}
	mode, err := parseMode(f.Mode)
	if err != nil {
		return c, http.StatusBadRequest, err.Error()
	}
	e, ok := s.reg.lookup(f.Interface)
	if !ok {
		return c, http.StatusNotFound, fmt.Sprintf("no interface %q", f.Interface)
	}
	c = evalCall{name: e.name, iface: e.iface, version: e.version, mode: mode}
	return c.withFrame(*f), 0, ""
}

// queueWait returns the queue-wait bound for a request. deadlineMs <= 0
// (including the client-side NoDeadline sentinel, which well-behaved
// clients normalize to 0 before sending) means the server default.
func (s *Server) queueWait(deadlineMs int64) time.Duration {
	if deadlineMs > 0 {
		return time.Duration(deadlineMs) * time.Millisecond
	}
	return s.cfg.DefaultDeadline
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.evalRequests.Add(1)
	s.noteResilience(r)
	if !s.beginEval() {
		s.shedForDrain(w)
		return
	}
	defer s.endEval()
	buf := GetBuffer()
	defer PutBuffer(buf)
	f, ok := readEvalFrame(w, r, buf)
	if !ok {
		return
	}
	c, status, msg := s.admit(&f)
	if status != 0 {
		writeError(w, status, "%s", msg)
		return
	}
	out, coalesced, err := s.evalShared(r.Context(), s.queueWait(f.DeadlineMs), &c)
	if err != nil {
		writeEvalError(w, err)
		return
	}
	resp := EvalResponse{
		Interface: c.name,
		Version:   c.version,
		Method:    string(f.Method),
		Mode:      c.mode.String(),
		Dist:      ToWire(out.dist),
		Cached:    out.memoHit,
		Coalesced: coalesced,
		Peer:      out.peer,
		Node:      s.cfg.NodeID,
	}
	s.ledger.Record(clientID(r), c.name, out.dist, out.memoHit || coalesced)
	s.lat.observe(float64(time.Since(start)) / float64(time.Millisecond))
	if wantsBinary(r) {
		writeBin(w, http.StatusOK, func(buf *bytes.Buffer) error { return EncodeEvalResponse(buf, &resp) })
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleEvalBatch evaluates a slice of requests in one round trip. Items
// that canonicalize to the same memo key are deduplicated — one evaluation
// serves all of them — and the distinct residuals evaluate concurrently,
// each under the normal admission discipline (so a batch cannot bypass the
// worker-slot and queue bounds; it can only stop paying for duplicates).
// Item failures are per-item: a bad or shed item does not fail the batch.
func (s *Server) handleEvalBatch(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.batchRequests.Add(1)
	s.noteResilience(r)
	if !s.beginEval() {
		s.shedForDrain(w)
		return
	}
	defer s.endEval()
	buf := GetBuffer()
	defer PutBuffer(buf)
	frames, ok := readBatchFrames(w, r, buf)
	if !ok {
		return
	}
	if len(frames) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(frames) > s.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, "batch of %d exceeds server cap %d", len(frames), s.cfg.MaxBatch)
		return
	}
	s.batchItems.Add(uint64(len(frames)))

	items := make([]BatchEvalItem, len(frames))
	calls := make([]evalCall, len(frames))
	// first maps a memo key to the first item index that produced it; later
	// items with the same key share that item's evaluation.
	first := map[string]int{}
	for i := range frames {
		f := &frames[i]
		items[i] = BatchEvalItem{Interface: string(f.Interface), Method: string(f.Method)}
		c, status, msg := s.admit(f)
		if status != 0 {
			items[i].Status, items[i].Error = status, msg
			continue
		}
		calls[i] = c
		items[i].Version = c.version
		items[i].Mode = c.mode.String()
		if _, dup := first[c.key]; dup {
			items[i].Deduped = true
		} else {
			first[c.key] = i
		}
	}

	// Evaluate each distinct key once, concurrently. evalShared also
	// coalesces with in-flight singles and other batches.
	type keyResult struct {
		out       evalOutcome
		coalesced bool
		err       error
	}
	results := make(map[string]*keyResult, len(first))
	var wg sync.WaitGroup
	for key, i := range first {
		kr := &keyResult{}
		results[key] = kr
		wg.Add(1)
		go func(c *evalCall, kr *keyResult) {
			defer wg.Done()
			kr.out, kr.coalesced, kr.err = s.evalShared(r.Context(), s.queueWait(c.frame.DeadlineMs), c)
		}(&calls[i], kr)
	}
	wg.Wait()

	who := clientID(r)
	for i := range items {
		if items[i].Error != "" {
			continue
		}
		kr := results[calls[i].key]
		if kr.err != nil {
			items[i].Status, items[i].Error = evalStatus(kr.err), kr.err.Error()
			continue
		}
		items[i].Status = http.StatusOK
		d := ToWire(kr.out.dist)
		items[i].Dist = &d
		items[i].Cached = kr.out.memoHit
		items[i].Coalesced = kr.coalesced
		items[i].Peer = kr.out.peer
		s.ledger.Record(who, calls[i].name, kr.out.dist,
			kr.out.memoHit || kr.coalesced || items[i].Deduped)
	}
	s.lat.observe(float64(time.Since(start)) / float64(time.Millisecond))
	if wantsBinary(r) {
		writeBin(w, http.StatusOK, func(buf *bytes.Buffer) error {
			return EncodeBatchEvalResponse(buf, &BatchEvalResponse{Results: items})
		})
		return
	}
	writeJSON(w, http.StatusOK, BatchEvalResponse{Results: items})
}

// handleCacheLookup answers a fleet peer's memo probe. It is a pure read
// of the memo — no evaluation, no admission, no singleflight — so it
// stays cheap under fan-out and, deliberately, keeps working while the
// node drains: a draining node stops taking eval work but keeps donating
// its warm cache until it is torn down (that is what makes rebalancing
// free for warm keys).
func (s *Server) handleCacheLookup(w http.ResponseWriter, r *http.Request) {
	var req CacheLookupRequest
	if binaryRequest(r) {
		buf := GetBuffer()
		defer PutBuffer(buf)
		ok := readBody(w, r, buf, func(data []byte) error {
			rq, err := DecodeCacheLookupRequest(data)
			if err != nil {
				return err
			}
			req = *rq
			return nil
		})
		if !ok {
			return
		}
	} else if !decodeJSON(w, r, &req) {
		return
	}
	if req.Key == "" {
		writeError(w, http.StatusBadRequest, "empty key")
		return
	}
	s.peerServed.Add(1)
	d, hit := s.memo.Get(req.Key)
	resp := CacheLookupResponse{Key: req.Key, Node: s.cfg.NodeID}
	if hit {
		s.peerServedHits.Add(1)
		resp.Found = true
		wd := ToWire(d)
		resp.Dist = &wd
	}
	if wantsBinary(r) {
		writeBin(w, http.StatusOK, func(buf *bytes.Buffer) error { return EncodeCacheLookupResponse(buf, &resp) })
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	hits, misses, evictions, size := s.memo.Stats()
	queueFull, deadline := s.adm.sheds()
	depth, peak := s.adm.depth()
	clients, ifaces := s.ledger.Snapshot()
	resp := StatsResponse{
		Interfaces:    s.reg.Len(),
		EvalRequests:  s.evalRequests.Load(),
		Evaluations:   s.evaluations.Load(),
		MemoHits:      hits,
		MemoMisses:    misses,
		MemoEvictions: evictions,
		MemoLen:       size,
		ShedQueueFull: queueFull,
		ShedDeadline:  deadline,
		QueueDepth:    depth,
		PeakQueue:     peak,
		Workers:       s.cfg.Workers,
		QueueLimit:    s.cfg.QueueLimit,
		Latency:       s.lat.snapshot(),
		Clients:       clients,
		ByIface:       ifaces,
	}
	resp.NodeID = s.cfg.NodeID
	resp.Coalesced = s.coalesced.Load()
	resp.BatchRequests = s.batchRequests.Load()
	resp.BatchItems = s.batchItems.Load()
	resp.OptimizeRequests = s.optimizeRequests.Load()
	resp.OptimizeEvals = s.optimizeEvals.Load()
	resp.OptimizeMemoServed = s.optimizeMemoServed.Load()
	resp.PeerHits = s.peerHits.Load()
	resp.PeerMisses = s.peerMisses.Load()
	resp.PeerServed = s.peerServed.Load()
	resp.PeerServedHits = s.peerServedHits.Load()
	ps := core.ReadProgramStats()
	resp.CompiledPrograms = ps.CompiledPrograms
	resp.CompileFallbacks = ps.CompileFallbacks
	resp.CompiledEvals = ps.CompiledEvals
	resp.Draining = s.Draining()
	resp.InFlight = s.InFlight()
	resp.ShedDraining = s.shedDraining.Load()
	resp.RetriedRequests = s.retriedRequests.Load()
	resp.RetryAttempts = s.retryAttempts.Load()
	resp.HedgedRequests = s.hedgedRequests.Load()
	if ctl := s.DriftController(); ctl != nil {
		dst := ctl.Status()
		resp.DriftEnabled = true
		resp.DriftState = dst.Monitor.State.String()
		resp.DriftSamples = dst.Monitor.Samples
		resp.DriftDetections = dst.Detections
		resp.DriftEnergyBugs = dst.EnergyBugs
		resp.DriftGeneration = dst.Generations
		resp.RecalInProgress = dst.Recalibrating
		resp.Recalibrations = s.recalibrations.Load()
		resp.DriftSteps = s.driftSteps.Load()
		resp.DriftStepErrors = s.driftErrors.Load()
	}
	if total := hits + misses; total > 0 {
		resp.MemoHitRate = float64(hits) / float64(total)
	}
	if s.layer != nil {
		ls := s.layer.Stats()
		resp.LayerEnabled = true
		resp.LayerHits = ls.Hits
		resp.LayerMisses = ls.Misses
		resp.LayerEvictions = ls.Evictions
		resp.LayerLen = ls.Len
		resp.LayerInvalidations = ls.Invalidations
		if total := ls.Hits + ls.Misses; total > 0 {
			resp.LayerHitRate = float64(ls.Hits) / float64(total)
		}
	}
	for _, e := range clients {
		resp.AttribJ += e.MeanJ
		resp.AttribP99J += e.P99J
	}
	writeJSON(w, http.StatusOK, resp)
}
