package eisvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/energy"
)

// APIError is a non-2xx daemon answer. Shed requests surface as
// StatusTooManyRequests (queue full) or StatusServiceUnavailable (queue
// deadline, or a draining daemon); callers distinguish them by Status.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the parsed Retry-After header, when the server sent
	// one (it did so because it wants the client to back off at least
	// this long before retrying).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("eisvc: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
}

// Shed reports whether the daemon refused the request under load.
func (e *APIError) Shed() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// DefaultTimeout bounds one HTTP attempt when Client.Timeout is zero: a
// hung daemon must never block a caller forever.
const DefaultTimeout = 30 * time.Second

// NoDeadline is the explicit "do not stamp a queue-wait deadline on this
// request" sentinel for EvalRequest.DeadlineMs: a negative value tells the
// client to leave the item alone (the server default applies) instead of
// overwriting it with Client.Deadline, which is what DeadlineMs == 0 gets.
const NoDeadline = -1

// Resilience headers: clients report their retry attempt number and hedge
// status so the daemon's /v1/stats can aggregate fleet-wide retry/hedge
// behavior without client-side scraping.
const (
	headerClient  = "X-Eisvc-Client"
	headerAttempt = "X-Eisvc-Attempt"
	headerHedge   = "X-Eisvc-Hedge"
	// headerNode names the serving node on every answer (Config.NodeID).
	headerNode = "X-Eisvc-Node"
)

// Client is the typed Go client for the daemon. Every method has a
// context-taking variant (EvalCtx, StatsCtx, ...); the plain spellings use
// context.Background(). All requests carry a per-attempt HTTP timeout, so
// a stalled daemon surfaces as an error instead of a hang.
type Client struct {
	base string
	http *http.Client
	// ID names this client in the daemon's energy ledger (the
	// X-Eisvc-Client header); empty means "anonymous".
	ID string
	// Deadline, when non-zero, is sent as every eval's queue-wait bound.
	Deadline time.Duration
	// Timeout bounds each HTTP attempt (default DefaultTimeout; negative
	// disables the bound — the caller's ctx is then the only limit).
	Timeout time.Duration
	// Retry, when non-nil, retries idempotent requests (evals and reads —
	// never Register/Rebind) per the policy. Shed answers honor the
	// server's Retry-After.
	Retry *RetryPolicy
	// Hedge, when positive, races a second identical request after this
	// delay for idempotent calls still in flight — the classic
	// tail-latency hedge. The first answer wins; the loser is cancelled.
	Hedge time.Duration
	// Binary switches the hot-path calls (Eval, EvalBatch, CacheLookup)
	// to the length-prefixed binary codec: the request body is sent as
	// BinaryContentType and the same is offered in Accept. Requires a
	// daemon that speaks the codec; everything else (register, stats,
	// drift, ...) stays on the JSON debug path regardless.
	Binary bool

	retries   atomic.Uint64
	hedges    atomic.Uint64
	hedgeWins atomic.Uint64
	shed      atomic.Uint64

	// idHdr caches the X-Eisvc-Client header value for ID.
	idHdr atomic.Pointer[[]string]
}

// idHeader returns the shared X-Eisvc-Client value, rebuilt only when ID
// changed since the last request.
func (c *Client) idHeader() []string {
	if p := c.idHdr.Load(); p != nil && (*p)[0] == c.ID {
		return *p
	}
	v := []string{c.ID}
	c.idHdr.Store(&v)
	return v
}

// contentTypeValue returns the shared header value for one of the two
// codecs' media types ("" means JSON), so setting it allocates nothing.
func contentTypeValue(v string) []string {
	switch v {
	case "", "application/json":
		return jsonContentType
	case BinaryContentType:
		return binaryContentType
	}
	return []string{v}
}

// NewClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:7757").
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), http: &http.Client{}}
}

// SetTransport replaces the underlying HTTP transport — the hook the
// fault-injection harness (internal/faultsim) uses to wrap the client.
func (c *Client) SetTransport(rt http.RoundTripper) { c.http.Transport = rt }

// Base returns the daemon base URL this client targets.
func (c *Client) Base() string { return c.base }

// DefaultMaxIdleConnsPerHost sizes the per-daemon idle connection pool of
// a tuned transport. The stock http.DefaultTransport keeps only 2 idle
// conns per host, so fleet fan-out (a router or peer-forwarding node
// talking to the same daemon from tens of goroutines) would dial a fresh
// TCP connection on nearly every burst; 64 keeps the whole burst warm.
const DefaultMaxIdleConnsPerHost = 64

// TransportTuning sizes a client's HTTP connection pool for fleet
// fan-out. The zero value picks the fleet defaults.
type TransportTuning struct {
	// MaxIdleConnsPerHost bounds idle conns kept per daemon (default
	// DefaultMaxIdleConnsPerHost; negative means the transport default).
	MaxIdleConnsPerHost int
	// MaxConnsPerHost bounds total conns per daemon, dialing included;
	// 0 means unlimited. Use it to stop a retry storm from piling
	// unbounded sockets onto one struggling node.
	MaxConnsPerHost int
	// MaxIdleConns bounds the pool across all daemons (default: scales
	// with MaxIdleConnsPerHost so a router talking to N nodes is not
	// capped by the stock global limit of 100).
	MaxIdleConns int
	// IdleConnTimeout evicts idle conns (default 90s, the stock value).
	IdleConnTimeout time.Duration
}

// NewTransport builds an *http.Transport tuned per t, cloned from
// http.DefaultTransport so proxy/dialer defaults are preserved.
func NewTransport(t TransportTuning) *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	switch {
	case t.MaxIdleConnsPerHost > 0:
		tr.MaxIdleConnsPerHost = t.MaxIdleConnsPerHost
	case t.MaxIdleConnsPerHost == 0:
		tr.MaxIdleConnsPerHost = DefaultMaxIdleConnsPerHost
	}
	tr.MaxConnsPerHost = t.MaxConnsPerHost
	if t.MaxIdleConns > 0 {
		tr.MaxIdleConns = t.MaxIdleConns
	} else if tr.MaxIdleConnsPerHost > tr.MaxIdleConns/4 {
		// Room for ~16 hosts' worth of warm conns before global eviction.
		tr.MaxIdleConns = 16 * tr.MaxIdleConnsPerHost
	}
	if t.IdleConnTimeout > 0 {
		tr.IdleConnTimeout = t.IdleConnTimeout
	}
	return tr
}

// TuneTransport installs a tuned transport (see TransportTuning) and
// returns the client, so construction chains:
//
//	c := eisvc.NewClient(base).TuneTransport(eisvc.TransportTuning{})
func (c *Client) TuneTransport(t TransportTuning) *Client {
	c.http.Transport = NewTransport(t)
	return c
}

// Counters is a snapshot of the client's resilience counters.
type Counters struct {
	Retries   uint64 // re-sent attempts (attempt >= 2)
	Hedges    uint64 // hedge requests launched
	HedgeWins uint64 // hedges that answered before the primary
	Shed      uint64 // 429/503 answers observed (before any retry succeeded)
}

// Counters returns the client's resilience counters.
func (c *Client) Counters() Counters {
	return Counters{
		Retries:   c.retries.Load(),
		Hedges:    c.hedges.Load(),
		HedgeWins: c.hedgeWins.Load(),
		Shed:      c.shed.Load(),
	}
}

// exchange performs exactly one HTTP round trip and returns the response
// body in a pooled buffer (the caller decodes and releases it) plus
// whether the response came back in the binary codec. The body is always
// read to completion (and the error path decoded from it), so the
// underlying connection is reusable whether or not the caller wants the
// payload.
func (c *Client) exchange(ctx context.Context, method, path string, payload []byte, ctype, accept string, attempt int, hedge bool) (*bytes.Buffer, bool, error) {
	if c.Timeout >= 0 {
		timeout := c.Timeout
		if timeout == 0 {
			timeout = DefaultTimeout
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, false, err
	}
	if payload != nil {
		req.Header["Content-Type"] = contentTypeValue(ctype)
	}
	if accept != "" {
		req.Header["Accept"] = contentTypeValue(accept)
	}
	if c.ID != "" {
		req.Header[headerClient] = c.idHeader()
	}
	if attempt > 1 {
		req.Header.Set(headerAttempt, strconv.Itoa(attempt))
	}
	if hedge {
		req.Header.Set(headerHedge, "1")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	buf := GetBuffer()
	_, err = buf.ReadFrom(resp.Body)
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode, Message: resp.Status}
		var wire ErrorResponse
		// Errors are always JSON, whatever the request's codec.
		if json.Unmarshal(buf.Bytes(), &wire) == nil && wire.Error != "" {
			apiErr.Message = wire.Error
		}
		PutBuffer(buf)
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				apiErr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		if apiErr.Shed() {
			c.shed.Add(1)
		}
		return nil, false, apiErr
	}
	if err != nil {
		PutBuffer(buf)
		return nil, false, err
	}
	return buf, IsBinaryContentType(resp.Header.Get("Content-Type")), nil
}

// attempt is one try of the retry loop: a plain exchange, or — for
// idempotent requests with hedging enabled — a primary exchange raced
// against a hedge launched after the Hedge delay. The first success wins
// and the loser is cancelled; when the primary fails before the hedge
// launches there is nothing worth hedging (the retry loop backs off
// instead), and when both fail the first error is returned.
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte, ctype, accept string, attempt int, idempotent bool) (*bytes.Buffer, bool, error) {
	if c.Hedge <= 0 || !idempotent {
		return c.exchange(ctx, method, path, payload, ctype, accept, attempt, false)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // aborts the loser once a winner returns
	type result struct {
		buf    *bytes.Buffer
		binary bool
		err    error
		hedge  bool
	}
	ch := make(chan result, 2)
	run := func(hedge bool) {
		go func() {
			buf, binary, err := c.exchange(hctx, method, path, payload, ctype, accept, attempt, hedge)
			ch <- result{buf, binary, err, hedge}
		}()
	}
	run(false)
	timer := time.NewTimer(c.Hedge)
	defer timer.Stop()
	inflight, hedged := 1, false
	var firstErr error
	for {
		select {
		case <-timer.C:
			hedged = true
			c.hedges.Add(1)
			run(true)
			inflight++
		case r := <-ch:
			inflight--
			if r.err == nil {
				if r.hedge {
					c.hedgeWins.Add(1)
				}
				// A losing sibling still in flight delivers to the buffered
				// channel and its buffer is simply collected by the GC; only
				// the winner's buffer returns to the caller (and the pool).
				return r.buf, r.binary, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if inflight > 0 {
				continue // the sibling may still succeed
			}
			if !hedged {
				return nil, false, r.err // primary failed before the hedge fired
			}
			return nil, false, firstErr
		}
	}
}

// retryAfterOf extracts a shed answer's Retry-After hint, if any.
func retryAfterOf(err error) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.RetryAfter
	}
	return 0
}

// do is the request engine behind every client method: attempt up to
// Retry.MaxAttempts times (idempotent requests only), sleeping
// exponential-backoff-with-full-jitter delays between attempts and
// honoring the server's Retry-After floor. payload must stay valid for
// the whole call (every attempt re-reads it); decode, when non-nil, runs
// on the winning response body before its pooled buffer is released, so
// it must copy anything it keeps — both codec paths do.
func (c *Client) do(ctx context.Context, method, path string, payload []byte, ctype, accept string, decode func(data []byte, binary bool) error, idempotent bool) error {
	attempts := 1
	if idempotent {
		attempts = c.Retry.attempts()
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
			delay := c.Retry.delay(attempt-1, retryAfterOf(lastErr))
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		buf, binary, err := c.attempt(ctx, method, path, payload, ctype, accept, attempt, idempotent)
		if err == nil {
			if decode == nil {
				PutBuffer(buf)
				return nil
			}
			derr := decode(buf.Bytes(), binary)
			PutBuffer(buf)
			return derr
		}
		lastErr = err
		if ctx.Err() != nil {
			// The caller's context expired: its error, not the attempt's,
			// is what the caller should see.
			return err
		}
		if attempt == attempts || c.Retry == nil || !c.Retry.shouldRetry(err) {
			return err
		}
	}
	return lastErr
}

// doCtx is the JSON spelling of do: marshal the body once, unmarshal
// the answer into out. The payload buffer is deliberately NOT pooled:
// an abandoned hedge or retry attempt's transport goroutine can still
// be reading the request body after do returns, so recycling its
// backing array would hand racing bytes to the next request. The GC
// collects it once the last transport reference drops.
func (c *Client) doCtx(ctx context.Context, method, path string, body, out any, idempotent bool) error {
	var payload []byte
	if body != nil {
		var pb bytes.Buffer
		if err := json.NewEncoder(&pb).Encode(body); err != nil {
			return err
		}
		payload = pb.Bytes()
	}
	var decode func(data []byte, binary bool) error
	if out != nil {
		decode = func(data []byte, _ bool) error { return json.Unmarshal(data, out) }
	}
	return c.do(ctx, method, path, payload, "application/json", "", decode, idempotent)
}

// doBin is the binary spelling of do for the hot-path endpoints: encode
// fills the request buffer with a binary frame, decode parses the
// response by the codec the server actually chose (binary when our
// Accept was honored; JSON from a daemon that pre-dates the codec).
// Like doCtx, the payload buffer is not pooled: an abandoned hedge or
// retry may still be streaming it when do returns.
func (c *Client) doBin(ctx context.Context, path string, encode func(*bytes.Buffer) error, decode func(data []byte, binary bool) error, idempotent bool) error {
	var pb bytes.Buffer
	if err := encode(&pb); err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, path, pb.Bytes(), BinaryContentType, BinaryContentType, decode, idempotent)
}

// Health checks the daemon is up.
func (c *Client) Health() error { return c.HealthCtx(context.Background()) }

// HealthCtx is Health bounded by ctx.
func (c *Client) HealthCtx(ctx context.Context) error {
	return c.doCtx(ctx, http.MethodGet, "/healthz", nil, nil, true)
}

// Healthz fetches the typed readiness probe: whether the daemon is
// admitting evaluations, draining, or mid-recalibration.
func (c *Client) Healthz() (*HealthzResponse, error) {
	return c.HealthzCtx(context.Background())
}

// HealthzCtx is Healthz bounded by ctx.
func (c *Client) HealthzCtx(ctx context.Context) (*HealthzResponse, error) {
	var resp HealthzResponse
	if err := c.doCtx(ctx, http.MethodGet, "/v1/healthz", nil, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Drift fetches the drift monitor's state and the calibration generation
// registry. The daemon answers 404 when drift monitoring is not enabled.
func (c *Client) Drift() (*DriftResponse, error) {
	return c.DriftCtx(context.Background())
}

// DriftCtx is Drift bounded by ctx.
func (c *Client) DriftCtx(ctx context.Context) (*DriftResponse, error) {
	var resp DriftResponse
	if err := c.doCtx(ctx, http.MethodGet, "/v1/drift", nil, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Register uploads an EIL source file and returns the registered
// interfaces. Registrations mutate the daemon and are never retried.
func (c *Client) Register(source string) ([]InterfaceInfo, error) {
	return c.RegisterCtx(context.Background(), source)
}

// RegisterCtx is Register bounded by ctx.
func (c *Client) RegisterCtx(ctx context.Context, source string) ([]InterfaceInfo, error) {
	var resp RegisterResponse
	if err := c.doCtx(ctx, http.MethodPost, "/v1/register", RegisterRequest{Source: source}, &resp, false); err != nil {
		return nil, err
	}
	return resp.Registered, nil
}

// Interfaces lists the registered interfaces.
func (c *Client) Interfaces() ([]InterfaceInfo, error) {
	return c.InterfacesCtx(context.Background())
}

// InterfacesCtx is Interfaces bounded by ctx.
func (c *Client) InterfacesCtx(ctx context.Context) ([]InterfaceInfo, error) {
	var resp struct {
		Interfaces []InterfaceInfo `json:"interfaces"`
	}
	if err := c.doCtx(ctx, http.MethodGet, "/v1/interfaces", nil, &resp, true); err != nil {
		return nil, err
	}
	return resp.Interfaces, nil
}

// Source fetches the EIL source an interface was registered from.
func (c *Client) Source(name string) (string, error) {
	return c.SourceCtx(context.Background(), name)
}

// SourceCtx is Source bounded by ctx.
func (c *Client) SourceCtx(ctx context.Context, name string) (string, error) {
	var resp SourceResponse
	if err := c.doCtx(ctx, http.MethodGet, "/v1/interfaces/"+name+"/source", nil, &resp, true); err != nil {
		return "", err
	}
	return resp.Source, nil
}

// Rebind swaps the binding at path inside name for the registered
// interface target and returns name's new version. Rebinds mutate the
// daemon and are never retried.
func (c *Client) Rebind(name, path, target string) (uint64, error) {
	return c.RebindCtx(context.Background(), name, path, target)
}

// RebindCtx is Rebind bounded by ctx.
func (c *Client) RebindCtx(ctx context.Context, name, path, target string) (uint64, error) {
	var resp RebindResponse
	err := c.doCtx(ctx, http.MethodPost, "/v1/rebind",
		RebindRequest{Interface: name, Path: path, Target: target}, &resp, false)
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// Eval evaluates an energy method on the daemon and returns the exact
// distribution (bit-identical to a local Interface.Eval with the same
// options) plus the full wire response.
func (c *Client) Eval(name, method string, args []core.Value, opts core.EvalOptions) (energy.Dist, *EvalResponse, error) {
	return c.EvalCtx(context.Background(), name, method, args, opts)
}

// EvalCtx is Eval bounded by ctx: cancelling it abandons the request —
// the daemon observes the disconnect and cancels the evaluation, freeing
// its worker slot. Evaluations are deterministic and idempotent, so they
// retry (and hedge) per the client's policy.
func (c *Client) EvalCtx(ctx context.Context, name, method string, args []core.Value, opts core.EvalOptions) (energy.Dist, *EvalResponse, error) {
	deadlineMs := int(c.Deadline / time.Millisecond)
	var resp EvalResponse
	var err error
	if c.Binary {
		// Frame the core values directly: the same bytes EvalRequestFor
		// plus EncodeEvalRequest would produce, without the JSON-shaped
		// detour.
		err = c.doBin(ctx, "/v1/eval",
			func(pb *bytes.Buffer) error {
				encodeEvalCall(pb, name, method, args, opts, deadlineMs)
				return nil
			},
			func(data []byte, binary bool) error {
				if !binary {
					return json.Unmarshal(data, &resp)
				}
				r, derr := DecodeEvalResponse(data)
				if derr != nil {
					return derr
				}
				resp = *r
				return nil
			}, true)
	} else {
		req := c.EvalRequestFor(name, method, args, opts)
		req.DeadlineMs = deadlineMs
		err = c.doCtx(ctx, http.MethodPost, "/v1/eval", req, &resp, true)
	}
	if err != nil {
		return energy.Dist{}, nil, err
	}
	d, err := resp.Dist.Dist()
	if err != nil {
		return energy.Dist{}, nil, fmt.Errorf("eisvc: malformed distribution from daemon: %w", err)
	}
	return d, &resp, nil
}

// EvalBatch submits a slice of wire-level eval requests in one round trip
// and returns the per-item results (Results[i] answers Requests[i]).
// Identical items are deduplicated server-side. Per-item failures land in
// the item's Error/Status, not in the returned error.
func (c *Client) EvalBatch(reqs []EvalRequest) ([]BatchEvalItem, error) {
	return c.EvalBatchCtx(context.Background(), reqs)
}

// EvalBatchCtx is EvalBatch bounded by ctx. Items with DeadlineMs == 0 are
// stamped with the client's Deadline; DeadlineMs == NoDeadline (any
// negative value) means the caller explicitly wants no client-side stamp —
// the item is sent with no deadline and the server default applies.
func (c *Client) EvalBatchCtx(ctx context.Context, reqs []EvalRequest) ([]BatchEvalItem, error) {
	for i := range reqs {
		switch {
		case reqs[i].DeadlineMs < 0:
			reqs[i].DeadlineMs = 0 // explicit "no deadline": server default
		case reqs[i].DeadlineMs == 0 && c.Deadline > 0:
			reqs[i].DeadlineMs = int(c.Deadline / time.Millisecond)
		}
	}
	var resp BatchEvalResponse
	var err error
	if c.Binary {
		breq := BatchEvalRequest{Requests: reqs}
		err = c.doBin(ctx, "/v1/evalbatch",
			func(pb *bytes.Buffer) error { return EncodeBatchEvalRequest(pb, &breq) },
			func(data []byte, binary bool) error {
				if !binary {
					return json.Unmarshal(data, &resp)
				}
				r, derr := DecodeBatchEvalResponse(data)
				if derr != nil {
					return derr
				}
				resp = *r
				return nil
			}, true)
	} else {
		err = c.doCtx(ctx, http.MethodPost, "/v1/evalbatch", BatchEvalRequest{Requests: reqs}, &resp, true)
	}
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(reqs) {
		return nil, fmt.Errorf("eisvc: batch returned %d results for %d requests", len(resp.Results), len(reqs))
	}
	return resp.Results, nil
}

// EvalRequestFor builds the wire request Eval would send, for use with
// EvalBatch.
func (c *Client) EvalRequestFor(name, method string, args []core.Value, opts core.EvalOptions) EvalRequest {
	req := EvalRequest{
		Interface:   name,
		Method:      method,
		Mode:        opts.Mode.String(),
		Samples:     opts.Samples,
		Seed:        opts.Seed,
		EnumLimit:   opts.EnumLimit,
		Parallelism: opts.Parallelism,
	}
	for _, a := range args {
		req.Args = append(req.Args, ValueToJSON(a))
	}
	if len(opts.Fixed) > 0 {
		req.Fixed = make(map[string]any, len(opts.Fixed))
		for qn, v := range opts.Fixed {
			req.Fixed[qn] = ValueToJSON(v)
		}
	}
	return req
}

// CacheLookup probes the daemon's memo for an exact canonical key; found
// is false on a clean miss (err covers transport/API failures only).
func (c *Client) CacheLookup(key string) (energy.Dist, bool, error) {
	return c.CacheLookupCtx(context.Background(), key)
}

// CacheLookupCtx is CacheLookup bounded by ctx. Fleet peer forwarding
// calls this on the evaluation critical path, so callers typically use a
// dedicated client with a short Timeout and no retry policy — a slow
// peer must cost less than evaluating locally.
func (c *Client) CacheLookupCtx(ctx context.Context, key string) (energy.Dist, bool, error) {
	var resp CacheLookupResponse
	var err error
	if c.Binary {
		req := CacheLookupRequest{Key: key}
		err = c.doBin(ctx, "/v1/cachelookup",
			func(pb *bytes.Buffer) error { return EncodeCacheLookupRequest(pb, &req) },
			func(data []byte, binary bool) error {
				if !binary {
					return json.Unmarshal(data, &resp)
				}
				r, derr := DecodeCacheLookupResponse(data)
				if derr != nil {
					return derr
				}
				resp = *r
				return nil
			}, true)
	} else {
		err = c.doCtx(ctx, http.MethodPost, "/v1/cachelookup", CacheLookupRequest{Key: key}, &resp, true)
	}
	if err != nil {
		return energy.Dist{}, false, err
	}
	if !resp.Found || resp.Dist == nil {
		return energy.Dist{}, false, nil
	}
	d, err := resp.Dist.Dist()
	if err != nil {
		return energy.Dist{}, false, fmt.Errorf("eisvc: malformed distribution from peer: %w", err)
	}
	return d, true, nil
}

// Stats fetches the daemon's serving metrics and energy ledger.
func (c *Client) Stats() (*StatsResponse, error) {
	return c.StatsCtx(context.Background())
}

// StatsCtx is Stats bounded by ctx.
func (c *Client) StatsCtx(ctx context.Context) (*StatsResponse, error) {
	var resp StatsResponse
	if err := c.doCtx(ctx, http.MethodGet, "/v1/stats", nil, &resp, true); err != nil {
		return nil, err
	}
	return &resp, nil
}
