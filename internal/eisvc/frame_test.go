package eisvc

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"energyclarity/internal/core"
)

// callKey is the memo key a daemon derives for the call at the given
// interface version: the optimize path's framing of core values.
func callKey(tb testing.TB, name string, version uint64, method string, args []core.Value, opts core.EvalOptions) string {
	tb.Helper()
	var buf bytes.Buffer
	encodeEvalCall(&buf, name, method, args, opts, 0)
	f, err := ScanEvalRequest(buf.Bytes())
	if err != nil {
		tb.Fatal(err)
	}
	return memoKey(name, version, opts.Mode, &f)
}

// frameKey is the memo key of a framed request, or ok=false when a daemon
// would reject its mode.
func frameKey(f *EvalFrame, version uint64) (string, bool) {
	mode, err := parseMode(f.Mode)
	if err != nil {
		return "", false
	}
	return memoKey(string(f.Interface), version, mode, f), true
}

// identity is what a memo key must capture of a request, computed from
// the decoded request without frames: the values and the knobs that can
// change the answer, normalized by the rules memoKey documents.
type identity struct {
	name, method             string
	version                  uint64
	mode                     core.Mode
	samples, enumLimit, seed int64
	args                     []core.Value
	fixed                    map[string]core.Value
}

func identityOf(t *testing.T, req *EvalRequest, version uint64) identity {
	t.Helper()
	mode, err := core.ParseMode(req.Mode)
	if err != nil {
		t.Fatal(err)
	}
	id := identity{name: req.Interface, method: req.Method, version: version, mode: mode,
		samples: int64(req.Samples), enumLimit: int64(req.EnumLimit), seed: req.Seed}
	if id.samples <= 0 {
		id.samples = core.DefaultSamples
	}
	if id.enumLimit <= 0 {
		id.enumLimit = core.DefaultEnumLimit
	}
	switch mode {
	case core.ModeFixed:
		id.samples, id.enumLimit, id.seed = 0, 0, 0
	case core.ModeMonteCarlo:
		id.enumLimit = 0
	}
	for _, a := range req.Args {
		v, err := ValueFromJSON(a)
		if err != nil {
			t.Fatal(err)
		}
		id.args = append(id.args, v)
	}
	if len(req.Fixed) > 0 {
		id.fixed = map[string]core.Value{}
		for k, a := range req.Fixed {
			v, err := ValueFromJSON(a)
			if err != nil {
				t.Fatal(err)
			}
			id.fixed[k] = v
		}
	}
	return id
}

// sameValue is bit-exact deep equality: NaN payloads and the sign of
// zero count, unlike core.Value.Equal.
func sameValue(a, b core.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case core.KindNum:
		x, _ := a.AsNum()
		y, _ := b.AsNum()
		return math.Float64bits(x) == math.Float64bits(y)
	case core.KindList:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			x, _ := a.Index(i)
			y, _ := b.Index(i)
			if !sameValue(x, y) {
				return false
			}
		}
		return true
	case core.KindRecord:
		na, nb := a.FieldNames(), b.FieldNames()
		if len(na) != len(nb) {
			return false
		}
		for i, k := range na {
			if nb[i] != k {
				return false
			}
			x, _ := a.Field(k)
			y, _ := b.Field(k)
			if !sameValue(x, y) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

func sameIdentity(a, b identity) bool {
	if a.name != b.name || a.method != b.method || a.version != b.version || a.mode != b.mode ||
		a.samples != b.samples || a.enumLimit != b.enumLimit || a.seed != b.seed ||
		len(a.args) != len(b.args) || len(a.fixed) != len(b.fixed) {
		return false
	}
	for i := range a.args {
		if !sameValue(a.args[i], b.args[i]) {
			return false
		}
	}
	for k, v := range a.fixed {
		w, ok := b.fixed[k]
		if !ok || !sameValue(v, w) {
			return false
		}
	}
	return true
}

// canonicalKey derives req's memo key along every path a request can
// take into a daemon — a binary frame, a JSON body, and core values (the
// optimize sweep and Client.Eval) — and fails unless they agree. ok is
// false when a daemon would reject the request's mode.
func canonicalKey(t *testing.T, req *EvalRequest, version uint64) (key string, ok bool) {
	t.Helper()
	var bin bytes.Buffer
	f, err := FrameEvalRequest(&bin, req)
	if err != nil {
		t.Fatal(err)
	}
	key, ok = frameKey(&f, version)
	if !ok {
		return "", false
	}
	if got := KeyStack(key); got != req.Interface {
		t.Fatalf("KeyStack(%q) = %q, want %q", key, got, req.Interface)
	}
	id := identityOf(t, req, version)

	// JSON carries neither NaN nor ±Inf, and rewrites invalid UTF-8; the
	// JSON leg must agree whenever the body round-trips the request.
	if raw, err := json.Marshal(req); err == nil {
		var jr EvalRequest
		if err := json.Unmarshal(raw, &jr); err != nil {
			t.Fatal(err)
		}
		if sameIdentity(identityOf(t, &jr, version), id) {
			var buf bytes.Buffer
			jf, err := FrameEvalRequest(&buf, &jr)
			if err != nil {
				t.Fatal(err)
			}
			if jk, _ := frameKey(&jf, version); jk != key {
				t.Fatalf("JSON body keyed %q, binary frame %q", jk, key)
			}
		}
	}

	opts := core.EvalOptions{Mode: id.mode, Fixed: id.fixed, Samples: req.Samples, Seed: req.Seed,
		EnumLimit: req.EnumLimit, Parallelism: req.Parallelism}
	if ck := callKey(t, req.Interface, version, req.Method, id.args, opts); ck != key {
		t.Fatalf("core values keyed %q, binary frame %q", ck, key)
	}
	// Client.Eval frames core values directly; the bytes must be the ones
	// its public EvalRequestFor + EncodeEvalRequest spelling produces.
	var direct, viaReq bytes.Buffer
	encodeEvalCall(&direct, req.Interface, req.Method, id.args, opts, req.DeadlineMs)
	wr := (&Client{}).EvalRequestFor(req.Interface, req.Method, id.args, opts)
	wr.DeadlineMs = req.DeadlineMs
	if err := EncodeEvalRequest(&viaReq, &wr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct.Bytes(), viaReq.Bytes()) {
		t.Fatalf("encodeEvalCall framed %x, EvalRequestFor %x", direct.Bytes(), viaReq.Bytes())
	}
	return key, true
}

// hostile is an alphabet heavy in the bytes key syntax uses.
const hostile = "xy=;|@:{}R"

func hostileString(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(5))
	for i := range b {
		b[i] = hostile[rng.Intn(len(hostile))]
	}
	return string(b)
}

// randValue draws a JSON-model value: odd floats, hostile strings and
// field names, and nesting down to maxValueDepth.
func randValue(rng *rand.Rand, depth int) any {
	if depth >= maxValueDepth {
		return 1.0
	}
	switch rng.Intn(8) {
	case 0:
		return nil
	case 1:
		return rng.Intn(2) == 0
	case 2:
		return oddFloats[rng.Intn(len(oddFloats))]
	case 3:
		return float64(rng.Intn(3))
	case 4:
		return hostileString(rng)
	case 5:
		if rng.Intn(4) == 0 {
			return nested(maxValueDepth - depth)
		}
		l := make([]any, rng.Intn(3))
		for i := range l {
			l[i] = randValue(rng, depth+1)
		}
		return l
	default:
		m := map[string]any{}
		for i := rng.Intn(3); i > 0; i-- {
			m[hostileString(rng)] = randValue(rng, depth+1)
		}
		return m
	}
}

// nested is a list nested n levels deep.
func nested(n int) any {
	var v any = math.Copysign(0, -1)
	for i := 0; i < n; i++ {
		v = []any{v}
	}
	return v
}

func randRequest(rng *rand.Rand) *EvalRequest {
	req := &EvalRequest{
		Interface:   []string{"s", "s@1", "s|", "a=b;"}[rng.Intn(4)],
		Method:      []string{"m", "m|", "n"}[rng.Intn(3)],
		Mode:        core.Modes[rng.Intn(len(core.Modes))].String(),
		Samples:     []int{0, core.DefaultSamples, 64}[rng.Intn(3)],
		Seed:        int64(rng.Intn(3)),
		EnumLimit:   []int{0, core.DefaultEnumLimit, 8}[rng.Intn(3)],
		Parallelism: rng.Intn(9),
	}
	for i := rng.Intn(3); i > 0; i-- {
		req.Args = append(req.Args, randValue(rng, 0))
	}
	if rng.Intn(2) == 0 {
		req.Fixed = map[string]any{}
		for i := rng.Intn(3) + 1; i > 0; i-- {
			req.Fixed["e."+hostileString(rng)] = randValue(rng, 0)
		}
	}
	return req
}

// FuzzCanonicalKey checks the memo key is one injective canonical
// identity: a request keys the same through every path into a daemon,
// and two requests share a key exactly when they must share an answer.
func FuzzCanonicalKey(f *testing.F) {
	frame := func(req *EvalRequest) []byte {
		var buf bytes.Buffer
		if err := EncodeEvalRequest(&buf, req); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	pair := func(a, b *EvalRequest, va, vb uint8) { f.Add(frame(a), frame(b), va, vb) }
	base := func() *EvalRequest { return &EvalRequest{Interface: "s", Method: "m", Mode: "expected"} }
	with := func(mut func(*EvalRequest)) *EvalRequest { r := base(); mut(r); return r }

	// The core.Value.Key collision: bare field names let {x:1, y:2} and
	// {"x=N1;y":2} both render R{x=N1;y=N2;}.
	pair(with(func(r *EvalRequest) { r.Args = []any{map[string]any{"x": 1.0, "y": 2.0}} }),
		with(func(r *EvalRequest) { r.Args = []any{map[string]any{"x=N1;y": 2.0}} }), 0, 0)
	// The same forgery through pinned-ECV names, and through the
	// name@version prefix.
	pair(with(func(r *EvalRequest) { r.Fixed = map[string]any{"a": 1.0, "b": 2.0} }),
		with(func(r *EvalRequest) { r.Fixed = map[string]any{"a=N1;b": 2.0} }), 0, 0)
	pair(with(func(r *EvalRequest) { r.Interface = "s@1|" }), base(), 0, 0)
	pair(with(func(r *EvalRequest) { r.Interface = "s@1" }), with(func(r *EvalRequest) { r.Interface = "s" }), 0, 0)
	// NaN and the sign of zero.
	pair(with(func(r *EvalRequest) { r.Args = []any{math.NaN()} }),
		with(func(r *EvalRequest) { r.Args = []any{math.NaN()} }), 0, 0)
	pair(with(func(r *EvalRequest) { r.Args = []any{math.Copysign(0, -1)} }),
		with(func(r *EvalRequest) { r.Args = []any{0.0} }), 0, 0)
	// Nesting at the codec's depth bound.
	pair(with(func(r *EvalRequest) { r.Args = []any{nested(maxValueDepth)} }),
		with(func(r *EvalRequest) { r.Args = []any{nested(maxValueDepth - 1)} }), 0, 0)
	// Defaults normalize; parallelism and mode-irrelevant knobs never split.
	pair(base(), with(func(r *EvalRequest) {
		r.Samples, r.EnumLimit, r.Parallelism = core.DefaultSamples, core.DefaultEnumLimit, 8
	}), 0, 0)
	pair(with(func(r *EvalRequest) { r.Mode, r.Seed, r.Samples = "fixed", 1, 100 }),
		with(func(r *EvalRequest) { r.Mode, r.Seed, r.Samples = "fixed", 2, 200 }), 0, 0)
	pair(with(func(r *EvalRequest) { r.Mode, r.EnumLimit = "monte-carlo", 8 }),
		with(func(r *EvalRequest) { r.Mode = "monte-carlo" }), 0, 0)
	pair(with(func(r *EvalRequest) { r.Mode = "worst" }), with(func(r *EvalRequest) { r.Mode = "worst-case" }), 0, 0)
	// Versions split.
	pair(base(), base(), 0, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		a := randRequest(rng)
		b := a
		if i%2 == 0 {
			b = randRequest(rng)
		}
		pair(a, b, uint8(i), uint8(i/2))
	}

	f.Fuzz(func(t *testing.T, a, b []byte, va, vb uint8) {
		ra, errA := DecodeEvalRequest(a)
		rb, errB := DecodeEvalRequest(b)
		if errA != nil || errB != nil {
			return
		}
		versionA, versionB := uint64(va%3)+1, uint64(vb%3)+1
		ka, okA := canonicalKey(t, ra, versionA)
		kb, okB := canonicalKey(t, rb, versionB)
		if !okA || !okB {
			return
		}
		same := sameIdentity(identityOf(t, ra, versionA), identityOf(t, rb, versionB))
		if (ka == kb) != same {
			t.Fatalf("keys equal=%v but identities equal=%v:\n a %#v\n b %#v", ka == kb, same, ra, rb)
		}
	})
}

// TestMemoHitAllocs guards the daemon's binary memo-hit path: scanning
// the frame, keying, the memo lookup, and the answer must stay within a
// fixed allocation budget (measured, plus a little slack). Decoding the
// arguments on a hit would blow it.
func TestMemoHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	srv := NewServer(Config{NodeID: "node-1"})
	if _, err := srv.Registry().RegisterSource(testEIL); err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	encodeEvalCall(&body, "ml_webservice", "handle", []core.Value{reqArg()}, core.Expected(), 0)
	rd := bytes.NewReader(body.Bytes())
	req := httptest.NewRequest(http.MethodPost, "/v1/eval", io.NopCloser(rd))
	req.Header.Set("Content-Type", BinaryContentType)
	req.Header.Set("Accept", BinaryContentType)
	serve := func() *httptest.ResponseRecorder {
		rd.Reset(body.Bytes())
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	for i, wantCached := range []bool{false, true} {
		rec := serve()
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, rec.Code, rec.Body)
		}
		resp, err := DecodeEvalResponse(rec.Body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached != wantCached {
			t.Fatalf("request %d: cached=%v, want %v", i, resp.Cached, wantCached)
		}
	}
	const budget = 16 // measured 14, recorder included

	if n := testing.AllocsPerRun(200, func() { serve() }); n > budget {
		t.Fatalf("binary memo hit: %.0f allocs per request, budget %d", n, budget)
	}
}
