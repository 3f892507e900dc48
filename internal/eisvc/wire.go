package eisvc

import (
	"fmt"
	"sort"

	"energyclarity/internal/core"
	"energyclarity/internal/energy"
)

// The JSON wire protocol. Every request and response body is one of these
// types; errors are ErrorResponse with a non-2xx status.

// RegisterRequest registers every interface declared in an EIL source file.
// 'uses' clauses resolve against interfaces already in the registry (and
// against other interfaces in the same file), so stacks can be uploaded
// layer by layer, bottom first.
type RegisterRequest struct {
	Source string `json:"source"`
}

// RegisterResponse lists the interfaces the source declared, with their
// assigned registry versions.
type RegisterResponse struct {
	Registered []InterfaceInfo `json:"registered"`
}

// InterfaceInfo is the listing entry for one registered interface.
type InterfaceInfo struct {
	Name     string   `json:"name"`
	Version  uint64   `json:"version"`
	Doc      string   `json:"doc,omitempty"`
	Methods  []string `json:"methods"`
	ECVs     []string `json:"ecvs,omitempty"`     // qualified names, transitively
	Bindings []string `json:"bindings,omitempty"` // local binding names
	Native   bool     `json:"native,omitempty"`   // built in Go, no EIL source
}

// SourceResponse returns a registered interface's EIL source.
type SourceResponse struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// RebindRequest swaps the interface bound at a dot-separated path inside a
// registered interface for another registered interface — Fig. 2's "only
// some of the energy interfaces in the bottom layer need to be replaced".
type RebindRequest struct {
	Interface string `json:"interface"`
	Path      string `json:"path"`
	Target    string `json:"target"`
}

// RebindResponse carries the rebound interface's new version.
type RebindResponse struct {
	Interface string `json:"interface"`
	Version   uint64 `json:"version"`
}

// EvalRequest asks the daemon to evaluate one energy method. Mode takes
// the spellings core.Mode.String emits ("expected", "worst-case",
// "best-case", "fixed", "monte-carlo"). Args and Fixed values use the
// plain JSON data model: numbers, booleans, strings, objects (records),
// and arrays (lists).
type EvalRequest struct {
	Interface   string         `json:"interface"`
	Method      string         `json:"method"`
	Args        []any          `json:"args,omitempty"`
	Mode        string         `json:"mode"`
	Samples     int            `json:"samples,omitempty"`
	Seed        int64          `json:"seed,omitempty"`
	EnumLimit   int            `json:"enum_limit,omitempty"`
	Parallelism int            `json:"parallelism,omitempty"`
	Fixed       map[string]any `json:"fixed,omitempty"`
	// DeadlineMs bounds how long the request may wait for a worker slot
	// before the daemon sheds it with 503; 0 uses the server default. A
	// negative value is the client-side NoDeadline sentinel — Client
	// methods treat it as "do not stamp a deadline" and normalize it to 0
	// on the wire; the server likewise treats negatives as the default.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// WireDist is a distribution on the wire: the exact (support, probs)
// vectors plus derived summary statistics. Support and Probs round-trip
// through energy.FromSorted bit-for-bit.
type WireDist struct {
	Support []float64 `json:"support"`
	Probs   []float64 `json:"probs"`
	Mean    float64   `json:"mean"`
	Std     float64   `json:"std"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	P99     float64   `json:"p99"`
}

// ToWire converts a distribution for transport.
func ToWire(d energy.Dist) WireDist {
	return WireDist{
		Support: d.Support(),
		Probs:   d.Probs(),
		Mean:    d.Mean(),
		Std:     d.Std(),
		Min:     d.Min(),
		Max:     d.Max(),
		P99:     d.Quantile(0.99),
	}
}

// Dist reconstructs the exact distribution.
func (w WireDist) Dist() (energy.Dist, error) {
	return energy.FromSorted(w.Support, w.Probs)
}

// EvalResponse is the daemon's answer to an EvalRequest.
type EvalResponse struct {
	Interface string   `json:"interface"`
	Version   uint64   `json:"version"`
	Method    string   `json:"method"`
	Mode      string   `json:"mode"`
	Dist      WireDist `json:"dist"`
	// Cached reports whether the answer came from the memo cache.
	Cached bool `json:"cached"`
	// Coalesced reports that the request joined an identical in-flight
	// evaluation instead of running its own (singleflight).
	Coalesced bool `json:"coalesced,omitempty"`
	// Peer reports that the answer was fetched from another fleet node's
	// warm cache instead of being evaluated here (Cached is also set).
	Peer bool `json:"peer,omitempty"`
	// Node is the serving node's ID; empty for a standalone daemon.
	Node string `json:"node,omitempty"`
}

// BatchEvalRequest evaluates several methods in one round trip
// (POST /v1/evalbatch). Items that canonicalize to the same evaluation are
// deduplicated server-side; the distinct residuals evaluate concurrently
// under the daemon's normal admission discipline.
type BatchEvalRequest struct {
	Requests []EvalRequest `json:"requests"`
}

// BatchEvalItem is the per-item answer in a batch. Exactly one of Dist or
// Error is set; Status carries the HTTP status the item would have
// received as a single /v1/eval.
type BatchEvalItem struct {
	Interface string    `json:"interface"`
	Version   uint64    `json:"version,omitempty"`
	Method    string    `json:"method"`
	Mode      string    `json:"mode,omitempty"`
	Status    int       `json:"status"`
	Dist      *WireDist `json:"dist,omitempty"`
	Error     string    `json:"error,omitempty"`
	// Cached: served from the memo. Coalesced: joined an in-flight
	// evaluation. Deduped: shared an identical item earlier in this batch.
	// Peer: fetched from another fleet node's warm cache.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	Deduped   bool `json:"deduped,omitempty"`
	Peer      bool `json:"peer,omitempty"`
}

// BatchEvalResponse answers a BatchEvalRequest; Results[i] corresponds to
// Requests[i].
type BatchEvalResponse struct {
	Results []BatchEvalItem `json:"results"`
}

// LatencyStats summarizes request latencies (memo hits included).
type LatencyStats struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// LedgerEntry aggregates the energy a client (or an interface) had
// evaluated on its behalf: sums over the returned distributions' mean,
// p99, and worst-case joules.
type LedgerEntry struct {
	Requests uint64  `json:"requests"`
	MemoHits uint64  `json:"memo_hits"`
	MeanJ    float64 `json:"mean_j"`
	P99J     float64 `json:"p99_j"`
	WorstJ   float64 `json:"worst_j"`
}

// CacheLookupRequest is a fleet peer's memo probe (POST /v1/cachelookup):
// an exact canonical memo key, as produced by this package's key
// canonicalization. Because keys embed the interface version, a probe can
// only hit an answer for the identical tree — replicated registries keep
// versions aligned, which is what makes the key a cross-node identity.
type CacheLookupRequest struct {
	Key string `json:"key"`
}

// CacheLookupResponse answers a memo probe. Dist is set iff Found.
type CacheLookupResponse struct {
	Key   string    `json:"key"`
	Found bool      `json:"found"`
	Dist  *WireDist `json:"dist,omitempty"`
	Node  string    `json:"node,omitempty"` // answering node's ID
}

// OptimizeKnob is one serving knob of a POST /v1/optimize sweep: a name
// and the discrete candidate values. Knob order is semantic: knob i
// supplies argument i of both swept methods, and the configuration grid
// enumerates the last knob fastest.
type OptimizeKnob struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// OptimizeRequest asks the daemon for the cheapest operating point of a
// registered interface under a p99 latency SLO (POST /v1/optimize). The
// daemon sweeps the knob-space cross product, evaluating EnergyMethod
// (objective: distribution mean, J/request) and LatencyMethod
// (objective: exact p99, ms/request — the abstract-unit convention) per
// configuration through its memoized engine, then fits the exact
// energy/latency Pareto frontier. Mode and the sampling fields carry the
// same semantics as EvalRequest; Mode defaults to "expected".
type OptimizeRequest struct {
	Interface     string         `json:"interface"`
	EnergyMethod  string         `json:"energy_method"`
	LatencyMethod string         `json:"latency_method"`
	Knobs         []OptimizeKnob `json:"knobs,omitempty"`
	SLOMs         float64        `json:"slo_ms"`
	Mode          string         `json:"mode,omitempty"`
	Samples       int            `json:"samples,omitempty"`
	Seed          int64          `json:"seed,omitempty"`
	EnumLimit     int            `json:"enum_limit,omitempty"`
	Parallelism   int            `json:"parallelism,omitempty"`
	// MaxConfigs caps the knob-space cross product (0 = server default).
	MaxConfigs int `json:"max_configs,omitempty"`
	// DeadlineMs has EvalRequest semantics, applied to each evaluation
	// the sweep issues.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// OptimizePoint is one operating point of an optimize sweep: knob values
// in request knob order plus the two objectives.
type OptimizePoint struct {
	Knobs     []float64 `json:"knobs"`
	EnergyJ   float64   `json:"energy_j"`
	LatencyMs float64   `json:"latency_ms"`
}

// OptimizeResponse answers an OptimizeRequest. Frontier is the exact
// Pareto frontier (latency ascending, energy strictly descending) and
// Digest its FNV-1a fold over exact Float64bits — bit-identical sweeps
// have equal digests. Recommended is the cheapest point meeting the SLO
// (absent when unmeetable); MaxPerf the minimum-latency point; and
// SavingsFrac the energy fraction the SLO-aware choice saves over it.
// Evals counts the evaluations the sweep issued, MemoServed how many of
// them a cache answered (memo, coalesced, or peer) — a repeat sweep is
// expected to be almost entirely memo-served.
type OptimizeResponse struct {
	Interface   string          `json:"interface"`
	Version     uint64          `json:"version"`
	Mode        string          `json:"mode"`
	Knobs       []OptimizeKnob  `json:"knobs,omitempty"`
	SLOMs       float64         `json:"slo_ms"`
	Configs     int             `json:"configs"`
	Evaluated   int             `json:"evaluated"`
	Skipped     int             `json:"skipped,omitempty"`
	Evals       int             `json:"evals"`
	MemoServed  int             `json:"memo_served"`
	Frontier    []OptimizePoint `json:"frontier"`
	Digest      uint64          `json:"digest"`
	Recommended *OptimizePoint  `json:"recommended,omitempty"`
	MaxPerf     *OptimizePoint  `json:"max_perf,omitempty"`
	SavingsFrac float64         `json:"savings_frac,omitempty"`
	Node        string          `json:"node,omitempty"`
}

// StatsResponse is the /v1/stats payload.
type StatsResponse struct {
	// NodeID names this daemon in a fleet ("" standalone).
	NodeID string `json:"node_id,omitempty"`

	Interfaces int `json:"interfaces"`

	EvalRequests  uint64  `json:"eval_requests"`
	Evaluations   uint64  `json:"evaluations"` // actual Interface.Eval runs
	MemoHits      uint64  `json:"memo_hits"`
	MemoMisses    uint64  `json:"memo_misses"`
	MemoEvictions uint64  `json:"memo_evictions"`
	MemoLen       int     `json:"memo_len"`
	MemoHitRate   float64 `json:"memo_hit_rate"`

	// Compositional layer cache (per-sub-interface results shared across
	// evaluations; see core.LayerCache).
	LayerEnabled       bool    `json:"layer_enabled"`
	LayerHits          uint64  `json:"layer_hits"`
	LayerMisses        uint64  `json:"layer_misses"`
	LayerEvictions     uint64  `json:"layer_evictions"`
	LayerLen           int     `json:"layer_len"`
	LayerInvalidations uint64  `json:"layer_invalidations"`
	LayerHitRate       float64 `json:"layer_hit_rate"`

	// Coalesced counts requests that joined an identical in-flight
	// evaluation; BatchRequests/BatchItems count /v1/evalbatch traffic.
	Coalesced     uint64 `json:"coalesced"`
	BatchRequests uint64 `json:"batch_requests"`
	BatchItems    uint64 `json:"batch_items"`

	// Auto-optimizer (POST /v1/optimize): sweeps served, evaluations
	// those sweeps issued, and how many of them a cache answered.
	OptimizeRequests   uint64 `json:"optimize_requests"`
	OptimizeEvals      uint64 `json:"optimize_evals"`
	OptimizeMemoServed uint64 `json:"optimize_memo_served"`

	// Peer cache forwarding: lookups this node issued to the fleet on memo
	// misses (hits/misses), and /v1/cachelookup probes it answered for
	// other nodes (served, of which served_hits found a warm entry).
	PeerHits       uint64 `json:"peer_hits,omitempty"`
	PeerMisses     uint64 `json:"peer_misses,omitempty"`
	PeerServed     uint64 `json:"peer_served,omitempty"`
	PeerServedHits uint64 `json:"peer_served_hits,omitempty"`

	// Optimizing EIL compiler (internal/opt), process-wide counters from
	// core.ReadProgramStats: methods compiled to flat instruction
	// programs, interpreter fallbacks (declined methods/specializations),
	// and evaluations served through compiled programs.
	CompiledPrograms uint64 `json:"compiled_programs"`
	CompileFallbacks uint64 `json:"compile_fallbacks"`
	CompiledEvals    uint64 `json:"compiled_evals"`

	ShedQueueFull uint64 `json:"shed_queue_full"` // rejected with 429
	ShedDeadline  uint64 `json:"shed_deadline"`   // rejected with 503
	QueueDepth    int    `json:"queue_depth"`
	PeakQueue     int    `json:"peak_queue"`
	Workers       int    `json:"workers"`
	QueueLimit    int    `json:"queue_limit"`

	// Resilience: drain state plus fleet retry/hedge behavior as reported
	// by clients through the X-Eisvc-Attempt / X-Eisvc-Hedge headers.
	Draining        bool   `json:"draining"`
	InFlight        int    `json:"in_flight"`
	ShedDraining    uint64 `json:"shed_draining"` // rejected with 503 while draining
	RetriedRequests uint64 `json:"retried_requests"`
	RetryAttempts   uint64 `json:"retry_attempts"` // extra attempts beyond the first
	HedgedRequests  uint64 `json:"hedged_requests"`

	// Continuous calibration (populated when a drift controller is
	// attached; see GET /v1/drift for the full registry).
	DriftEnabled    bool   `json:"drift_enabled"`
	DriftState      string `json:"drift_state,omitempty"`
	DriftSamples    int    `json:"drift_samples,omitempty"`
	DriftDetections int    `json:"drift_detections,omitempty"`
	DriftEnergyBugs int    `json:"drift_energy_bugs,omitempty"`
	DriftGeneration int    `json:"drift_generation,omitempty"` // installed generations
	RecalInProgress bool   `json:"recal_in_progress,omitempty"`
	Recalibrations  uint64 `json:"recalibrations,omitempty"` // completed by the loop
	DriftSteps      uint64 `json:"drift_steps,omitempty"`
	DriftStepErrors uint64 `json:"drift_step_errors,omitempty"`

	Latency LatencyStats `json:"latency"`

	Clients    map[string]LedgerEntry `json:"clients"`
	ByIface    map[string]LedgerEntry `json:"by_interface"`
	AttribJ    float64                `json:"attributed_mean_j"` // sum over clients
	AttribP99J float64                `json:"attributed_p99_j"`
}

// HealthzResponse is the GET /v1/healthz payload: the typed readiness
// probe. Ready means the daemon is admitting evaluation work; a draining
// daemon answers 200 with Ready false (the process is alive, the traffic
// should go elsewhere). Recalibrating reports an in-progress background
// recalibration; Generation is the number of calibration generations
// installed so far (0 when drift monitoring is off or nothing is seeded).
type HealthzResponse struct {
	Ready         bool `json:"ready"`
	Draining      bool `json:"draining"`
	DriftEnabled  bool `json:"drift_enabled"`
	Recalibrating bool `json:"recalibrating"`
	Interfaces    int  `json:"interfaces"`
	Generation    int  `json:"generation,omitempty"`
}

// DriftClassWire is one input class's residual statistics on the wire.
type DriftClassWire struct {
	Input    string  `json:"input"`
	Samples  int     `json:"samples"`
	Residual float64 `json:"residual"` // class residual EWMA (signed)
}

// GenerationWire is one calibration generation in the /v1/drift registry:
// the fitted coefficients, the interface version that serves them, and the
// detection/installation metadata.
type GenerationWire struct {
	Index      int     `json:"index"`
	Version    uint64  `json:"version"`
	Reason     string  `json:"reason"`
	Device     string  `json:"device"`
	InstrJ     float64 `json:"instr_j"`
	L1J        float64 `json:"l1_j"`
	L2J        float64 `json:"l2_j"`
	VRAMJ      float64 `json:"vram_j"`
	StaticW    float64 `json:"static_w"`
	DetectedAt int     `json:"detected_at,omitempty"` // monitor sample of the alarm
	Residual   float64 `json:"residual"`              // post-install verification residual
	Time       float64 `json:"time,omitempty"`        // device-clock seconds at install
}

// DriftResponse is the GET /v1/drift payload: detector state, per-class
// statistics, loop counters, and the calibration generation registry.
type DriftResponse struct {
	State      string  `json:"state"` // warmup | stable | drifting | energy_bug
	Samples    int     `json:"samples"`
	Baseline   float64 `json:"baseline"`
	EWMA       float64 `json:"ewma"`
	Shift      float64 `json:"shift"`
	PHUp       float64 `json:"ph_up"`
	PHDown     float64 `json:"ph_down"`
	Lambda     float64 `json:"lambda"`
	DetectedAt int     `json:"detected_at,omitempty"`
	Offending  string  `json:"offending,omitempty"` // input class, energy-bug verdicts

	Detections     int    `json:"detections"`
	EnergyBugs     int    `json:"energy_bugs"`
	Recalibrating  bool   `json:"recalibrating"`
	CurrentVersion uint64 `json:"current_version"`
	Steps          uint64 `json:"steps"`       // DriftStep invocations
	StepErrors     uint64 `json:"step_errors"` // probe/recal failures (loop survived)

	Classes     []DriftClassWire `json:"classes,omitempty"`
	Generations []GenerationWire `json:"generations,omitempty"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// --- Value <-> JSON conversion ---

// ValueToJSON maps a core.Value onto the plain JSON data model: records
// become objects, lists become arrays.
func ValueToJSON(v core.Value) any {
	switch v.Kind() {
	case core.KindNil:
		return nil
	case core.KindBool:
		b, _ := v.AsBool()
		return b
	case core.KindNum:
		n, _ := v.AsNum()
		return n
	case core.KindStr:
		s, _ := v.AsStr()
		return s
	case core.KindRecord:
		obj := map[string]any{}
		for _, name := range v.FieldNames() {
			f, _ := v.Field(name)
			obj[name] = ValueToJSON(f)
		}
		return obj
	case core.KindList:
		arr := make([]any, v.Len())
		for i := range arr {
			e, _ := v.Index(i)
			arr[i] = ValueToJSON(e)
		}
		return arr
	}
	return nil
}

// ValueFromJSON maps a decoded JSON value (as produced by encoding/json
// into any) onto a core.Value.
func ValueFromJSON(r any) (core.Value, error) {
	switch x := r.(type) {
	case nil:
		return core.Nil(), nil
	case bool:
		return core.Bool(x), nil
	case float64:
		return core.Num(x), nil
	case string:
		return core.Str(x), nil
	case []any:
		items := make([]core.Value, len(x))
		for i, e := range x {
			v, err := ValueFromJSON(e)
			if err != nil {
				return core.Value{}, err
			}
			items[i] = v
		}
		return core.List(items...), nil
	case map[string]any:
		fields := make(map[string]core.Value, len(x))
		for k, e := range x {
			v, err := ValueFromJSON(e)
			if err != nil {
				return core.Value{}, err
			}
			fields[k] = v
		}
		return core.Record(fields), nil
	default:
		return core.Value{}, fmt.Errorf("eisvc: unsupported JSON value of type %T", r)
	}
}

// fixedFromJSON converts a JSON fixed-ECV map.
func fixedFromJSON(raw map[string]any) (map[string]core.Value, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make(map[string]core.Value, len(raw))
	for k, r := range raw {
		v, err := ValueFromJSON(r)
		if err != nil {
			return nil, fmt.Errorf("fixed %q: %w", k, err)
		}
		out[k] = v
	}
	return out, nil
}

// Options converts the request into core.EvalOptions. The mode string is
// parsed with core.ParseMode, so the wire accepts exactly the spellings
// Mode.String emits.
func (req *EvalRequest) Options() (core.EvalOptions, error) {
	mode, err := core.ParseMode(req.Mode)
	if err != nil {
		return core.EvalOptions{}, err
	}
	fixed, err := fixedFromJSON(req.Fixed)
	if err != nil {
		return core.EvalOptions{}, err
	}
	return core.EvalOptions{
		Mode:        mode,
		Fixed:       fixed,
		EnumLimit:   req.EnumLimit,
		Samples:     req.Samples,
		Seed:        req.Seed,
		Parallelism: req.Parallelism,
	}, nil
}

// infoFor builds the listing entry for a bound interface.
func infoFor(name string, version uint64, iface *core.Interface, native bool) InterfaceInfo {
	info := InterfaceInfo{
		Name:     name,
		Version:  version,
		Doc:      iface.Doc(),
		Methods:  iface.Methods(),
		Bindings: iface.Bindings(),
		Native:   native,
	}
	for _, q := range iface.TransitiveECVs() {
		info.ECVs = append(info.ECVs, q.QualifiedName())
	}
	sort.Strings(info.ECVs)
	return info
}
