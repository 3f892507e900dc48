// Command servebench is the repository's serving benchmark. It boots a
// 3-node fleet with its router in-process over loopback TCP, drives one
// workload through eisvc.Client -> fleet.Router -> eisvc.Server nodes with
// the binary codec, checks every answer bit for bit against an
// interpreted in-process oracle, and prints its metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also replays a sample of requests layer by layer, writes the spans to
// -out, and reports the per-layer metrics instead.
//
// Run it from the repository root with
//
//	bash servebench/run.sh --workload hot-zipf --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench: spec.json:", err)
		os.Exit(1)
	}
	workload := flag.String("workload", "hot-zipf", "workload: hot-zipf, cold-mix or batch-churn")
	seed := flag.Int64("seed", spec.DefaultSeed, "workload seed; the request sequence depends only on (workload, seed)")
	seconds := flag.Float64("seconds", 30, "length of the timed phases")
	trace := flag.Int("trace", 0, "1 runs the traced layer replay and reports per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "servebench"), "directory for the span file")
	flag.Parse()

	rep, err := execute(spec, *workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "servebench: metric %s is not a number (%v)\n", name, m.Value)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// execute runs one workload and returns its report; it prints the
// human-readable account of the run as it goes.
func execute(spec *benchSpec, name string, seed int64, total time.Duration, traced bool, outDir string) (*report, error) {
	ws, ok := spec.Workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	r, err := newRun(name, seed, ws.Clients)
	if err != nil {
		return nil, err
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		runtime.GC() // each set-up starts from a collected heap
		t := time.Now()
		rg, err := r.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
		if i < setups-1 {
			rg.close()
		} else {
			r.rig = rg
		}
	}
	defer r.rig.close()
	fmt.Printf("servebench %s seed=%d seconds=%g trace=%v clients=%d rounds=%d\n", name, seed, total.Seconds(), traced, ws.Clients, ws.Rounds)

	before, err := r.rig.nodeStats()
	if err != nil {
		return nil, err
	}
	rc0 := r.rig.rt.Counters()
	m, err := r.measure(ws, total)
	if err != nil {
		return nil, err
	}
	after, err := r.rig.nodeStats()
	if err != nil {
		return nil, err
	}
	rc1 := r.rig.rt.Counters()

	// The benchmark's own record of cold keys goes before the heap is read.
	if r.cold != nil && !traced {
		r.cold.seen = nil
	}
	if err := r.check.verify(r.or); err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.GC()
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)

	r.wmu.Lock()
	all := m.reads
	all.add(r.writeRes)
	writes := r.writeRes
	wq := median(r.writeMs)
	r.wmu.Unlock()
	rep := &report{Metrics: map[string]metric{}}
	if traced {
		ps := phaseStats{
			delta:        after.since(before),
			routed:       rc1.Routed - rc0.Routed,
			affinityHits: rc1.AffinityHits - rc0.AffinityHits,
			failovers:    rc1.Failovers - rc0.Failovers,
			reads:        m.reads,
			all:          all,
			lags:         m.lags,
			openP50:      m.openP50,
			openP99:      m.openP99,
		}
		if err := r.traceLayers(spec, rep, outDir, ps); err != nil {
			return nil, err
		}
	} else {
		p50, p99, rate := median(m.p50), median(m.p99), median(m.rate)
		rep.Metrics["p50_ms"] = metric{p50.Value, "ms"}
		rep.Metrics["p99_ms"] = metric{p99.Value, "ms"}
		rep.Metrics["answers_per_s"] = metric{rate.Value, "1/s"}
		rep.Metrics["allocs_per_answer"] = metric{ratio(float64(m.mallocs), float64(m.closed.answers)), "count"}
		rep.Metrics["heap_mb"] = metric{float64(heap.HeapAlloc) / 1e6, "MB"}
		rep.Metrics["setup_s"] = metric{median(setupS).Value, "s"}
		rep.Metrics["write_p50_ms"] = metric{wq.Value, "ms"}
		fmt.Printf("  p50_ms %.4f ms, p99_ms %.4f ms, answers_per_s %.1f: medians over %d rounds of %d closed-loop latency samples in all\n",
			p50.Value, p99.Value, rate.Value, len(m.p50), m.latN)
		if len(m.openP50) > 0 {
			fmt.Printf("  open loop, timed from due times: p50 %.4f ms, p99 %.4f ms (medians over the rounds)\n",
				median(m.openP50).Value, median(m.openP99).Value)
		}
		fmt.Printf("  setup_s per set-up %v  write_p50_ms %.4f ms (n=%d)\n", roundAll(setupS), wq.Value, wq.N)
	}
	rep.Attempted = all.answers + all.failed
	rep.Failed = all.failed
	rep.Correct = r.check.mismatches == 0
	fmt.Printf("  fail_frac %.6f (%d of %d operations, %d shed; writes %d ok %d failed)\n",
		ratio(float64(all.failed), float64(rep.Attempted)), all.failed, rep.Attempted, all.shed, writes.answers, writes.failed)
	fmt.Printf("  oracle: %d answers checked bit for bit, %d mismatches\n", r.check.checked, r.check.mismatches)
	if r.check.mismatches > 0 {
		fmt.Printf("  first mismatch: %s\n", r.check.first)
	}
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-28s %14.6g %s\n", k, rep.Metrics[k].Value, rep.Metrics[k].Unit)
	}
	return rep, nil
}

// measured is what the timed rounds produced. Latency and throughput are
// taken per round; the reported figure is their median over the rounds,
// so a stall that spans part of a run moves one round, not the result.
type measured struct {
	p50, p99, rate   []float64 // per round, closed loop: ms, ms, answers/s
	openP50, openP99 []float64 // per round, open loop from due times: ms
	latN             int       // closed-loop latency samples over all rounds
	reads, closed    result    // reads in every phase; reads in the closed loops
	mallocs          uint64    // process-wide allocations during the closed loops
	lags             []float64 // open-loop generator lateness, ms
}

// measure runs the timed rounds. On hot-zipf and cold-mix each round is
// an open-loop phase then a closed-loop phase; client 0 times a
// write-probe rebind between its closed-loop operations, at the start of
// the phase and every probeGap after. On batch-churn each round is a
// closed loop of batches and writes.
//
// The reported latencies come from the closed loops. On a 2-CPU virtual
// machine the open loop's latency at low load is mostly the time the host
// takes to wake idle virtual CPUs: its p99 spread by half between runs of
// the same code, and host CPU steal multiplied its p50 by four. It is
// reported per round and as loadgen.open_p50_ms/open_p99_ms.
func (r *run) measure(ws workloadSpec, total time.Duration) (measured, error) {
	var m measured
	batch := r.name == "batch-churn"
	per := total / time.Duration(ws.Rounds)
	openDur := time.Duration(openShare * float64(per))
	if batch {
		openDur = 0
	}
	for k := 0; k < ws.Rounds; k++ {
		var open []sample
		if openDur > 0 {
			n := int(ws.OpenRate * openDur.Seconds())
			interval := time.Duration(float64(time.Second) / ws.OpenRate)
			open = openLoop(time.Now(), interval, n, ws.Clients, func(s, _ int) result { return r.op(s) })
			for _, s := range open {
				m.lags = append(m.lags, ms(s.lag))
			}
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		lastWrite := start.Add(-probeGap)
		closed := closedLoop(start, per-openDur, ws.Clients, func(c int) sample {
			if batch {
				return r.batchOp(c, start)
			}
			s := timeOp(start, func() result { return r.op(c) })
			if c == 0 && time.Since(lastWrite) >= probeGap {
				r.write(r.rig.senders[0], probeStack)
				lastWrite = time.Now()
			}
			return s
		})
		dur := time.Since(start)
		runtime.ReadMemStats(&ms1)
		m.mallocs += ms1.Mallocs - ms0.Mallocs

		p50, p99 := latencyMs(closed, 50), latencyMs(closed, 99)
		cl := sum(closed)
		m.p50, m.p99 = append(m.p50, p50.Value), append(m.p99, p99.Value)
		if len(open) > 0 {
			m.openP50 = append(m.openP50, latencyMs(open, 50).Value)
			m.openP99 = append(m.openP99, latencyMs(open, 99).Value)
		}
		m.rate = append(m.rate, float64(cl.answers)/dur.Seconds())
		m.latN += p99.N
		m.closed.add(cl)
		m.reads.add(cl)
		m.reads.add(sum(open))
		fmt.Printf("  round %d: ", k+1)
		phaseLine("open", open, 0)
		fmt.Print("           ")
		phaseLine("closed", closed, dur)
		if n := tailsBeyond(p99.N, 99); n < 10 {
			fmt.Printf("  round %d: only %d latency samples beyond its p99\n", k+1, n)
		}
		// Answers waiting for their reference are checked between rounds,
		// so they never pile up in the heap the system is measured on.
		if err := r.check.verify(r.or); err != nil {
			return m, err
		}
	}
	return m, nil
}

// sum adds up the operations' results.
func sum(ss []sample) result {
	var r result
	for _, s := range ss {
		r.add(s.result)
	}
	return r
}

// phaseLine prints one phase's counts: operations sent, answers, failures,
// refusals, and for an open loop how late the generator ran.
func phaseLine(name string, ss []sample, dur time.Duration) {
	if len(ss) == 0 {
		fmt.Printf("phase %-6s none\n", name)
		return
	}
	res := sum(ss)
	lags := make([]float64, len(ss))
	for i, s := range ss {
		lags[i] = ms(s.lag)
	}
	p50, p99 := latencyMs(ss, 50), latencyMs(ss, 99)
	fmt.Printf("phase %-6s sent %d ok %d failed %d shed %d  latency p50 %.4f ms p99 %.4f ms (n=%d)",
		name, len(ss), res.answers, res.failed, res.shed, p50.Value, p99.Value, p99.N)
	if dur > 0 {
		fmt.Printf("  %.1f answers/s", float64(res.answers)/dur.Seconds())
	} else {
		fmt.Printf("  generator lag p50 %.4f ms p99 %.4f ms", median(lags).Value, percentile(lags, 99).Value)
	}
	fmt.Println()
}

func latencyMs(ss []sample, p float64) quantile {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = ms(s.latency())
	}
	if p == 50 {
		return median(xs)
	}
	return percentile(xs, p)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}
