package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"energyclarity/internal/eisvc"
	"energyclarity/internal/fleet"
)

// rig is one booted serving system: a 3-node fleet over loopback TCP, its
// router, and the benchmark's binary-codec clients, one connection each.
type rig struct {
	fl      *fleet.Fleet
	rt      *fleet.Router
	stop    func()
	senders []*eisvc.Client // the load: one per client goroutine
	trs     []*http.Transport
	stats   *http.Client
}

// bootRig starts the fleet and router and registers every stack through
// the router.
func bootRig(clients int) (*rig, error) {
	fl, err := fleet.New(fleet.Config{Nodes: 3})
	if err != nil {
		return nil, err
	}
	rt, base, stop, err := fl.StartRouter("")
	if err != nil {
		fl.Close()
		return nil, err
	}
	r := &rig{fl: fl, rt: rt, stop: stop}
	r.stats = &http.Client{Transport: r.transport(), Timeout: 10 * time.Second}
	for i := 0; i < clients; i++ {
		r.senders = append(r.senders, r.client(base))
	}
	if err := r.register(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) transport() *http.Transport {
	tr := eisvc.NewTransport(eisvc.TransportTuning{MaxConnsPerHost: 1})
	r.trs = append(r.trs, tr)
	return tr
}

// client returns a binary-codec client for base on a connection of its own.
func (r *rig) client(base string) *eisvc.Client {
	c := eisvc.NewClient(base)
	c.SetTransport(r.transport())
	c.Binary = true
	c.ID = "servebench"
	c.Timeout = 20 * time.Second
	return c
}

// register seeds the two native CNN devices (Go closures cannot travel as
// EIL) and registers every EIL source through the router.
func (r *rig) register() error {
	for b, name := range devices[fig1Stack].targets {
		cnn, err := nativeCNN(b)
		if err != nil {
			return err
		}
		if err := r.fl.SeedInterface(name, cnn); err != nil {
			return fmt.Errorf("seed %s: %w", name, err)
		}
	}
	for _, s := range stackSources {
		if _, err := r.senders[0].Register(s.src); err != nil {
			return fmt.Errorf("register %s: %w", s.name, err)
		}
	}
	return nil
}

func (r *rig) close() {
	r.stop()
	r.fl.Close()
	for _, tr := range r.trs {
		tr.CloseIdleConnections()
	}
}

// rebind swaps stack's device to binding b through the router.
func (r *rig) rebind(ctx context.Context, c *eisvc.Client, stack string, b int) error {
	d := devices[stack]
	_, err := c.RebindCtx(ctx, stack, d.path, d.targets[b])
	return err
}

// counters are /v1/stats fields read from every node and folded exactly:
// counts are summed, peak_queue is the maximum, and the compiled_* counts,
// which each node reports process-wide, are taken once.
type counters map[string]float64

func (r *rig) nodeStats() (counters, error) {
	out := counters{}
	for _, n := range r.fl.Nodes() {
		resp, err := r.stats.Get(n.URL + "/v1/stats")
		if err != nil {
			return nil, fmt.Errorf("stats %s: %w", n.ID, err)
		}
		var m map[string]any
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("stats %s: %w", n.ID, err)
		}
		for k, v := range m {
			f, ok := v.(float64)
			if !ok {
				continue
			}
			switch k {
			case "peak_queue":
				out[k] = max(out[k], f)
			case "compiled_programs", "compile_fallbacks", "compiled_evals":
				out[k] = f
			default:
				out[k] += f
			}
		}
	}
	return out, nil
}

// since returns the counters' growth from before; peak_queue, a lifetime
// maximum, is kept as read.
func (c counters) since(before counters) counters {
	out := counters{}
	for k, v := range c {
		if k == "peak_queue" {
			out[k] = v
			continue
		}
		out[k] = v - before[k]
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
