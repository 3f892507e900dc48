package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"energyclarity/internal/core"
	"energyclarity/internal/eil"
	"energyclarity/internal/gpusim"
	"energyclarity/internal/microbench"
	"energyclarity/internal/mlservice"
	"energyclarity/internal/nn"
)

// The three served stacks. ml_webservice is the paper's Fig. 1 EIL over a
// Go-native cnn_forward, so it runs on the interpreter with the layer
// cache; gpt2_stack and moe_stack are pure EIL and run compiled.
const (
	fig1Stack = "ml_webservice"
	gpt2Stack = "gpt2_stack"
	moeStack  = "moe_stack"
)

var stacks = []string{fig1Stack, gpt2Stack, moeStack}

// altDevicesEIL declares a second device for each pure-EIL stack, with the
// method signatures of the one the stack ships with, so a rebind swaps
// them. batch-churn toggles every stack between its two devices.
const altDevicesEIL = `
interface device_hw_b "logical kernel pricing for a second simulated accelerator" {
  ecv thermal_throttle: bernoulli(0.04) "sustained load trips DVFS down, costing ~22% extra energy per op"

  func kernel_logical(instructions, l1_accesses, working_set, reuse) {
    let l1_bytes = l1_accesses * 32
    let l2_bytes = max(l1_bytes / reuse, working_set)
    let vram_bytes = min(l2_bytes, working_set * 2)
    let base = 1.4nJ * instructions
             + 0.9nJ * l1_accesses
             + 2.9nJ * (l2_bytes / 32)
             + 17nJ * (vram_bytes / 32)
    if thermal_throttle {
      return base * 1.22
    }
    return base
  }
}

interface moe_device_b "a cooler MoE accelerator with a shorter DVFS ladder" {
  ecv thermal_throttle: bernoulli(0.01) "sustained load trips the hot levels down"
  ecv hbm_contention: choice { 1: 0.7, 1.2: 0.2, 1.5: 0.1 } "co-tenant HBM traffic multiplier"

  func speed(level) {
    if level < 0.5 {
      return 1
    } else if level < 1.5 {
      return 1.2
    }
    return 1.45
  }

  func joules_per_op(level) {
    if level < 0.5 {
      return 0.8nJ
    } else if level < 1.5 {
      return 1.05nJ
    }
    return 1.4nJ
  }

  func hot_level(level) {
    if level < 1.5 {
      return 0
    }
    return 1
  }

  func eff_speed(level) {
    let s = speed(level)
    if thermal_throttle {
      s = s * (1 - 0.1 * hot_level(level))
    }
    return s
  }

  func kernel(ops, level) {
    let e = ops * joules_per_op(level) * (0.75 + 0.25 * hbm_contention)
    if thermal_throttle {
      e = e * (1 + 0.08 * hot_level(level))
    }
    return e
  }
}
`

// probeEIL is a stack no request reads: hot-zipf and cold-mix time their
// writes by rebinding it while they serve, so the writes invalidate
// nothing the reads use.
const probeEIL = `
interface probe_dev_a "write-probe device" {
  func op(n) {
    return 1nJ * n
  }
}

interface probe_dev_b "write-probe device, rebind target" {
  func op(n) {
    return 2nJ * n
  }
}

interface write_probe "a stack only the write probe rebinds" {
  uses dev: probe_dev_a

  func run(n) {
    return dev.op(n)
  }
}
`

const probeStack = "write_probe"

// device is one side of a stack's rebind: the binding path and the
// registered device interface for each of the two bindings.
type device struct {
	path    string
	targets [2]string
}

var devices = map[string]device{
	probeStack: {path: "dev", targets: [2]string{"probe_dev_a", "probe_dev_b"}},
	fig1Stack:  {path: "cnn", targets: [2]string{"cnn_forward", "cnn_forward_b"}},
	gpt2Stack:  {path: "hw", targets: [2]string{"device_hw", "device_hw_b"}},
	moeStack:   {path: "dev", targets: [2]string{"moe_device", "moe_device_b"}},
}

// nativeCNN builds the Fig. 1 CNN's Go-native energy interface on a
// calibrated simulated GPU: binding 0 is the RTX 4090 rig, binding 1 the
// RTX 3070 rig, with the experiments' canonical device seeds.
func nativeCNN(binding int) (*core.Interface, error) {
	spec, seed := gpusim.RTX4090(), int64(30)
	if binding == 1 {
		spec, seed = gpusim.RTX3070(), 4
	}
	coef, err := microbench.Calibrate(gpusim.NewGPU(spec, seed), 3)
	if err != nil {
		return nil, fmt.Errorf("calibrate %s: %w", spec.Name, err)
	}
	return nn.CNNEnergyInterface(nn.Fig1CNN(), spec, coef.HardwareInterface())
}

// stackSources are the EIL sources registered with the fleet, in order
// (ml_webservice's 'uses cnn: cnn_forward' needs the native CNN first).
var stackSources = []struct{ name, src string }{
	{"fig1", mlservice.Fig1EIL},
	{"gpt2", nn.GPT2EIL},
	{"moe", nn.MoEEIL},
	{"alt_devices", altDevicesEIL},
	{"write_probe", probeEIL},
}

// buildTree compiles a stack in-process with the given device binding,
// independently of the fleet: the binding is chosen by compiling source
// that names the device directly, not by Rebind.
func buildTree(stack string, binding int) (*core.Interface, error) {
	var (
		src string
		reg map[string]*core.Interface
	)
	switch stack {
	case fig1Stack:
		cnn, err := nativeCNN(binding)
		if err != nil {
			return nil, err
		}
		src, reg = mlservice.Fig1EIL, map[string]*core.Interface{"cnn_forward": cnn}
	case gpt2Stack:
		src = nn.GPT2EIL
	case moeStack:
		src = nn.MoEEIL
	default:
		return nil, fmt.Errorf("unknown stack %q", stack)
	}
	if binding == 1 && stack != fig1Stack {
		d := devices[stack]
		use := "uses " + d.path + ": " + d.targets[0] + "\n"
		if !strings.Contains(src, use) {
			return nil, fmt.Errorf("%s source no longer declares %q", stack, strings.TrimSpace(use))
		}
		src = strings.Replace(src, use, "uses "+d.path+": "+d.targets[1]+"\n", 1) + altDevicesEIL
	}
	m, err := eil.Compile(src, reg)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", stack, err)
	}
	return m[stack], nil
}

// call is one generated evaluation request.
type call struct {
	stack, method string
	args          []core.Value
	mode          core.Mode
	fixed         map[string]core.Value
	id            string // the generator's identity for the request
}

func (c call) opts() core.EvalOptions { return core.EvalOptions{Mode: c.mode, Fixed: c.fixed} }

// exactModes are the enumeration modes every workload draws from.
var exactModes = []core.Mode{core.ModeExpected, core.ModeWorstCase, core.ModeBestCase}

// draw generates one request for stack. hot draws from the parameter
// space the warm working sets use; otherwise it draws from the cold space,
// where every draw carries a fresh top-level argument while the
// sub-evaluations beneath it (the CNN forward pass, the device kernels)
// recur.
func draw(rng *rand.Rand, stack string, hot bool) call {
	num := core.Num
	mode := exactModes[rng.Intn(len(exactModes))]
	c := call{stack: stack, mode: mode}
	switch stack {
	case fig1Stack:
		pixels := []int{50176, 100352, 200704, 401408}[rng.Intn(4)]
		zeros := 1000 * rng.Intn(10)
		image := rng.Intn(1 << 30)
		c.method = "handle"
		c.args = []core.Value{core.Record(map[string]core.Value{
			"image": num(float64(image)), "pixels": num(float64(pixels)), "zeros": num(float64(zeros)),
		})}
		c.id = fmt.Sprintf("%s|%d|%d|%d|%d", stack, mode, image, pixels, zeros)
	case gpt2Stack:
		var a []int
		switch {
		case hot:
			c.method, a = "generate", []int{8 + rng.Intn(57), 1 + rng.Intn(3)}
		case rng.Intn(2) == 0:
			c.method, a = "layer_decode", []int{1 + rng.Intn(1<<20)}
		default:
			c.method, a = "layer_prefill", []int{1 + rng.Intn(1<<12)}
		}
		for _, x := range a {
			c.args = append(c.args, num(float64(x)))
		}
		c.id = fmt.Sprintf("%s|%d|%s|%v", stack, mode, c.method, a)
	case moeStack:
		// Pinning the three widest stack ECVs leaves 12 enumerated
		// assignments per answer, which keeps the interpreted oracle cheap;
		// the pins vary per request and are part of its identity.
		batch, level, replicas := 1+rng.Intn(64), rng.Intn(4), 1+rng.Intn(8)
		hotE := []float64{2, 3, 4}[rng.Intn(3)]
		skew := []float64{1, 1.5, 2.25}[rng.Intn(3)]
		miss := float64(rng.Intn(3))
		c.method = []string{"energy", "latency"}[rng.Intn(2)]
		c.args = []core.Value{num(float64(batch)), num(float64(level)), num(float64(replicas))}
		c.fixed = map[string]core.Value{"experts_hot": num(hotE), "route_skew": num(skew), "spec_miss": num(miss)}
		c.id = fmt.Sprintf("%s|%d|%s|%d|%d|%d|%g|%g|%g", stack, mode, c.method, batch, level, replicas, hotE, skew, miss)
	}
	return c
}

// distinctCalls draws n requests with distinct identities, an equal share
// per stack, skipping any identity already in seen (which it extends).
func distinctCalls(rng *rand.Rand, n int, hot bool, seen idSet) []call {
	out := make([]call, 0, n)
	for len(out) < n {
		if c := draw(rng, stacks[len(out)%len(stacks)], hot); seen.add(c.id) {
			out = append(out, c)
		}
	}
	return out
}

// idSet holds request identities by their 64-bit FNV-1a hash, which keeps
// a run's record of every cold key it sent small.
type idSet map[uint64]struct{}

// add records id and reports whether it was new.
func (s idSet) add(id string) bool {
	h := fnv.New64a()
	h.Write([]byte(id))
	k := h.Sum64()
	if _, ok := s[k]; ok {
		return false
	}
	s[k] = struct{}{}
	return true
}
