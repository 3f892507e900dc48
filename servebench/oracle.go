package main

import (
	"fmt"
	"runtime"
	"sync"

	"energyclarity/internal/core"
	"energyclarity/internal/energy"
)

// oracle evaluates reference answers in-process with the interpreter
// (EvalOptions.Interpret, no layer cache) on interface trees it compiles
// itself, so neither the compiler nor any cache the fleet uses supplies
// the reference it is checked against.
type oracle struct {
	trees map[string][2]*core.Interface
}

func newOracle() (*oracle, error) {
	o := &oracle{trees: map[string][2]*core.Interface{}}
	for _, s := range stacks {
		var pair [2]*core.Interface
		for b := range pair {
			t, err := buildTree(s, b)
			if err != nil {
				return nil, fmt.Errorf("oracle: %w", err)
			}
			pair[b] = t
		}
		o.trees[s] = pair
	}
	return o, nil
}

// ref is the reference answer for c with the stack's device binding b.
func (o *oracle) ref(c call, b int) (energy.Dist, error) {
	opts := c.opts()
	opts.Interpret = true
	opts.Parallelism = 1
	d, err := o.trees[c.stack][b].Eval(c.method, c.args, opts)
	if err != nil {
		return energy.Dist{}, fmt.Errorf("oracle %s: %w", c.id, err)
	}
	return d, nil
}

// refs evaluates ref(calls[i], binding[i]) for every i, one worker per CPU.
func (o *oracle) refs(calls []call, binding []int) ([]energy.Dist, error) {
	out := make([]energy.Dist, len(calls))
	errs := make([]error, len(calls))
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(calls); i += workers {
				out[i], errs[i] = o.ref(calls[i], binding[i])
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
