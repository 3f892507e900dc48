package eisvc

import (
	"testing"

	"energyclarity/internal/core"
)

func TestValueJSONRoundTrip(t *testing.T) {
	vals := []core.Value{
		core.Nil(),
		core.Bool(true),
		core.Num(3.141592653589793),
		core.Num(1e-21),
		core.Str("hello"),
		core.List(core.Num(1), core.Str("two"), core.Bool(false)),
		core.Record(map[string]core.Value{
			"pixels": core.Num(307200),
			"meta":   core.Record(map[string]core.Value{"fmt": core.Str("rgb")}),
			"tags":   core.List(core.Str("a"), core.Str("b")),
		}),
	}
	for _, v := range vals {
		got, err := ValueFromJSON(ValueToJSON(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
	if _, err := ValueFromJSON(make(chan int)); err == nil {
		t.Error("non-JSON type accepted")
	}
}

func TestMemoKeyCanonicalization(t *testing.T) {
	args := []core.Value{core.Record(map[string]core.Value{"n": core.Num(5)})}

	// Parallelism never splits the key.
	a := core.MonteCarlo(512, 3)
	b := core.MonteCarlo(512, 3)
	b.Parallelism = 8
	if callKey(t, "i", 1, "m", args, a) != callKey(t, "i", 1, "m", args, b) {
		t.Error("parallelism split the memo key")
	}

	// Defaults normalize: omitted and explicit default collide.
	c := core.Expected()
	d := core.Expected()
	d.Samples = core.DefaultSamples
	d.EnumLimit = core.DefaultEnumLimit
	if callKey(t, "i", 1, "m", args, c) != callKey(t, "i", 1, "m", args, d) {
		t.Error("explicit defaults split the memo key")
	}

	// Version always splits it.
	if callKey(t, "i", 1, "m", args, a) == callKey(t, "i", 2, "m", args, a) {
		t.Error("version did not split the memo key")
	}

	// Seed splits Monte Carlo keys but not fixed-mode keys.
	e := core.MonteCarlo(512, 4)
	if callKey(t, "i", 1, "m", args, a) == callKey(t, "i", 1, "m", args, e) {
		t.Error("seed did not split monte-carlo keys")
	}
	pin := map[string]core.Value{"x": core.Bool(true)}
	f1 := core.FixedAssignment(pin)
	f2 := core.FixedAssignment(pin)
	f1.Seed, f2.Seed = 1, 2
	f1.Samples, f2.Samples = 100, 200
	if callKey(t, "i", 1, "m", args, f1) != callKey(t, "i", 1, "m", args, f2) {
		t.Error("mode-irrelevant knobs split fixed-mode keys")
	}

	// Pinned-ECV order is canonical.
	g1 := core.Expected()
	g1.Fixed = map[string]core.Value{"a": core.Num(1), "b": core.Num(2)}
	g2 := core.Expected()
	g2.Fixed = map[string]core.Value{"b": core.Num(2), "a": core.Num(1)}
	if callKey(t, "i", 1, "m", args, g1) != callKey(t, "i", 1, "m", args, g2) {
		t.Error("fixed-map iteration order split the memo key")
	}

	// Different args split it.
	other := []core.Value{core.Record(map[string]core.Value{"n": core.Num(6)})}
	if callKey(t, "i", 1, "m", args, c) == callKey(t, "i", 1, "m", other, c) {
		t.Error("args did not split the memo key")
	}
}
