package main

import (
	"testing"
	"time"
)

// One sender that needs 3 ms per operation cannot keep up with one
// operation due every millisecond: operations queue, and their latency,
// timed from the due time, must carry the queueing, while the generator
// itself stays on schedule.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const (
		n        = 30
		interval = time.Millisecond
		service  = 3 * time.Millisecond
	)
	start := time.Now()
	ss := openLoop(start, interval, n, 1, func(_, _ int) result {
		time.Sleep(service)
		return result{answers: 1}
	})
	if len(ss) != n {
		t.Fatalf("%d samples, want %d", len(ss), n)
	}
	var prevDone time.Duration
	for i, s := range ss {
		if want := time.Duration(i) * interval; s.due != want {
			t.Errorf("op %d due at %v, want %v", i, s.due, want)
		}
		if s.lag < 0 || s.lag > 20*time.Millisecond {
			t.Errorf("op %d dispatched %v late: the generator waited on the sender", i, s.lag)
		}
		if s.done < prevDone+service {
			t.Errorf("op %d done at %v, before its predecessor (%v) plus one service time", i, s.done, prevDone)
		}
		prevDone = s.done
		if s.answers != 1 {
			t.Errorf("op %d result %+v", i, s.result)
		}
	}
	// The last operation waited behind 29 others: at least n*service of
	// work was queued ahead of its completion, less the (n-1) ms by which
	// it was due late.
	last := ss[n-1]
	if min := time.Duration(n)*service - time.Duration(n-1)*interval; last.latency() < min {
		t.Errorf("last latency %v, want at least %v: queueing was not charged", last.latency(), min)
	}
	if last.latency() <= 2*service {
		t.Errorf("last latency %v is a service time, not a due-time latency", last.latency())
	}
}

func TestClosedLoopWaitsForEachAnswer(t *testing.T) {
	const service = 2 * time.Millisecond
	start := time.Now()
	ss := closedLoop(start, 40*time.Millisecond, 2, func(c int) sample {
		return timeOp(start, func() result {
			time.Sleep(service)
			return result{answers: 1}
		})
	})
	if len(ss) < 4 || len(ss) > 2*(40/2+1) {
		t.Fatalf("%d operations in 40 ms from 2 clients at 2 ms each", len(ss))
	}
	for i, s := range ss {
		if s.latency() < service {
			t.Errorf("op %d latency %v below its service time", i, s.latency())
		}
		if s.due >= 40*time.Millisecond {
			t.Errorf("op %d sent at %v, after the phase ended", i, s.due)
		}
	}
}

func TestResultAdd(t *testing.T) {
	r := result{answers: 1}
	r.add(result{answers: 30, failed: 2, shed: 1})
	if r != (result{answers: 31, failed: 2, shed: 1}) {
		t.Errorf("sum %+v", r)
	}
}
