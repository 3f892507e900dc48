package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// result is what one operation produced: answers delivered, answers that
// failed, and how many of the failures the server refused under load
// (429/503). A single eval yields one answer or one failure; a batch
// yields one per item.
type result struct {
	answers, failed, shed int
}

func (r *result) add(o result) {
	r.answers += o.answers
	r.failed += o.failed
	r.shed += o.shed
}

// sample is one timed operation. Times are offsets from the phase start.
// In an open loop due is when the operation was scheduled, so latency
// includes any wait a stall imposed on it; lag is how late the generator
// handed it to a sender. In a closed loop due is when it was sent.
type sample struct {
	due, done, lag time.Duration
	result
}

func (s sample) latency() time.Duration { return s.done - s.due }

// openLoop schedules n operations at a fixed interval from start and runs
// them on senders goroutines. The schedule does not wait for answers: when
// every sender is busy, operations queue and their latency, timed from
// the due time, grows. do(sender, i) runs operation i.
func openLoop(start time.Time, interval time.Duration, n, senders int, do func(sender, i int) result) []sample {
	out := make([]sample, n)
	jobs := make(chan int, n) // one slot per operation: the scheduler never blocks
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				r := do(w, i)
				out[i].done = time.Since(start)
				out[i].result = r
			}
		}(w)
	}
	// The runtime's timers wake up to a millisecond late here, which would
	// charge the generator's own lateness to every request; a nanosleep on
	// a thread of its own wakes within tens of microseconds.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < n; i++ {
		due := time.Duration(i) * interval
		for wait := due - time.Since(start); wait > 0; wait = due - time.Since(start) {
			ts := syscall.NsecToTimespec(int64(wait))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
		}
		out[i].due = due
		out[i].lag = time.Since(start) - due
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

// closedLoop runs clients callers, each sending its next operation only
// after the previous one answered, until dur has passed since start. do
// times its own operation with timeOp, so work a caller does between
// operations (a write, in batch-churn) stays out of their latency.
func closedLoop(start time.Time, dur time.Duration, clients int, do func(client int) sample) []sample {
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < dur {
				per[c] = append(per[c], do(c))
			}
		}(c)
	}
	wg.Wait()
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out
}

// timeOp runs f as one closed-loop operation timed against start.
func timeOp(start time.Time, f func() result) sample {
	due := time.Since(start)
	r := f()
	return sample{due: due, done: time.Since(start), result: r}
}
