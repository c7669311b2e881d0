package core

import (
	"strings"
	"sync/atomic"
	"testing"
)

// TestTaskRecycleStealStress drives recycled tasks through every
// cross-worker path — exposure, steals, helping joins — on an
// oversubscribed pool with aggressive yielding, so the race detector
// checks the freelist discipline's central claim: an executing thief's
// completion stamp is its last access to a task before the owner reuses
// it. Correctness of the computed sums additionally catches any stale
// descriptor payload a recycling bug would deliver.
func TestTaskRecycleStealStress(t *testing.T) {
	for _, pol := range Policies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			s := NewScheduler(Options{
				Workers:    4,
				Policy:     pol,
				YieldEvery: 1,
				PollEvery:  1,
				Seed:       7,
			})
			const n = 1 << 12
			rounds := 6
			if testing.Short() {
				rounds = 2
			}
			for r := 0; r < rounds; r++ {
				var sum atomic.Int64
				err := submitBounded(t, s, func(w *Worker) {
					ParFor(w, 0, n, 1, func(w *Worker, i int) {
						sum.Add(int64(i))
						w.Poll()
					})
				})
				if err != nil {
					t.Fatalf("round %d: %v", r, err)
				}
				if want := int64(n) * (n - 1) / 2; sum.Load() != want {
					t.Fatalf("round %d: sum = %d, want %d (a recycled task ran with a stale descriptor)",
						r, sum.Load(), want)
				}
				st := s.Counters()
				s.ResetCounters()
				_ = st
			}
		})
	}
}

// TestTaskRecycleForkTreeStress is the Fork2 (function task) analogue of
// the ParFor stress: an irregular fib tree where every fork descriptor
// is recycled many times across steals.
func TestTaskRecycleForkTreeStress(t *testing.T) {
	var fib func(w *Worker, n int) int
	fib = func(w *Worker, n int) int {
		if n < 2 {
			return n
		}
		var a, b int
		Fork2(w,
			func(w *Worker) { a = fib(w, n-1) },
			func(w *Worker) { b = fib(w, n-2) },
		)
		return a + b
	}
	for _, pol := range Policies {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			s := NewScheduler(Options{Workers: 4, Policy: pol, YieldEvery: 2, PollEvery: 1, Seed: 11})
			got := 0
			s.Run(func(w *Worker) { got = fib(w, 15) })
			if got != 610 {
				t.Fatalf("fib(15) = %d, want 610", got)
			}
		})
	}
}

// TestDoubleFreePanics seeds a deliberate recycling-discipline violation
// through the test-only post-join hook — freeing the just-freed task a
// second time — and asserts the freelist turns it into an immediate
// panic instead of silent corruption.
func TestDoubleFreePanics(t *testing.T) {
	defer func() { testHookAfterJoin = nil }()
	testHookAfterJoin = func(w *Worker, rt *Task) {
		testHookAfterJoin = nil // fire once
		w.freeTask(rt)
	}
	s := NewScheduler(Options{Workers: 1})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double free of a task did not panic")
		}
		// The panic unwound out of a running task, so Run wraps it in a
		// TaskPanic carrying the worker id.
		tp, ok := r.(*TaskPanic)
		if !ok {
			t.Fatalf("double free panicked with %T (%v), want *TaskPanic", r, r)
		}
		msg, ok := tp.Value.(string)
		if !ok || !strings.Contains(msg, "double free") {
			t.Fatalf("double free panicked with %v, want the recycling-discipline message", r)
		}
	}()
	s.Run(func(w *Worker) {
		Fork2(w, allocNoop, allocNoop)
	})
}

// TestGenerationStampMechanics pins the completion-stamp algebra that
// makes recycled tasks safe without an atomic reset: a fresh incarnation
// is not done, completing satisfies exactly the stamp captured at fork
// time, and — the stale-done property — a completion stored by a
// previous incarnation can never satisfy the next incarnation's join.
func TestGenerationStampMechanics(t *testing.T) {
	s := NewScheduler(Options{Workers: 1})
	s.Run(func(w *Worker) {
		tk := w.newTask()
		want := tk.seq + 1
		if tk.isDone(want) {
			t.Error("fresh task reports done before completion")
		}
		tk.complete()
		if !tk.isDone(want) {
			t.Error("completed task does not report done")
		}
		w.freeTask(tk)

		reused := w.newTask()
		if reused != tk {
			t.Fatal("freelist did not hand back the freed task")
		}
		want2 := reused.seq + 1
		if reused.isDone(want2) {
			t.Error("stale completion stamp of the previous incarnation satisfies the new join")
		}
		if reused.seq+1 != want2 || reused.seq == want-1 {
			t.Error("generation did not advance across free/realloc")
		}
		reused.complete()
		if !reused.isDone(want2) {
			t.Error("second incarnation's completion does not satisfy its own join")
		}
		w.freeTask(reused)
	})
}

// TestStampMismatchDetectsRecycledJoin verifies the join-side assertion
// condition: once a task is freed, the stamp captured by any join still
// in flight no longer matches seq+1, which is exactly what join panics
// on.
func TestStampMismatchDetectsRecycledJoin(t *testing.T) {
	s := NewScheduler(Options{Workers: 1})
	s.Run(func(w *Worker) {
		tk := w.newTask()
		want := tk.seq + 1
		w.freeTask(tk)
		if tk.seq+1 == want {
			t.Error("freeing a task left its generation unchanged; in-flight joins could not detect the recycle")
		}
		if got := w.newTask(); got != tk {
			t.Fatal("freelist did not hand back the freed task")
		}
		w.freeTask(tk)
	})
}
