package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"lcws/internal/counters"
	"lcws/internal/deque"
)

// checkDelivered asserts that exactly one emulated signal was handled
// since base and that it made exactly one task public.
func checkDelivered(t *testing.T, w *Worker, base uint64, where string) {
	t.Helper()
	if got := w.ctr.Get(counters.SignalHandled); got != base+1 {
		t.Errorf("%s: SignalHandled = %d, want %d", where, got, base+1)
	}
	if w.pending.Load() {
		t.Errorf("%s: request still pending", where)
	}
	if got := w.dq.(*deque.SplitDeque[Task]).PublicSize(); got != 1 {
		t.Errorf("%s: %d public tasks, want 1", where, got)
	}
}

// TestForkPathDeliversPendingSignal plants a request by hand and checks
// that the next Fork2 push, forkRange push and join each handle it, with
// no Checkpoint in between: a Fork2 tree that never polls must still
// answer thieves.
func TestForkPathDeliversPendingSignal(t *testing.T) {
	s := newTestScheduler(SignalLCWS, 1)
	s.Run(func(w *Worker) {
		base := w.ctr.Get(counters.SignalHandled)
		w.pending.Store(true)
		Fork2(w, func(w *Worker) {
			checkDelivered(t, w, base, "Fork2 push")
		}, func(*Worker) {})

		base = w.ctr.Get(counters.SignalHandled)
		w.pending.Store(true)
		ParFor(w, 0, 2, 1, func(w *Worker, i int) {
			if i == 0 {
				checkDelivered(t, w, base, "forkRange push")
			}
		})

		// The inner join sees two private tasks and exposes the oldest
		// (the outer sibling), so its own sibling comes back private.
		base = w.ctr.Get(counters.SignalHandled)
		Fork2(w, func(w *Worker) {
			Fork2(w, func(w *Worker) {
				w.pending.Store(true)
			}, func(w *Worker) {
				checkDelivered(t, w, base, "join")
			})
		}, func(*Worker) {})
	})
}

// TestSignalForkPathSyncFree checks the price of the delivery points
// when no request is pending: a lone Signal worker running Fork2 and
// ParFor trees pays no fence, no CAS, handles no signal and exposes
// nothing — the pending check is a plain load outside the counting
// model.
func TestSignalForkPathSyncFree(t *testing.T) {
	s := newTestScheduler(SignalLCWS, 1)
	var sum atomic.Int64
	s.Run(func(w *Worker) {
		fib(w, 14)
		ParFor(w, 0, 1024, 1, func(_ *Worker, i int) { sum.Add(int64(i)) })
	})
	sn := s.Counters()
	if sn.Get(counters.TaskPushed) == 0 {
		t.Fatal("no task was pushed")
	}
	for _, c := range []counters.Event{counters.Fence, counters.CAS, counters.SignalHandled, counters.Exposure} {
		if got := sn.Get(c); got != 0 {
			t.Errorf("%v = %d, want 0", c, got)
		}
	}
	if want := int64(1024 * 1023 / 2); sum.Load() != want {
		t.Errorf("ParFor sum = %d, want %d", sum.Load(), want)
	}
}

// TestSignalFork2TreeSteals runs a Fork2-only tree on a two-worker Signal
// pool. The root's left branch holds the job — forking no-op pairs, each
// push a delivery point — until the other worker has taken the right
// subtree, or a deadline passes; the wait is what keeps the result the
// same on a one-CPU host, where the thief may not run before a short tree
// ends.
func TestSignalFork2TreeSteals(t *testing.T) {
	s := newTestScheduler(SignalLCWS, 2)
	defer s.Close()
	var stolen atomic.Bool
	got := 0
	s.Run(func(w *Worker) {
		root := w.ID()
		Fork2(w, func(w *Worker) {
			deadline := time.Now().Add(10 * time.Second)
			for !stolen.Load() && time.Now().Before(deadline) {
				Fork2(w, func(*Worker) {}, func(*Worker) {})
				runtime.Gosched()
			}
		}, func(w *Worker) {
			stolen.Store(w.ID() != root)
			got = fib(w, 15)
		})
	})
	if !stolen.Load() {
		t.Fatal("the right subtree was never stolen: requests are not answered on the Fork2 path")
	}
	if got != 610 {
		t.Errorf("fib(15) = %d, want 610", got)
	}
	if n := s.Counters().Get(counters.StealSuccess); n == 0 {
		t.Error("StealSuccess = 0 after a steal")
	}
}

// TestIdleBackoffStaysAwakeAfterNotify checks the idle rule: a thief
// whose last steal attempt found the victim holding private work keeps
// yielding past the spin/yield window instead of sleeping, and sleeps
// once an attempt finds the victim empty. A join's help loop never
// sleeps. GOMAXPROCS is raised to the pool size so the rule applies on
// 1-CPU hosts too (see TestIdleBackoffSleepsWhenOversubscribed).
func TestIdleBackoffStaysAwakeAfterNotify(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := newTestScheduler(SignalLCWS, 2)
	defer s.Close()
	victim, w := s.worker(0), s.worker(1)
	tk := &Task{fn: func(*Worker) {}}
	victim.split.PushBottom(tk, victim.ctr) //lcws:presync single-threaded test; the pool has no job, so worker 0's goroutine is idle

	w.idleSpins = idleSpinIters + idleYieldIters //lcws:presync single-threaded test
	if got := w.stealOnce(); got != nil {
		t.Fatal("stole a private task")
	}
	if !w.victimPrivate {
		t.Fatal("a PrivateWork attempt did not mark the victim as holding private work")
	}
	for i := 0; i < 4; i++ {
		w.idleBackoff(true)
	}
	if got := w.ctr.Get(counters.ParkedNanos); got != 0 || w.idleSleep != 0 {
		t.Fatalf("thief slept after notifying (ParkedNanos = %d, idleSleep = %v)", got, w.idleSleep)
	}

	// The victim runs its task: the next attempt finds it empty.
	if victim.dq.PopBottom(victim.ctr) != tk { //lcws:presync single-threaded test
		t.Fatal("victim lost its task")
	}
	victim.split.PopPublicBottom(victim.ctr) //lcws:presync single-threaded test; repairs the race-fix pop
	victim.targeted.Store(false)
	victim.pending.Store(false)
	if got := w.stealOnce(); got != nil || w.victimPrivate {
		t.Fatalf("attempt on an empty victim: task %v, victimPrivate %v", got, w.victimPrivate)
	}
	w.idleBackoff(false)
	if got := w.ctr.Get(counters.ParkedNanos); got != 0 {
		t.Fatalf("join help loop slept (ParkedNanos = %d)", got)
	}
	w.idleBackoff(true)
	if got := w.ctr.Get(counters.ParkedNanos); got == 0 {
		t.Error("top-level thief past the yield window did not sleep after finding the victim empty")
	}
}

// TestIdleBackoffSleepsWhenOversubscribed checks the rule's bound: with
// more live workers than GOMAXPROCS, a thief that just notified its
// victim and a join's help loop both go on to the sleep ladder past the
// yield window, because a waiter that keeps yielding there holds the
// processor the victim needs.
func TestIdleBackoffSleepsWhenOversubscribed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := newTestScheduler(SignalLCWS, 2)
	defer s.Close()
	victim, w := s.worker(0), s.worker(1)
	tk := &Task{fn: func(*Worker) {}}
	victim.split.PushBottom(tk, victim.ctr) //lcws:presync single-threaded test; the pool has no job, so worker 0's goroutine is idle

	w.idleSpins = idleSpinIters + idleYieldIters //lcws:presync single-threaded test
	if got := w.stealOnce(); got != nil || !w.victimPrivate {
		t.Fatalf("attempt on a victim with private work: task %v, victimPrivate %v", got, w.victimPrivate)
	}
	w.idleBackoff(true)
	slept := w.ctr.Get(counters.ParkedNanos)
	if slept == 0 {
		t.Fatal("oversubscribed thief kept yielding after notifying instead of sleeping")
	}
	w.idleBackoff(false)
	if got := w.ctr.Get(counters.ParkedNanos); got == slept {
		t.Error("oversubscribed join help loop kept yielding instead of sleeping")
	}
}
