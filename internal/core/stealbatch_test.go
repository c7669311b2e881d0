package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcws/internal/counters"
)

func newBatchScheduler(p Policy, workers int) *Scheduler {
	return NewScheduler(Options{Workers: workers, Policy: p, Seed: 42, StealBatch: true})
}

// publishOneTask pushes and exposes one no-op task on a split-deque
// worker. It is a Worker method so the owner-only deque calls run on
// the owning receiver (the owneronly contract); tests call it
// single-threaded before starting any concurrent goroutines.
func (w *Worker) publishOneTask() {
	task := w.newTask()
	task.prepareFn(func(*Worker) {})
	w.split.PushBottom(task, w.ctr)
	w.split.Expose(w.policy.exposeMode(), w.ctr)
}

// TestFibStealBatchAllPolicies runs the recursive-fib spawn tree under
// every policy with StealBatch on: batched claims, remnant re-pushes,
// sticky victims and parking must all preserve the fork-join semantics.
func TestFibStealBatchAllPolicies(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		for _, workers := range testWorkerCounts {
			s := newBatchScheduler(p, workers)
			var got int
			s.Run(func(w *Worker) { got = fib(w, 18) })
			if got != 2584 {
				t.Fatalf("workers=%d: fib(18) = %d, want 2584", workers, got)
			}
		}
	})
}

// TestStealBatchReusedScheduler re-runs one batch-mode scheduler many
// times; leaked per-run state (parked bits, semaphore tokens, sticky
// victims) would corrupt later runs.
func TestStealBatchReusedScheduler(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := newBatchScheduler(p, 4)
		for run := 0; run < 20; run++ {
			var got int
			s.Run(func(w *Worker) { got = fib(w, 12) })
			if got != 144 {
				t.Fatalf("run %d: fib(12) = %d, want 144", run, got)
			}
		}
	})
}

// TestStealBatchParForSum checks the range-task path under batch mode.
func TestStealBatchParForSum(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		const n = 1 << 14
		s := newBatchScheduler(p, 4)
		var sum atomic.Uint64
		s.Run(func(w *Worker) {
			ParFor(w, 0, n, 64, func(w *Worker, i int) {
				sum.Add(uint64(i))
			})
		})
		if want := uint64(n) * (n - 1) / 2; sum.Load() != want {
			t.Fatalf("sum = %d, want %d", sum.Load(), want)
		}
	})
}

// TestStealBatchCounters checks the batch-mode counter plumbing: every
// successful steal claims at least one task, so StealBatchTasks >=
// StealSuccess, and the batch counters stay zero with batching off.
func TestStealBatchCounters(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := newBatchScheduler(p, 4)
		s.Run(func(w *Worker) { fib(w, 20) })
		sn := s.Counters()
		if succ := sn.Get(counters.StealSuccess); succ > 0 {
			if batch := sn.Get(counters.StealBatchTasks); batch < succ {
				t.Errorf("StealBatchTasks = %d < StealSuccess = %d", batch, succ)
			}
			if avg := sn.AvgStealBatchSize(); avg < 1 {
				t.Errorf("AvgStealBatchSize = %v, want >= 1", avg)
			}
		}

		single := newTestScheduler(p, 4)
		single.Run(func(w *Worker) { fib(w, 20) })
		sn = single.Counters()
		for _, e := range []counters.Event{counters.StealBatchTasks, counters.WakeupsSent, counters.ParkCount} {
			if v := sn.Get(e); v != 0 {
				t.Errorf("default mode accumulated %s = %d, want 0", e, v)
			}
		}
	})
}

// TestResetForRunClearsPollAndYieldState is the satellite-fix regression
// test: pollCount and sinceYield must not leak across Run calls, or the
// poll phase (and with it the emulated signal-handling latency) differs
// between identical seeded runs.
func TestResetForRunClearsPollAndYieldState(t *testing.T) {
	s := newTestScheduler(SignalLCWS, 1)
	w := s.worker(0)
	w.pollCount = 17               //lcws:presync single-threaded test; no worker goroutines running
	w.sinceYield = 5               //lcws:presync single-threaded test
	w.idleSpins = 99               //lcws:presync single-threaded test
	w.idleSleep = time.Millisecond //lcws:presync single-threaded test
	w.sticky = 2                   //lcws:presync single-threaded test
	w.resetForRun()
	if w.pollCount != 0 {
		t.Errorf("resetForRun left pollCount = %d", w.pollCount)
	}
	if w.sinceYield != 0 {
		t.Errorf("resetForRun left sinceYield = %d", w.sinceYield)
	}
	if w.idleSpins != 0 || w.idleSleep != 0 {
		t.Errorf("resetForRun left idleSpins = %d, idleSleep = %v", w.idleSpins, w.idleSleep)
	}
	if w.sticky != -1 {
		t.Errorf("resetForRun left sticky = %d", w.sticky)
	}
}

// TestPollPhaseIdenticalAcrossRuns drives the same computation twice on
// one scheduler and requires the per-run SignalHandled-relevant poll
// phase to match: with the resetForRun fix, worker 0 ends both runs with
// the same pollCount.
func TestPollPhaseIdenticalAcrossRuns(t *testing.T) {
	s := newTestScheduler(SignalLCWS, 1)
	workload := func(w *Worker) {
		for i := 0; i < 100; i++ {
			w.Poll()
		}
	}
	s.Run(workload)
	first := s.worker(0).pollCount
	s.Run(workload)
	if second := s.worker(0).pollCount; second != first {
		t.Errorf("poll phase leaked across runs: %d then %d", first, second)
	}
}

// TestNotifySingleSignalPerWindow is the satellite-fix regression test
// for the check-then-act race in notify: many concurrent thieves racing
// to notify one victim must send exactly one signal per targeted window
// (the CAS admits one winner), keeping SignalSent exact.
func TestNotifySingleSignalPerWindow(t *testing.T) {
	const thieves = 8
	s := newTestScheduler(SignalLCWS, thieves+1)
	victim := s.worker(0)
	var start, done sync.WaitGroup
	for i := 1; i <= thieves; i++ {
		start.Add(1)
		done.Add(1)
		go func(w *Worker) {
			defer done.Done()
			start.Done()
			start.Wait() // maximize the race window
			w.notify(victim)
		}(s.worker(i))
	}
	done.Wait()
	var sent uint64
	for i := 1; i <= thieves; i++ {
		sent += s.WorkerCounters(i).Get(counters.SignalSent)
	}
	if sent != 1 {
		t.Errorf("%d concurrent notifies sent %d signals, want exactly 1", thieves, sent)
	}
	if !victim.targeted.Load() || !victim.pending.Load() {
		t.Error("victim not targeted/pending after notify")
	}
}

// TestSignalCounterInvariant runs a signal-heavy workload and checks the
// invariant the notify CAS makes exact: every handled signal corresponds
// to exactly one sent signal, so SignalSent >= SignalHandled, and sends
// never exceed one per targeted window (no double-send inflation).
func TestSignalCounterInvariant(t *testing.T) {
	for _, p := range []Policy{SignalLCWS, ConsLCWS, HalfLCWS} {
		t.Run(p.String(), func(t *testing.T) {
			s := newTestScheduler(p, 4)
			s.Run(func(w *Worker) { fib(w, 20) })
			sn := s.Counters()
			sent, handled := sn.Get(counters.SignalSent), sn.Get(counters.SignalHandled)
			if sent < handled {
				t.Errorf("SignalSent = %d < SignalHandled = %d", sent, handled)
			}
		})
	}
}

// TestIdleBackoffLadder drives idleBackoff directly and checks the
// spins -> yields -> capped-sleeps progression and the ParkedNanos
// accounting of the sleep phase.
func TestIdleBackoffLadder(t *testing.T) {
	s := newTestScheduler(WS, 1)
	w := s.worker(0)

	// Phase 1: pure spins — no sleeping, no ParkedNanos.
	for i := 0; i < idleSpinIters; i++ {
		w.idleBackoff(true)
	}
	if got := w.ctr.Get(counters.ParkedNanos); got != 0 {
		t.Fatalf("spin phase accumulated ParkedNanos = %d", got)
	}
	if w.idleSleep != 0 {
		t.Fatalf("spin phase started the sleep ladder: %v", w.idleSleep)
	}

	// Phase 2: yields — still no sleeping.
	for i := 0; i < idleYieldIters; i++ {
		w.idleBackoff(true)
	}
	if got := w.ctr.Get(counters.ParkedNanos); got != 0 {
		t.Fatalf("yield phase accumulated ParkedNanos = %d", got)
	}

	// Phase 3: sleeps — idleSleep doubles per iteration up to the cap,
	// and sleep time lands in ParkedNanos.
	w.idleBackoff(true)
	if w.idleSleep != 2*idleSleepMin {
		t.Errorf("first sleep set idleSleep = %v, want %v", w.idleSleep, 2*idleSleepMin)
	}
	if got := w.ctr.Get(counters.ParkedNanos); got == 0 {
		t.Error("sleep phase accumulated no ParkedNanos")
	}
	for i := 0; i < 12; i++ {
		w.idleBackoff(true)
	}
	if w.idleSleep != idleSleepMax {
		t.Errorf("sleep ladder cap = %v, want %v", w.idleSleep, idleSleepMax)
	}

	// IdleIteration counted every rung.
	want := uint64(idleSpinIters + idleYieldIters + 1 + 12)
	if got := w.ctr.Get(counters.IdleIteration); got != want {
		t.Errorf("IdleIteration = %d, want %d", got, want)
	}

	// Finding work resets the ladder (what next() does).
	w.idleSpins, w.idleSleep = 0, 0 //lcws:presync single-threaded test
	w.idleBackoff(true)
	if w.idleSleep != 0 {
		t.Error("ladder did not restart in the spin phase after a reset")
	}
}

// TestParkWakeRoundTrip parks a worker directly and wakes it through the
// scheduler's parking lot, checking the bitset handshake and both
// counters. The worker re-parks whenever its 1ms insurance timer beats
// the wake: on a single-CPU host the parked window can fall entirely
// inside one of this goroutine's sleep quanta, so one park attempt is
// not guaranteed to be observed, let alone woken.
func TestParkWakeRoundTrip(t *testing.T) {
	s := newBatchScheduler(SignalLCWS, 2)
	w := s.worker(1)
	waker := s.ctrs.Worker(0)

	var woken atomic.Bool
	done := make(chan struct{})
	go func() {
		for !woken.Load() {
			w.park()
		}
		close(done)
	}()

	// Keep trying to catch the worker parked; wakeOne claims the bitset
	// bit with a CAS and counts WakeupsSent only when it actually woke
	// someone, so retrying cannot over-wake.
	deadline := time.After(10 * time.Second)
	for waker.Get(counters.WakeupsSent) == 0 {
		if s.parkWords[0].Load()&(1<<1) != 0 {
			s.wakeOne(waker)
			continue
		}
		select {
		case <-deadline:
			t.Fatal("never caught the worker parked")
		default:
			time.Sleep(10 * time.Microsecond)
		}
	}
	woken.Store(true)
	// The claimed wake's token may have been drained as stale by a
	// concurrent re-park; that round still exits on its insurance timer
	// and then observes woken.
	<-done

	if got := w.ctr.Get(counters.ParkCount); got == 0 {
		t.Error("ParkCount = 0, want at least one park")
	}
	if got := waker.Get(counters.WakeupsSent); got != 1 {
		t.Errorf("WakeupsSent = %d, want 1", got)
	}
	if got := w.ctr.Get(counters.ParkedNanos); got == 0 {
		t.Error("park accumulated no ParkedNanos")
	}
	if s.parkWords[0].Load() != 0 {
		t.Errorf("parkWords not cleared after wake: %b", s.parkWords[0].Load())
	}
}

// TestParkRefusesWithPublicWork checks the pre-park Dekker re-check: a
// worker must not park while another deque holds stealable work.
func TestParkRefusesWithPublicWork(t *testing.T) {
	s := newBatchScheduler(USLCWS, 2)
	s.worker(0).publishOneTask()

	w := s.worker(1)
	done := make(chan struct{})
	go func() {
		w.park() // must return immediately via the re-check
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("worker parked despite visible public work")
	}
	if got := w.ctr.Get(counters.ParkCount); got != 0 {
		t.Errorf("ParkCount = %d, want 0 (re-check should have refused)", got)
	}
	if s.parkWords[0].Load() != 0 {
		t.Error("parked bit left set after refused park")
	}
}

// TestParkTimerInsurance checks the missed-wakeup insurance: a parked
// worker with no wake event returns on its own after idleSleepMax.
func TestParkTimerInsurance(t *testing.T) {
	s := newBatchScheduler(SignalLCWS, 2)
	w := s.worker(1)
	start := time.Now()
	done := make(chan struct{})
	go func() {
		w.park()
		close(done)
	}()
	select {
	case <-done:
		if elapsed := time.Since(start); elapsed > 100*idleSleepMax {
			t.Errorf("insurance wake took %v, cap is %v", elapsed, idleSleepMax)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked worker never woke on the insurance timer")
	}
	if got := w.ctr.Get(counters.ParkCount); got != 1 {
		t.Errorf("ParkCount = %d, want 1", got)
	}
}

// TestStealBatchStress hammers a batch-mode pool with repeated bursty
// spawn trees to exercise park/wake edges under contention; run with
// -race it doubles as the data-race gate for the parking lot.
func TestStealBatchStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test skipped in -short mode")
	}
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := newBatchScheduler(p, 8)
		for round := 0; round < 10; round++ {
			var got int
			s.Run(func(w *Worker) { got = fib(w, 16) })
			if got != 987 {
				t.Fatalf("round %d: fib(16) = %d, want 987", round, got)
			}
		}
	})
}
