package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"lcws/internal/counters"
)

// testWorkerCounts are the pool sizes exercised by the cross-policy tests.
var testWorkerCounts = []int{1, 2, 3, 4, 8}

func forEachPolicy(t *testing.T, f func(t *testing.T, p Policy)) {
	t.Helper()
	for _, p := range Policies {
		p := p
		t.Run(p.String(), func(t *testing.T) { f(t, p) })
	}
}

func newTestScheduler(p Policy, workers int) *Scheduler {
	return NewScheduler(Options{Workers: workers, Policy: p, Seed: 42})
}

// jobDeadline bounds how long waitBounded waits on one job.
const jobDeadline = 30 * time.Second

// waitBounded waits for j at most jobDeadline and returns its error. On
// timeout it fails the test with the pool's state dump instead of
// hanging until the package timeout. Wait runs on its own goroutine, so
// a Wait that never returns is caught as well as a job that never
// settles. Call it from the test goroutine only (it uses t.Fatalf).
func waitBounded(t *testing.T, s *Scheduler, j *Job) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- j.Wait() }()
	timer := time.NewTimer(jobDeadline)
	defer timer.Stop()
	select {
	case err := <-errc:
		return err
	case <-timer.C:
		t.Fatalf("job %d: Wait still blocked after %v:\n%s", j.id, jobDeadline, s.DumpState())
		return nil
	}
}

// submitBounded submits root under a cancellable context and waits for
// it through waitBounded. On timeout the deferred cancel unwinds the
// job's frames at their next Checkpoint, so the pool is free for the
// tests that follow.
func submitBounded(t *testing.T, s *Scheduler, root func(*Worker)) error {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	return waitBounded(t, s, s.Submit(root, WithJobCtx(ctx)))
}

// TestWaitReturnsBeforeIdleWorkersLeave pins where the pool's
// quiescence is paid for: Wait returns at settlement even while a
// worker is still inside its busy phase (the held busy count stands in
// for a thief lagging in an idle-backoff sleep), and the counter reader
// waits for that worker instead — Stats started on another goroutine
// does not return until the hold is released, and then reads exactly
// the job's tasks.
func TestWaitReturnsBeforeIdleWorkersLeave(t *testing.T) {
	s := newTestScheduler(WS, 2)
	defer s.Close()
	var released atomic.Bool
	s.busy.Add(1)
	release := func() {
		if released.CompareAndSwap(false, true) {
			s.busy.Add(-1)
		}
	}
	defer release()

	j := s.Submit(func(w *Worker) {})
	if err := waitBounded(t, s, j); err != nil {
		t.Fatalf("Wait = %v", err)
	}

	type read struct {
		st           Stats
		afterRelease bool
	}
	started := make(chan struct{})
	got := make(chan read, 1)
	go func() {
		close(started)
		st := s.Stats()
		got <- read{st, released.Load()}
	}()
	<-started
	select {
	case <-got:
		t.Fatal("Stats returned while a worker was still inside its busy phase")
	default:
	}
	release()
	r := <-got
	if !r.afterRelease {
		t.Fatal("Stats returned before the busy hold was released")
	}
	if r.st.TasksExecuted != j.Stats().Tasks {
		t.Errorf("TasksExecuted = %d, want JobStats.Tasks = %d", r.st.TasksExecuted, j.Stats().Tasks)
	}
}

func fib(w *Worker, n int) int {
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

func TestFibAllPoliciesAllWorkerCounts(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		for _, workers := range testWorkerCounts {
			s := newTestScheduler(p, workers)
			var got int
			s.Run(func(w *Worker) { got = fib(w, 16) })
			if got != 987 {
				t.Errorf("P=%d: fib(16) = %d, want 987", workers, got)
			}
		}
	})
}

func TestParForSum(t *testing.T) {
	const n = 10000
	forEachPolicy(t, func(t *testing.T, p Policy) {
		for _, workers := range testWorkerCounts {
			s := newTestScheduler(p, workers)
			var sum atomic.Int64
			s.Run(func(w *Worker) {
				ParFor(w, 0, n, 16, func(w *Worker, i int) {
					sum.Add(int64(i))
				})
			})
			want := int64(n) * (n - 1) / 2
			if sum.Load() != want {
				t.Errorf("P=%d: sum = %d, want %d", workers, sum.Load(), want)
			}
			sum.Store(0)
		}
	})
}

func TestParForEachIndexExactlyOnce(t *testing.T) {
	const n = 4096
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := newTestScheduler(p, 4)
		hits := make([]atomic.Int32, n)
		s.Run(func(w *Worker) {
			ParFor(w, 0, n, 7, func(w *Worker, i int) {
				hits[i].Add(1)
			})
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("index %d executed %d times, want 1", i, got)
			}
		}
	})
}

func TestParForEmptyAndReversedRange(t *testing.T) {
	s := newTestScheduler(SignalLCWS, 2)
	ran := false
	s.Run(func(w *Worker) {
		ParFor(w, 5, 5, 1, func(w *Worker, i int) { ran = true })
		ParFor(w, 7, 3, 1, func(w *Worker, i int) { ran = true })
	})
	if ran {
		t.Error("body ran for an empty range")
	}
}

func TestSchedulerReuseAcrossRuns(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := newTestScheduler(p, 3)
		for round := 0; round < 5; round++ {
			var got int
			s.Run(func(w *Worker) { got = fib(w, 12) })
			if got != 144 {
				t.Fatalf("round %d: fib(12) = %d, want 144", round, got)
			}
		}
	})
}

func TestNestedParForAndFork(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := newTestScheduler(p, 4)
		var total atomic.Int64
		s.Run(func(w *Worker) {
			ParFor(w, 0, 32, 2, func(w *Worker, i int) {
				ParFor(w, 0, 32, 4, func(w *Worker, j int) {
					total.Add(1)
				})
			})
		})
		if total.Load() != 32*32 {
			t.Errorf("nested ParFor executed %d bodies, want %d", total.Load(), 32*32)
		}
	})
}

func TestFork4RunsAllBranches(t *testing.T) {
	s := newTestScheduler(HalfLCWS, 4)
	var mask atomic.Int32
	s.Run(func(w *Worker) {
		Fork4(w,
			func(w *Worker) { mask.Add(1) },
			func(w *Worker) { mask.Add(10) },
			func(w *Worker) { mask.Add(100) },
			func(w *Worker) { mask.Add(1000) },
		)
	})
	if mask.Load() != 1111 {
		t.Errorf("Fork4 branches = %d, want 1111", mask.Load())
	}
}

func TestUnbalancedRecursionCompletes(t *testing.T) {
	// A highly skewed task tree stresses stealing and (for LCWS) the
	// exposure path: the left spine is long, rights are tiny.
	var count func(w *Worker, depth int) int
	count = func(w *Worker, depth int) int {
		if depth == 0 {
			return 1
		}
		var a, b int
		Fork2(w,
			func(w *Worker) { a = count(w, depth-1) },
			func(w *Worker) { b = 1 },
		)
		return a + b
	}
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := newTestScheduler(p, 4)
		var got int
		s.Run(func(w *Worker) { got = count(w, 200) })
		if got != 201 {
			t.Errorf("skewed tree count = %d, want 201", got)
		}
	})
}

func TestCountersTasksExecuted(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := newTestScheduler(p, 2)
		s.Run(func(w *Worker) { fib(w, 10) })
		sn := s.Counters()
		// fib(10) forks 88 pairs plus the root: every push must be
		// matched by exactly one execution, plus the root task.
		if sn.Get(counters.TaskExecuted) != sn.Get(counters.TaskPushed)+1 {
			t.Errorf("executed %d tasks for %d pushes (+1 root expected)",
				sn.Get(counters.TaskExecuted), sn.Get(counters.TaskPushed))
		}
	})
}

func TestCountersPolicyModel(t *testing.T) {
	// Single worker, no thieves: WS must pay fences for every push/pop;
	// LCWS must pay none at all (every op is private).
	run := func(p Policy) counters.Snapshot {
		s := newTestScheduler(p, 1)
		s.Run(func(w *Worker) { fib(w, 12) })
		return s.Counters()
	}
	ws := run(WS)
	if ws.Get(counters.Fence) == 0 {
		t.Error("WS with 1 worker recorded no fences; expected one per push and pop")
	}
	wantWSFences := ws.Get(counters.TaskPushed) * 2 // 1 push fence + 1 pop fence per task
	if ws.Get(counters.Fence) != wantWSFences {
		t.Errorf("WS fences = %d, want %d (2 per pushed task)", ws.Get(counters.Fence), wantWSFences)
	}
	for _, p := range LCWSPolicies {
		sn := run(p)
		if got := sn.Get(counters.Fence); got != 0 {
			t.Errorf("%v with 1 worker recorded %d fences, want 0", p, got)
		}
		if got := sn.Get(counters.CAS); got != 0 {
			t.Errorf("%v with 1 worker recorded %d CAS, want 0", p, got)
		}
	}
}

func TestConcurrentRunsShareThePool(t *testing.T) {
	// The resident executor accepts overlapping Runs from multiple
	// goroutines: both jobs complete over the same pool (the one-shot
	// scheduler used to panic here).
	s := newTestScheduler(WS, 2)
	inRun := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(func(w *Worker) {
			close(inRun)
			<-release
		})
	}()
	<-inRun
	var got int
	s.Run(func(w *Worker) { got = fib(w, 10) })
	if got != 55 {
		t.Errorf("overlapping Run: fib(10) = %d, want 55", got)
	}
	close(release)
	<-done
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
		ok   bool
	}{
		{"WS", WS, true},
		{"USLCWS", USLCWS, true},
		{"User", USLCWS, true},
		{"Signal", SignalLCWS, true},
		{"Cons", ConsLCWS, true},
		{"Half", HalfLCWS, true},
		{"nope", 0, false},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParsePolicy(%q) succeeded, want error", c.in)
		}
	}
}

func TestPolicyPredicates(t *testing.T) {
	if WS.SplitDeque() {
		t.Error("WS should not use a split deque")
	}
	for _, p := range LCWSPolicies {
		if !p.SplitDeque() {
			t.Errorf("%v should use a split deque", p)
		}
	}
	if USLCWS.SignalBased() {
		t.Error("USLCWS is not signal-based")
	}
	for _, p := range []Policy{SignalLCWS, ConsLCWS, HalfLCWS} {
		if !p.SignalBased() {
			t.Errorf("%v should be signal-based", p)
		}
	}
	if !SignalLCWS.raceFixPop() || !HalfLCWS.raceFixPop() {
		t.Error("Signal and Half must use the race-fixed pop_bottom")
	}
	if ConsLCWS.raceFixPop() || USLCWS.raceFixPop() || LaceWS.raceFixPop() {
		t.Error("Cons, USLCWS and Lace must keep the original pop_bottom")
	}
	if !USLCWS.flagBased() || !LaceWS.flagBased() {
		t.Error("USLCWS and Lace observe requests via the targeted flag")
	}
	if LaceWS.SignalBased() {
		t.Error("Lace is not signal-based")
	}
	if !LaceWS.SplitDeque() {
		t.Error("Lace uses a split deque")
	}
}

func TestSignalsFlowOnlyInSignalPolicies(t *testing.T) {
	// Run a workload with enough parallelism slack that thieves must
	// request exposure, and check signal counters per policy.
	run := func(p Policy) counters.Snapshot {
		s := newTestScheduler(p, 4)
		s.Run(func(w *Worker) { fib(w, 18) })
		return s.Counters()
	}
	if sn := run(WS); sn.Get(counters.SignalSent) != 0 || sn.Get(counters.Exposure) != 0 {
		t.Error("WS recorded signals or exposures")
	}
	if sn := run(USLCWS); sn.Get(counters.SignalSent) != 0 {
		t.Error("USLCWS sent emulated signals; it must use only the targeted flag")
	}
	for _, p := range []Policy{SignalLCWS, ConsLCWS, HalfLCWS} {
		sn := run(p)
		if sn.Get(counters.SignalHandled) > sn.Get(counters.SignalSent) {
			t.Errorf("%v handled %d signals but only %d were sent",
				p, sn.Get(counters.SignalHandled), sn.Get(counters.SignalSent))
		}
	}
}

func TestTaskPanicPropagatesToRun(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := newTestScheduler(p, 3)
		defer func() {
			// recover() != nil still holds for existing callers; the
			// value is now a TaskPanic wrapping the original.
			r := recover()
			if r == nil {
				t.Fatal("Run did not re-throw the task panic")
			}
			tp, ok := r.(*TaskPanic)
			if !ok {
				t.Fatalf("Run re-threw %T (%v), want *TaskPanic", r, r)
			}
			if tp.Value != "boom" {
				t.Fatalf("Run re-threw TaskPanic.Value %v, want boom", tp.Value)
			}
			if tp.WorkerID < 0 || tp.WorkerID >= s.Workers() {
				t.Fatalf("TaskPanic.WorkerID = %d, want a valid worker id", tp.WorkerID)
			}
		}()
		s.Run(func(w *Worker) {
			ParFor(w, 0, 100, 1, func(w *Worker, i int) {
				if i == 37 {
					panic("boom")
				}
			})
		})
	})
}

func TestPanicInForkedBranch(t *testing.T) {
	s := newTestScheduler(SignalLCWS, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("panic in forked branch not propagated")
		}
	}()
	s.Run(func(w *Worker) {
		Fork2(w,
			func(w *Worker) {},
			func(w *Worker) { panic("right branch") },
		)
	})
}

func TestYieldEveryOptionRuns(t *testing.T) {
	s := NewScheduler(Options{Workers: 2, Policy: HalfLCWS, YieldEvery: 1, Seed: 3})
	var got int
	s.Run(func(w *Worker) { got = fib(w, 12) })
	if got != 144 {
		t.Fatalf("fib with YieldEvery = %d", got)
	}
}

func TestLacePolicyEndToEnd(t *testing.T) {
	for _, workers := range testWorkerCounts {
		s := newTestScheduler(LaceWS, workers)
		var got int
		s.Run(func(w *Worker) { got = fib(w, 16) })
		if got != 987 {
			t.Errorf("Lace P=%d: fib(16) = %d, want 987", workers, got)
		}
	}
}

func TestLaceSendsNoSignals(t *testing.T) {
	s := newTestScheduler(LaceWS, 4)
	s.Run(func(w *Worker) { fib(w, 18) })
	sn := s.Counters()
	if sn.Get(counters.SignalSent) != 0 || sn.Get(counters.SignalHandled) != 0 {
		t.Error("Lace used the signal mechanism; it must be flag-based")
	}
}

func TestLaceSingleWorkerSyncFree(t *testing.T) {
	s := newTestScheduler(LaceWS, 1)
	s.Run(func(w *Worker) { fib(w, 12) })
	sn := s.Counters()
	if sn.Get(counters.Fence) != 0 || sn.Get(counters.CAS) != 0 {
		t.Errorf("Lace with 1 worker recorded sync ops: fences=%d cas=%d",
			sn.Get(counters.Fence), sn.Get(counters.CAS))
	}
}

func TestOversubscribedStealDynamics(t *testing.T) {
	// With task-granular yielding, thieves interleave with the busy
	// worker even on a single-CPU host, driving the steal, exposure and
	// (for signal policies) notification paths.
	work := func(w *Worker) {
		ParFor(w, 0, 3000, 4, func(w *Worker, i int) {
			x := i
			for k := 0; k < 50; k++ {
				x = x*31 + k
				w.Poll()
			}
			_ = x
		})
	}
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := NewScheduler(Options{Workers: 8, Policy: p, Seed: 5, YieldEvery: 1})
		s.Run(work)
		sn := s.Counters()
		if sn.Get(counters.StealAttempt) == 0 {
			t.Errorf("%v: no steal attempts despite 8 oversubscribed workers", p)
		}
		if p != WS && sn.Get(counters.StealSuccess) > 0 && sn.Get(counters.Exposure) == 0 {
			t.Errorf("%v: steals happened without any exposure", p)
		}
		if p == WS && sn.Get(counters.Exposure) != 0 {
			t.Error("WS recorded exposures")
		}
	})
}

func TestWorkerCountersPerWorker(t *testing.T) {
	s := newTestScheduler(WS, 2)
	s.Run(func(w *Worker) { fib(w, 10) })
	var sum counters.Snapshot
	for id := 0; id < s.Workers(); id++ {
		sum = sum.Add(s.WorkerCounters(id))
	}
	total := s.Counters()
	for e := 0; e < counters.NumEvents; e++ {
		if sum[e] != total[e] {
			t.Errorf("event %v: per-worker sum %d != total %d", counters.Event(e), sum[e], total[e])
		}
	}
}

func TestSmallDequeCapacityOverflows(t *testing.T) {
	// A deque smaller than the recursion depth no longer panics: it
	// doubles up to MaxDequeCapacity and then spills its oldest tasks to
	// the overflow list, so the job completes — with the growth and
	// spill visible in the stats.
	s := NewScheduler(Options{Workers: 1, Policy: SignalLCWS, DequeCapacity: 4, MaxDequeCapacity: 8})
	defer s.Close()
	var got int
	s.Run(func(w *Worker) { got = fib(w, 20) })
	if want := 6765; got != want {
		t.Errorf("fib(20) = %d through growth and spilling, want %d", got, want)
	}
	st := s.Stats()
	if st.DequeGrows == 0 {
		t.Errorf("deep recursion on a 4-slot deque recorded no growth")
	}
	if st.TasksSpilled == 0 {
		t.Errorf("recursion past the 8-slot maximum capacity recorded no spills")
	}
}

func TestOptionsDefaults(t *testing.T) {
	s := NewScheduler(Options{})
	if s.Workers() != 1 || s.Policy() != WS {
		t.Errorf("zero Options gave %d workers, %v", s.Workers(), s.Policy())
	}
}

func TestCheckpointHandlesPendingSignal(t *testing.T) {
	// Drive the emulated-signal handler directly: set up a worker with
	// private work and a pending signal; Checkpoint must expose.
	s := newTestScheduler(SignalLCWS, 1)
	s.Run(func(w *Worker) {
		rt := &Task{fn: func(*Worker) {}}
		w.push(rt)
		w.pending.Store(true)
		w.Checkpoint()
		sn := s.Counters()
		if sn.Get(counters.SignalHandled) != 1 {
			t.Errorf("SignalHandled = %d, want 1", sn.Get(counters.SignalHandled))
		}
		if sn.Get(counters.Exposure) != 1 {
			t.Errorf("Exposure = %d, want 1", sn.Get(counters.Exposure))
		}
		// Take the (now public) task back so Run's empty-deque invariant
		// holds.
		if got := w.popLocal(); got != rt {
			t.Error("exposed task not retrievable via popLocal")
		}
		w.runTask(rt)
	})
}

func TestForkN(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := newTestScheduler(p, 3)
		var sum atomic.Int64
		s.Run(func(w *Worker) {
			var fns []func(*Worker)
			for i := 1; i <= 17; i++ {
				i := i
				fns = append(fns, func(w *Worker) { sum.Add(int64(i)) })
			}
			ForkN(w, fns...)
		})
		if sum.Load() != 17*18/2 {
			t.Errorf("ForkN sum = %d, want %d", sum.Load(), 17*18/2)
		}
	})
}

func TestForkNDegenerate(t *testing.T) {
	s := newTestScheduler(SignalLCWS, 2)
	s.Run(func(w *Worker) {
		ForkN(w) // zero branches: no-op
		ran := false
		ForkN(w, func(w *Worker) { ran = true })
		if !ran {
			t.Error("single-branch ForkN did not run")
		}
	})
}

func TestPollEveryOption(t *testing.T) {
	// With PollEvery=1 every Poll checks for signals; a pending signal
	// planted before a polling loop must be handled on the first call.
	s := NewScheduler(Options{Workers: 1, Policy: SignalLCWS, PollEvery: 1})
	s.Run(func(w *Worker) {
		rt := &Task{fn: func(*Worker) {}}
		w.push(rt)
		w.pending.Store(true)
		w.Poll()
		if s.Counters().Get(counters.SignalHandled) != 1 {
			t.Error("PollEvery=1 did not handle the signal on the first Poll")
		}
		w.runTask(w.popLocal())
	})
	// With a huge interval, a small number of polls never checks.
	s2 := NewScheduler(Options{Workers: 1, Policy: SignalLCWS, PollEvery: 1 << 20})
	s2.Run(func(w *Worker) {
		rt := &Task{fn: func(*Worker) {}}
		w.push(rt)
		w.pending.Store(true)
		for i := 0; i < 100; i++ {
			w.Poll()
		}
		if s2.Counters().Get(counters.SignalHandled) != 0 {
			t.Error("huge PollEvery handled a signal within 100 polls")
		}
		w.pending.Store(false)
		w.runTask(w.popLocal())
	})
}
