package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedScheduler returns a 1-worker scheduler whose single worker is
// occupied by a High-class gate job blocked on the returned release
// function. While the gate holds the worker, submissions queue up in
// the injector without being picked up, so tests can stage a backlog
// and then observe the exact pickup order. The gate never calls Poll,
// so no checkpoint yields fire while it runs.
func gatedScheduler(t *testing.T, opts Options) (*Scheduler, func()) {
	t.Helper()
	opts.Workers = 1
	s := NewScheduler(opts)
	gate := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	j := s.Submit(func(w *Worker) {
		once.Do(func() { close(entered) })
		<-gate
	}, WithJobPriority(High))
	<-entered
	var relOnce sync.Once
	release := func() {
		relOnce.Do(func() { close(gate) })
		_ = waitBounded(t, s, j)
	}
	t.Cleanup(func() { release(); s.Close() })
	return s, release
}

// --- Submission options ---------------------------------------------------

func TestSubmitOptionsRoundtrip(t *testing.T) {
	s := newTestScheduler(WS, 1)
	defer s.Close()
	j := s.Submit(func(w *Worker) {}, WithJobPriority(Low), WithJobWeight(7))
	if err := waitBounded(t, s, j); err != nil {
		t.Fatalf("Wait = %v", err)
	}
	if j.Class() != Low || j.Weight() != 7 {
		t.Fatalf("Class/Weight = %v/%d, want Low/7", j.Class(), j.Weight())
	}
	if st := j.Stats(); st.Class != Low {
		t.Fatalf("JobStats.Class = %v, want Low", st.Class)
	}
	// Defaults and clamping: no options → Normal/1; out-of-range values
	// clamp rather than corrupt the injector's class index.
	d := s.Submit(func(w *Worker) {})
	_ = waitBounded(t, s, d)
	if d.Class() != Normal || d.Weight() != 1 {
		t.Fatalf("default Class/Weight = %v/%d, want Normal/1", d.Class(), d.Weight())
	}
	c := s.Submit(func(w *Worker) {}, WithJobPriority(JobClass(250)), WithJobWeight(-3))
	_ = waitBounded(t, s, c)
	if c.Class() != Low || c.Weight() != 1 {
		t.Fatalf("clamped Class/Weight = %v/%d, want Low/1", c.Class(), c.Weight())
	}
}

func TestParseJobClass(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want JobClass
		ok   bool
	}{
		{"high", High, true}, {"HIGH", High, true}, {"Normal", Normal, true},
		{"low", Low, true}, {"batch", 0, false}, {"", 0, false},
	} {
		got, ok := ParseJobClass(tc.in)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("ParseJobClass(%q) = %v, %v; want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	for _, c := range []JobClass{High, Normal, Low} {
		got, ok := ParseJobClass(c.String())
		if !ok || got != c {
			t.Errorf("ParseJobClass(%q) = %v, %v; want roundtrip", c.String(), got, ok)
		}
	}
}

// --- Bounded admission ----------------------------------------------------

func TestAdmissionFailFast(t *testing.T) {
	var opts Options
	opts.ClassCapacity[Normal] = 2
	s, release := gatedScheduler(t, opts)
	a := s.Submit(func(w *Worker) {})
	b := s.Submit(func(w *Worker) {})
	rej := s.Submit(func(w *Worker) { t.Error("rejected job ran") }, WithAdmission(AdmitFail))
	if err := waitBounded(t, s, rej); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("rejected Wait = %v, want ErrQueueFull", err)
	}
	if st := s.Stats(); st.AdmissionRejects != 1 || st.JobsEnqueuedNormal != 2 {
		t.Fatalf("AdmissionRejects/JobsEnqueuedNormal = %d/%d, want 1/2",
			st.AdmissionRejects, st.JobsEnqueuedNormal)
	}
	// A capped class does not block other classes' admission.
	lo := s.Submit(func(w *Worker) {}, WithJobPriority(Low), WithAdmission(AdmitFail))
	release()
	for _, j := range []*Job{a, b, lo} {
		if err := waitBounded(t, s, j); err != nil {
			t.Fatalf("Wait = %v, want nil", err)
		}
	}
}

func TestAdmissionBlocksUntilSpace(t *testing.T) {
	var opts Options
	opts.ClassCapacity[Normal] = 1
	s, release := gatedScheduler(t, opts)
	first := s.Submit(func(w *Worker) {})
	submitted := make(chan *Job)
	go func() {
		// Fills the only slot's successor: blocks until the gate lifts
		// and the pickup of `first` frees the slot.
		submitted <- s.Submit(func(w *Worker) {})
	}()
	select {
	case <-submitted:
		t.Fatal("second submission did not block on the full class queue")
	case <-time.After(50 * time.Millisecond):
	}
	release()
	var second *Job
	select {
	case second = <-submitted:
	case <-time.After(10 * time.Second):
		t.Fatal("blocked submission never unblocked after pickups freed slots")
	}
	if err := waitBounded(t, s, first); err != nil {
		t.Fatalf("first Wait = %v", err)
	}
	if err := waitBounded(t, s, second); err != nil {
		t.Fatalf("second Wait = %v", err)
	}
}

func TestAdmissionBlockedCtxCancel(t *testing.T) {
	var opts Options
	opts.ClassCapacity[Normal] = 1
	s, release := gatedScheduler(t, opts)
	first := s.Submit(func(w *Worker) {})
	ctx, cancel := context.WithCancel(context.Background())
	submitted := make(chan *Job)
	go func() {
		submitted <- s.Submit(func(w *Worker) { t.Error("cancelled-while-blocked job ran") },
			WithJobCtx(ctx))
	}()
	select {
	case <-submitted:
		t.Fatal("submission did not block")
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	j := <-submitted
	if err := waitBounded(t, s, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	release()
	if err := waitBounded(t, s, first); err != nil {
		t.Fatalf("first Wait = %v", err)
	}
}

func TestAdmissionBlockedClose(t *testing.T) {
	var opts Options
	opts.ClassCapacity[Normal] = 1
	s, release := gatedScheduler(t, opts)
	first := s.Submit(func(w *Worker) {})
	submitted := make(chan *Job)
	go func() {
		submitted <- s.Submit(func(w *Worker) { t.Error("closed-while-blocked job ran") })
	}()
	select {
	case <-submitted:
		t.Fatal("submission did not block")
	case <-time.After(50 * time.Millisecond):
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	j := <-submitted
	if err := waitBounded(t, s, j); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("Wait = %v, want ErrSchedulerClosed", err)
	}
	// Close drains the already-queued job before the workers exit.
	release()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after the gate lifted")
	}
	if err := waitBounded(t, s, first); err != nil {
		t.Fatalf("first Wait = %v, want nil (queued jobs run to completion)", err)
	}
}

// --- Weighted-fair pickup -------------------------------------------------

// TestClassWeightedPickupShares stages a backlog across all three
// classes behind a gated single worker and checks that the pickup
// order honors the configured 4:2:1 class weights: over any prefix in
// which every class still has queued jobs, each class's share of
// pickups stays within 1.3x of its weight share. Single worker + the
// deterministic stride order make this exact, not statistical.
func TestClassWeightedPickupShares(t *testing.T) {
	var opts Options
	opts.ClassWeights = [NumJobClasses]int{4, 2, 1}
	s, release := gatedScheduler(t, opts)
	const perClass = 24
	var mu sync.Mutex
	var order []JobClass
	var jobs []*Job
	for i := 0; i < perClass; i++ {
		for _, c := range []JobClass{High, Normal, Low} {
			c := c
			jobs = append(jobs, s.Submit(func(w *Worker) {
				mu.Lock()
				order = append(order, c)
				mu.Unlock()
			}, WithJobPriority(c)))
		}
	}
	release()
	for _, j := range jobs {
		if err := waitBounded(t, s, j); err != nil {
			t.Fatalf("Wait = %v", err)
		}
	}
	if len(order) != 3*perClass {
		t.Fatalf("ran %d jobs, want %d", len(order), 3*perClass)
	}
	// While all classes have work — the first perClass*(7/4) pickups
	// cannot exhaust High (weight share 4/7) — check weighted shares.
	prefix := perClass * 7 / 4
	var got [NumJobClasses]int
	for _, c := range order[:prefix] {
		got[c]++
	}
	weights := [NumJobClasses]float64{4, 2, 1}
	for c, n := range got {
		ideal := float64(prefix) * weights[c] / 7
		if float64(n) > ideal*1.3+1 || float64(n) < ideal/1.3-1 {
			t.Errorf("class %v: %d of first %d pickups, ideal %.1f (order %v)",
				JobClass(c), n, prefix, ideal, order[:prefix])
		}
	}
}

// TestJobWeightSharesWithinClass checks the second stride level: jobs
// of one class with weights 4/2/1 interleave in proportion to their
// job weights. The order is deterministic (single gated worker), so
// the first 7 pickups split exactly 4:2:1.
func TestJobWeightSharesWithinClass(t *testing.T) {
	s, release := gatedScheduler(t, Options{})
	const perWeight = 8
	var mu sync.Mutex
	var order []int
	var jobs []*Job
	for i := 0; i < perWeight; i++ {
		for _, w := range []int{1, 2, 4} {
			w := w
			jobs = append(jobs, s.Submit(func(wk *Worker) {
				mu.Lock()
				order = append(order, w)
				mu.Unlock()
			}, WithJobWeight(w)))
		}
	}
	release()
	for _, j := range jobs {
		if err := waitBounded(t, s, j); err != nil {
			t.Fatalf("Wait = %v", err)
		}
	}
	var got [5]int
	for _, w := range order[:7] {
		got[w]++
	}
	if got[4] != 4 || got[2] != 2 || got[1] != 1 {
		t.Fatalf("first 7 pickups split w4/w2/w1 = %d/%d/%d, want 4/2/1 (order %v)",
			got[4], got[2], got[1], order[:7])
	}
}

// TestHighNotStarvedByLowBacklog queues one High job behind a deep Low
// backlog: the weighted-fair order must pick the High job among the
// first few pickups regardless of queue depth (FIFO would run 30 Low
// jobs first).
func TestHighNotStarvedByLowBacklog(t *testing.T) {
	s, release := gatedScheduler(t, Options{})
	const backlog = 30
	var mu sync.Mutex
	var order []JobClass
	var jobs []*Job
	submit := func(c JobClass) {
		jobs = append(jobs, s.Submit(func(w *Worker) {
			mu.Lock()
			order = append(order, c)
			mu.Unlock()
		}, WithJobPriority(c)))
	}
	for i := 0; i < backlog; i++ {
		submit(Low)
	}
	submit(High)
	release()
	for _, j := range jobs {
		if err := waitBounded(t, s, j); err != nil {
			t.Fatalf("Wait = %v", err)
		}
	}
	pos := -1
	for i, c := range order {
		if c == High {
			pos = i
			break
		}
	}
	if pos < 0 || pos > 3 {
		t.Fatalf("High job ran at position %d of %d, want within the first 4", pos, len(order))
	}
	if st := s.Stats(); st.JobsEnqueuedLow != backlog || st.JobsEnqueuedHigh != 2 {
		t.Fatalf("JobsEnqueuedLow/High = %d/%d, want %d/2 (gate included)",
			st.JobsEnqueuedLow, st.JobsEnqueuedHigh, backlog)
	}
	if st := s.Stats(); st.InjectorWaitHigh.Count == 0 || st.InjectorWaitLow.Count == 0 {
		t.Fatal("injector wait histograms not populated")
	}
}

// --- Checkpoint preemption ------------------------------------------------

// TestCheckpointYieldHighPreemptsLow proves the QoS preemption point
// works on every policy: a Low job spins at Poll checkpoints until a
// flag only a queued High job can set. With one worker the test
// deadlocks unless the Low job's checkpoint picks the High job up and
// runs it inline.
func TestCheckpointYieldHighPreemptsLow(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := NewScheduler(Options{Workers: 1, Policy: p, Seed: 3, PollEvery: 1})
		defer s.Close()
		var flag atomic.Bool
		entered := make(chan struct{})
		var once sync.Once
		low := s.Submit(func(w *Worker) {
			once.Do(func() { close(entered) })
			for !flag.Load() {
				w.Poll()
			}
		}, WithJobPriority(Low))
		<-entered
		high := s.Submit(func(w *Worker) { flag.Store(true) }, WithJobPriority(High))
		done := make(chan struct{})
		go func() {
			_ = low.Wait()
			_ = high.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(20 * time.Second):
			t.Fatal("High job never ran: checkpoint yield missing")
		}
		if err := low.Err(); err != nil {
			t.Fatalf("low Err = %v", err)
		}
		if err := high.Err(); err != nil {
			t.Fatalf("high Err = %v", err)
		}
		if st := s.Stats(); st.JobYields == 0 {
			t.Fatal("JobYields = 0, want at least one checkpoint pickup")
		}
	})
}
