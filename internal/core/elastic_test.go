package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcws/internal/trace"
)

// elasticScheduler builds a pool with growth headroom and aggressive
// exposure so resizes interleave with real steals under -race.
func elasticScheduler(p Policy, workers, maxWorkers int) *Scheduler {
	return NewScheduler(Options{
		Workers:    workers,
		MaxWorkers: maxWorkers,
		Policy:     p,
		Seed:       42,
		YieldEvery: 1,
		PollEvery:  4,
	})
}

// waitUntil polls cond every millisecond until it holds or the
// deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSetWorkersBounds(t *testing.T) {
	s := elasticScheduler(SignalLCWS, 2, 4)
	defer s.Close()
	if err := s.SetWorkers(0); err == nil {
		t.Error("SetWorkers(0) succeeded, want error")
	}
	if err := s.SetWorkers(5); err == nil {
		t.Error("SetWorkers(5) above MaxWorkers succeeded, want error")
	}
	if got := s.MaxWorkers(); got != 4 {
		t.Errorf("MaxWorkers() = %d, want 4", got)
	}
	for _, n := range []int{1, 4, 2} {
		if err := s.SetWorkers(n); err != nil {
			t.Fatalf("SetWorkers(%d): %v", n, err)
		}
		if got := s.Workers(); got != n {
			t.Errorf("Workers() = %d after SetWorkers(%d)", got, n)
		}
	}
}

func TestSetWorkersAfterClose(t *testing.T) {
	s := elasticScheduler(SignalLCWS, 2, 4)
	s.Run(func(w *Worker) {})
	s.Close()
	if err := s.SetWorkers(4); !errors.Is(err, ErrSchedulerClosed) {
		t.Errorf("SetWorkers after Close = %v, want ErrSchedulerClosed", err)
	}
}

// TestSetWorkersBeforeStart resizes a pool that has never spawned a
// goroutine: the set must flip without creating workers, and the first
// Run must spawn exactly the resized live set.
func TestSetWorkersBeforeStart(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := elasticScheduler(p, 4, 8)
		defer s.Close()
		if err := s.SetWorkers(2); err != nil {
			t.Fatal(err)
		}
		if err := s.SetWorkers(6); err != nil {
			t.Fatal(err)
		}
		if got := s.Workers(); got != 6 {
			t.Fatalf("Workers() = %d before start, want 6", got)
		}
		var got int
		s.Run(func(w *Worker) { got = fib(w, 15) })
		if got != 610 {
			t.Fatalf("fib(15) = %d, want 610", got)
		}
		if st := s.Stats(); st.WorkersRetired != 0 {
			t.Errorf("WorkersRetired = %d for a pre-start shrink, want 0", st.WorkersRetired)
		}
	})
}

// TestShrinkRetiresAndReclaims shrinks a running pool and waits for the
// surplus workers to drain, retire, and have their resources reclaimed.
func TestShrinkRetiresAndReclaims(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := elasticScheduler(p, 8, 8)
		defer s.Close()
		var got int
		s.Run(func(w *Worker) { got = fib(w, 18) })
		if got != 2584 {
			t.Fatalf("fib(18) = %d, want 2584", got)
		}
		if err := s.SetWorkers(2); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, 5*time.Second, "6 workers to retire", func() bool {
			return s.workersRetired.Load() >= 6
		})
		if got := s.Workers(); got != 2 {
			t.Errorf("Workers() = %d after shrink, want 2", got)
		}
		// A no-op SetWorkers still attempts reclamation; once the two
		// live workers deep-park (unpinned), every retiree is
		// reclaimable.
		waitUntil(t, 5*time.Second, "retired slots to be reclaimed", func() bool {
			if err := s.SetWorkers(2); err != nil {
				t.Fatal(err)
			}
			return s.epochReclaims.Load() >= 6
		})
		s.Run(func(w *Worker) { got = fib(w, 16) })
		if got != 987 {
			t.Fatalf("fib(16) on shrunk pool = %d, want 987", got)
		}
		st := s.Stats()
		if st.Resizes == 0 {
			t.Error("Resizes = 0 after SetWorkers shrink")
		}
	})
}

// TestRetireThenRegrowReuse retires slots, forces reclamation, then
// grows back over the same slots: deques, freelists and rings must be
// reusable, and thieves' per-victim state (MultFree claim cursors,
// sticky victims) must stay sound across the cycle.
func TestRetireThenRegrowReuse(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := elasticScheduler(p, 8, 8)
		defer s.Close()
		for cycle := 0; cycle < 3; cycle++ {
			var got int
			s.Run(func(w *Worker) { got = fib(w, 18) })
			if got != 2584 {
				t.Fatalf("cycle %d: fib(18) = %d, want 2584", cycle, got)
			}
			if err := s.SetWorkers(1); err != nil {
				t.Fatal(err)
			}
			waitUntil(t, 5*time.Second, "7 workers to retire", func() bool {
				return s.workersRetired.Load() >= uint64(cycle+1)*7
			})
			if err := s.SetWorkers(8); err != nil {
				t.Fatal(err)
			}
			if got := s.Workers(); got != 8 {
				t.Fatalf("cycle %d: Workers() = %d after regrow, want 8", cycle, got)
			}
		}
		st := s.Stats()
		if st.WorkersRetired < 21 {
			t.Errorf("WorkersRetired = %d, want >= 21", st.WorkersRetired)
		}
		if st.Resizes < 6 {
			t.Errorf("Resizes = %d, want >= 6", st.Resizes)
		}
	})
}

// TestSetWorkersRacingSubmit flips the pool size while jobs with real
// fork-join parallelism (hence steals across the epoch boundary) run
// underneath. Under -race this is the main epoch-protocol exerciser,
// including MultFree's relaxed claims against victims that retire and
// come back mid-run.
func TestSetWorkersRacingSubmit(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := elasticScheduler(p, 2, 8)
		defer s.Close()
		stop := make(chan struct{})
		var flips sync.WaitGroup
		flips.Add(1)
		go func() {
			defer flips.Done()
			sizes := []int{1, 8, 3, 2, 5, 1, 8}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := s.SetWorkers(sizes[i%len(sizes)]); err != nil {
					t.Error(err)
					return
				}
				// Throttle: an unbroken stream of resizes starves the
				// pool of forward progress; the point is interleaving,
				// not livelock.
				time.Sleep(200 * time.Microsecond)
			}
		}()
		defer func() {
			close(stop)
			flips.Wait()
		}()
		for round := 0; round < 100; round++ {
			var sum atomic.Int64
			err := submitBounded(t, s, func(w *Worker) {
				ParFor(w, 0, 512, 4, func(w *Worker, i int) {
					sum.Add(int64(i))
				})
			})
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			if want := int64(512) * 511 / 2; sum.Load() != want {
				t.Fatalf("round %d: sum = %d, want %d", round, sum.Load(), want)
			}
		}
	})
}

// TestSetWorkersRacingClose races resizes (including grows, which spawn
// goroutines) against Close: Close must wait for every spawned worker
// and SetWorkers must never revive a closed pool.
func TestSetWorkersRacingClose(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		for round := 0; round < 10; round++ {
			s := elasticScheduler(p, 2, 8)
			s.Run(func(w *Worker) { _ = fib(w, 10) })
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					if err := s.SetWorkers(1 + i%8); err != nil {
						if !errors.Is(err, ErrSchedulerClosed) {
							t.Errorf("SetWorkers: %v", err)
						}
						return
					}
				}
			}()
			go func() {
				defer wg.Done()
				s.Close()
			}()
			wg.Wait()
			s.Close()
		}
	})
}

// TestDemandGrowth verifies the submit-side probe: a pool of one with
// backlog in the injector must grow toward MaxWorkers without any
// SetWorkers call.
func TestDemandGrowth(t *testing.T) {
	s := elasticScheduler(SignalLCWS, 1, 4)
	defer s.Close()
	var release atomic.Bool
	var jobs []*Job
	waitUntil(t, 5*time.Second, "demand growth", func() bool {
		for i := 0; i < 4; i++ {
			jobs = append(jobs, s.Submit(func(w *Worker) {
				for !release.Load() {
					time.Sleep(100 * time.Microsecond)
				}
			}))
		}
		return s.poolGrows.Load() > 0
	})
	release.Store(true)
	for _, j := range jobs {
		if err := waitBounded(t, s, j); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Workers(); got < 2 {
		t.Errorf("Workers() = %d after sustained backlog, want >= 2", got)
	}
}

// TestIdleRetirement verifies the other half of elasticity: workers the
// demand probe added above the resident target retire again once the
// pool has been idle past the deep-park insurance window.
func TestIdleRetirement(t *testing.T) {
	s := elasticScheduler(SignalLCWS, 1, 4)
	defer s.Close()
	var release atomic.Bool
	var jobs []*Job
	waitUntil(t, 5*time.Second, "demand growth", func() bool {
		for i := 0; i < 4; i++ {
			jobs = append(jobs, s.Submit(func(w *Worker) {
				for !release.Load() {
					time.Sleep(100 * time.Microsecond)
				}
			}))
		}
		return s.poolGrows.Load() > 0
	})
	release.Store(true)
	for _, j := range jobs {
		if err := waitBounded(t, s, j); err != nil {
			t.Fatal(err)
		}
	}
	// The pool is now idle and above target; each insurance window
	// (100ms) retires one surplus worker.
	waitUntil(t, 10*time.Second, "idle retirement back to target", func() bool {
		return s.Workers() == 1 && s.workersRetired.Load() > 0
	})
}

// TestParkUnparkDuringReclamation shrinks a fully deep-parked pool —
// retirement must pull sleeping surplus workers out of their park
// rather than waiting out insurance timers — and then wakes the
// remainder with fresh work while reclamation is still pending.
func TestParkUnparkDuringReclamation(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := elasticScheduler(p, 4, 4)
		defer s.Close()
		s.Run(func(w *Worker) { _ = fib(w, 14) })
		// Give the pool time to deep-park everyone.
		time.Sleep(20 * time.Millisecond)
		if err := s.SetWorkers(1); err != nil {
			t.Fatal(err)
		}
		waitUntil(t, 5*time.Second, "parked surplus workers to retire", func() bool {
			return s.workersRetired.Load() >= 3
		})
		var got int
		s.Run(func(w *Worker) { got = fib(w, 14) })
		if got != 377 {
			t.Fatalf("fib(14) = %d, want 377", got)
		}
	})
}

// TestElasticTraceEvents pins a worker in a long job across a shrink so
// retirement is observable in a snapshot (the blocker's old-epoch pin
// defers ring reclamation), then checks the flip itself is recorded by
// the survivors once they adopt the new epoch.
func TestElasticTraceEvents(t *testing.T) {
	s := NewScheduler(Options{
		Workers: 3,
		Policy:  SignalLCWS,
		Seed:    42,
		Trace:   &trace.Config{BufPerWorker: 1 << 12},
	})
	defer s.Close()
	s.Run(func(w *Worker) {}) // spawn the pool
	var started, release atomic.Bool
	blocker := s.Submit(func(w *Worker) {
		started.Store(true)
		for !release.Load() {
			time.Sleep(100 * time.Microsecond)
		}
	})
	waitUntil(t, 5*time.Second, "blocker to start", started.Load)
	if err := s.SetWorkers(1); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "a surplus worker to retire", func() bool {
		return s.workersRetired.Load() >= 1
	})
	tr := s.TraceSnapshot()
	if tr.Workers != s.Workers() {
		t.Errorf("Trace.Workers = %d, want live count %d", tr.Workers, s.Workers())
	}
	retires := 0
	for _, e := range tr.Events {
		if e.Type == trace.EvRetire {
			retires++
		}
	}
	if retires == 0 {
		t.Error("no EvRetire event in snapshot taken before reclamation")
	}
	release.Store(true)
	if err := waitBounded(t, s, blocker); err != nil {
		t.Fatal(err)
	}
	s.Run(func(w *Worker) { _ = fib(w, 10) })
	resizes := 0
	for _, e := range s.TraceSnapshot().Events {
		if e.Type == trace.EvResize {
			resizes++
		}
	}
	if resizes == 0 {
		t.Error("no EvResize event after survivors adopted the new epoch")
	}
}

// TestSnapshotConsistentMidResize hammers TraceSnapshot and Workers
// while the pool size flips: both must read one coherent epoch (no
// index out of range on a shrinking set, count and ring iteration from
// the same set load). Counter aggregation (Stats) is checked only at
// quiescence — its plain per-worker counters are documented as exact
// only then.
func TestSnapshotConsistentMidResize(t *testing.T) {
	s := NewScheduler(Options{
		Workers:    2,
		MaxWorkers: 8,
		Policy:     MultFree,
		Seed:       42,
		YieldEvery: 1,
		PollEvery:  4,
		Trace:      &trace.Config{BufPerWorker: 1 << 10},
	})
	defer s.Close()
	s.Run(func(w *Worker) { _ = fib(w, 10) })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var flips atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.SetWorkers(1 + i%8); err != nil {
				t.Error(err)
				return
			}
			flips.Add(1)
			time.Sleep(50 * time.Microsecond)
		}
	}()
	// Snapshot until at least 200 reads have raced at least 25 flips:
	// without the flip floor the loop can complete before the flipper
	// goroutine is even scheduled, and nothing would actually race.
	for i := 0; i < 200 || flips.Load() < 25; i++ {
		if n := s.Workers(); n < 1 || n > 8 {
			t.Fatalf("Workers() = %d outside [1, 8]", n)
		}
		tr := s.TraceSnapshot()
		if tr.Workers < 1 || tr.Workers > 8 {
			t.Fatalf("Trace.Workers = %d outside [1, 8]", tr.Workers)
		}
		for _, e := range tr.Events {
			if e.Worker < 0 || e.Worker >= 8 {
				t.Fatalf("event from worker %d outside the slab", e.Worker)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := s.SetWorkers(2); err != nil {
		t.Fatal(err)
	}
	var got int
	s.Run(func(w *Worker) { got = fib(w, 12) })
	if got != 144 {
		t.Fatalf("fib(12) = %d, want 144", got)
	}
	if st := s.Stats(); st.Resizes == 0 {
		t.Error("Resizes = 0 after the flip storm")
	}
}
