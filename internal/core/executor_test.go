package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcws/internal/counters"
	"lcws/internal/trace"
)

// --- Lifecycle -----------------------------------------------------------

func TestSubmitWaitBasic(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := newTestScheduler(p, 4)
		defer s.Close()
		var got int
		j := s.Submit(func(w *Worker) { got = fib(w, 16) })
		if err := waitBounded(t, s, j); err != nil {
			t.Fatalf("Wait = %v", err)
		}
		if got != 987 {
			t.Fatalf("fib(16) = %d, want 987", got)
		}
		st := j.Stats()
		if st.Tasks == 0 {
			t.Error("JobStats.Tasks = 0 for a forking job")
		}
		if st.Discarded != 0 {
			t.Errorf("JobStats.Discarded = %d, want 0", st.Discarded)
		}
		if st.Duration <= 0 {
			t.Errorf("JobStats.Duration = %v, want > 0", st.Duration)
		}
	})
}

func TestStartIsOptionalAndIdempotent(t *testing.T) {
	s := newTestScheduler(SignalLCWS, 3)
	defer s.Close()
	s.Start()
	s.Start() // idempotent
	var got int
	s.Run(func(w *Worker) { got = fib(w, 12) })
	if got != 144 {
		t.Fatalf("fib(12) = %d, want 144", got)
	}
}

func TestWorkersPersistAcrossRuns(t *testing.T) {
	// Repeated Runs must not spawn new goroutines: the resident pool is
	// created once. Measured indirectly — jobs complete and the jobs
	// counters advance while the pool stays open.
	s := newTestScheduler(HalfLCWS, 4)
	defer s.Close()
	for round := 0; round < 20; round++ {
		var got int
		s.Run(func(w *Worker) { got = fib(w, 10) })
		if got != 55 {
			t.Fatalf("round %d: fib(10) = %d, want 55", round, got)
		}
	}
	st := s.Stats()
	if st.JobsSubmitted != 20 || st.JobsCompleted != 20 || st.JobsFailed != 0 {
		t.Errorf("job counters = %d submitted / %d completed / %d failed, want 20/20/0",
			st.JobsSubmitted, st.JobsCompleted, st.JobsFailed)
	}
}

func TestCloseIdempotentAndConcurrent(t *testing.T) {
	s := newTestScheduler(WS, 2)
	s.Run(func(w *Worker) { fib(w, 8) })
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Close(); err != nil {
				t.Errorf("Close = %v", err)
			}
		}()
	}
	wg.Wait()
	if !s.Closed() {
		t.Error("Closed() = false after Close")
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	s := newTestScheduler(USLCWS, 2)
	s.Run(func(w *Worker) {})
	if err := s.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	j := s.Submit(func(w *Worker) { t.Error("root of a rejected job ran") })
	if err := waitBounded(t, s, j); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("Wait after Close = %v, want ErrSchedulerClosed", err)
	}
	if err := waitBounded(t, s, s.Submit(func(w *Worker) {}, WithJobCtx(context.Background()))); !errors.Is(err, ErrSchedulerClosed) {
		t.Fatalf("Submit with a context after Close = %v, want ErrSchedulerClosed", err)
	}
}

func TestCloseWithoutEverStarting(t *testing.T) {
	s := newTestScheduler(ConsLCWS, 4)
	if err := s.Close(); err != nil {
		t.Fatalf("Close on a never-started scheduler = %v", err)
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	// Jobs accepted before Close must run to completion even when Close
	// lands while they are still queued or in flight.
	s := newTestScheduler(SignalLCWS, 4)
	const jobs = 32
	var ran atomic.Int64
	handles := make([]*Job, jobs)
	for i := range handles {
		handles[i] = s.Submit(func(w *Worker) {
			ParFor(w, 0, 64, 8, func(w *Worker, i int) { ran.Add(1) })
		})
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	for i, j := range handles {
		if err := waitBounded(t, s, j); err != nil {
			t.Fatalf("job %d: Wait = %v", i, err)
		}
	}
	if got := ran.Load(); got != jobs*64 {
		t.Fatalf("ran %d bodies, want %d", got, jobs*64)
	}
}

// --- Concurrent submission ----------------------------------------------

func TestConcurrentSubmitters(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		for _, traced := range []bool{false, true} {
			traced := traced
			t.Run(fmt.Sprintf("traced=%v", traced), func(t *testing.T) {
				opts := Options{Workers: 4, Policy: p, Seed: 7}
				if traced {
					opts.Trace = &trace.Config{BufPerWorker: 1024}
				}
				s := NewScheduler(opts)
				defer s.Close()
				const submitters = 8
				const jobsEach = 6
				var wg sync.WaitGroup
				for g := 0; g < submitters; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for k := 0; k < jobsEach; k++ {
							var got int
							j := s.Submit(func(w *Worker) { got = fib(w, 12) })
							if err := j.Wait(); err != nil {
								t.Errorf("submitter %d job %d: %v", g, k, err)
								return
							}
							if got != 144 {
								t.Errorf("submitter %d job %d: fib(12) = %d", g, k, got)
							}
						}
					}(g)
				}
				wg.Wait()
				st := s.Stats()
				if st.JobsCompleted != submitters*jobsEach {
					t.Errorf("JobsCompleted = %d, want %d", st.JobsCompleted, submitters*jobsEach)
				}
				if traced {
					// Concurrent TraceSnapshot over the settled pool must
					// see the job spans.
					tr := s.TraceSnapshot()
					if len(tr.Jobs) == 0 {
						t.Error("traced scheduler recorded no job spans")
					}
				}
			})
		}
	})
}

func TestCloseRacesInFlightSubmissions(t *testing.T) {
	// Submissions racing Close must either run to completion or settle
	// with ErrSchedulerClosed — never hang, never poison the pool.
	for round := 0; round < 8; round++ {
		s := newTestScheduler(WS, 4)
		const submitters = 6
		var wg sync.WaitGroup
		errs := make(chan error, submitters*8)
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < 8; k++ {
					j := s.Submit(func(w *Worker) { fib(w, 8) })
					errs <- j.Wait()
				}
			}()
		}
		go s.Close()
		wg.Wait()
		s.Close() // wait for full shutdown before inspecting
		close(errs)
		for err := range errs {
			if err != nil && !errors.Is(err, ErrSchedulerClosed) {
				t.Fatalf("round %d: job settled with %v, want nil or ErrSchedulerClosed", round, err)
			}
		}
	}
}

// --- Panic isolation -----------------------------------------------------

func TestPoolSurvivesTaskPanic(t *testing.T) {
	// Satellite 1: a panicking Run used to poison the one-shot scheduler;
	// the resident pool must keep serving jobs afterwards.
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := newTestScheduler(p, 4)
		defer s.Close()
		for round := 0; round < 3; round++ {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("Run did not re-throw the task panic")
					}
				}()
				s.Run(func(w *Worker) {
					ParFor(w, 0, 256, 1, func(w *Worker, i int) {
						if i == 101 {
							panic("boom")
						}
					})
				})
			}()
			var got int
			s.Run(func(w *Worker) { got = fib(w, 12) })
			if got != 144 {
				t.Fatalf("round %d after panic: fib(12) = %d, want 144", round, got)
			}
		}
	})
}

func TestPanicFailsOnlyItsJob(t *testing.T) {
	// A panic in one job must not disturb a concurrently running job.
	s := newTestScheduler(SignalLCWS, 4)
	defer s.Close()
	release := make(chan struct{})
	started := make(chan struct{})
	var got int
	healthy := s.Submit(func(w *Worker) {
		close(started)
		<-release
		got = fib(w, 12)
	})
	<-started
	bad := s.Submit(func(w *Worker) {
		ParFor(w, 0, 128, 1, func(w *Worker, i int) {
			if i == 64 {
				panic("job-local failure")
			}
		})
	})
	err := waitBounded(t, s, bad)
	var tp *TaskPanic
	if !errors.As(err, &tp) {
		t.Fatalf("failed job's Wait = %v, want *TaskPanic", err)
	}
	if tp.Value != "job-local failure" {
		t.Fatalf("TaskPanic.Value = %v", tp.Value)
	}
	close(release)
	if err := waitBounded(t, s, healthy); err != nil {
		t.Fatalf("healthy job's Wait = %v", err)
	}
	if got != 144 {
		t.Fatalf("healthy job computed %d, want 144", got)
	}
	st := s.Stats()
	if st.JobsFailed != 1 {
		t.Errorf("JobsFailed = %d, want 1", st.JobsFailed)
	}
}

func TestFailedJobDiscardAccounting(t *testing.T) {
	// A failed wide job leaves orphans; they must be drained (counted as
	// discarded) rather than executed, and the pool must quiesce.
	s := newTestScheduler(WS, 4)
	defer s.Close()
	j := s.Submit(func(w *Worker) {
		ParFor(w, 0, 4096, 1, func(w *Worker, i int) {
			if i == 0 {
				panic("early")
			}
		})
	})
	if err := waitBounded(t, s, j); err == nil {
		t.Fatal("failed job's Wait = nil")
	}
	// Pool healthy and counters consistent afterwards.
	var got int
	s.Run(func(w *Worker) { got = fib(w, 10) })
	if got != 55 {
		t.Fatalf("fib(10) after failed job = %d, want 55", got)
	}
	sn := s.Counters()
	if sn.Get(counters.TaskDiscarded) != j.Stats().Discarded {
		t.Errorf("counter discards %d != job discards %d",
			sn.Get(counters.TaskDiscarded), j.Stats().Discarded)
	}
}

// --- Invariant surfacing (satellite 2) -----------------------------------

func TestJobInvariantViolationSurfacesAsError(t *testing.T) {
	// The former "deque non-empty after Run" panic is now a per-job
	// error. Drive settle directly with cooked accounting: a healthy job
	// that claims one created but zero completed tasks.
	s := newTestScheduler(WS, 1)
	defer s.Close()
	j := &Job{id: 99, sched: s, done: make(chan struct{}), start: time.Now()}
	j.shards = make([]jobShard, 1) //lcws:presync single-threaded test; job never published
	j.shards[0].created = 1        //lcws:presync single-threaded test; job never published
	s.activeJobs.Add(1)
	j.settle()
	if err := j.Err(); !errors.Is(err, ErrJobInvariant) {
		t.Fatalf("Err = %v, want ErrJobInvariant", err)
	}
}

// --- Cancellation --------------------------------------------------------

func TestRunCtxPreCancelled(t *testing.T) {
	s := newTestScheduler(WS, 2)
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := waitBounded(t, s, s.Submit(func(w *Worker) { t.Error("root of a pre-cancelled job ran") }, WithJobCtx(ctx)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
}

func TestCancellationUnwindsAtPoll(t *testing.T) {
	// A task that never returns on its own — an infinite loop with only
	// Poll checkpoints — must be unwound by cancellation.
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := NewScheduler(Options{Workers: 2, Policy: p, Seed: 9, PollEvery: 1})
		defer s.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		entered := make(chan struct{})
		var once sync.Once
		errCh := make(chan error, 1)
		go func() {
			errCh <- s.Submit(func(w *Worker) {
				for {
					once.Do(func() { close(entered) })
					w.Poll()
				}
			}, WithJobCtx(ctx)).Wait()
		}()
		<-entered
		cancel()
		select {
		case err := <-errCh:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Wait = %v, want context.Canceled", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("cancellation did not unwind the spinning task")
		}
	})
}

func TestCancelMidJob(t *testing.T) {
	s := NewScheduler(Options{Workers: 4, Policy: SignalLCWS, Seed: 11, PollEvery: 1})
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	entered := make(chan struct{})
	var once sync.Once
	j := s.Submit(func(w *Worker) {
		ParFor(w, 0, 1<<20, 1, func(w *Worker, i int) {
			once.Do(func() { close(entered) })
			for k := 0; k < 100; k++ {
				w.Poll()
			}
		})
	}, WithJobCtx(ctx))
	<-entered
	cancel()
	if err := waitBounded(t, s, j); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait = %v, want context.Canceled", err)
	}
	// The pool must remain healthy for subsequent jobs.
	var got int
	s.Run(func(w *Worker) { got = fib(w, 12) })
	if got != 144 {
		t.Fatalf("fib(12) after cancellation = %d, want 144", got)
	}
}

func TestCancelBeforePickupDiscardsRoot(t *testing.T) {
	// Cancel a job so early that its root may never be picked up: the
	// drain path must settle it (root discard), not leak it.
	s := newTestScheduler(WS, 1)
	defer s.Close()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		j := s.Submit(func(w *Worker) {}, WithJobCtx(ctx))
		cancel()
		err := waitBounded(t, s, j)
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("iteration %d: Wait = %v, want nil or context.Canceled", i, err)
		}
	}
}

// --- Stats & quiescence --------------------------------------------------

func TestStatsExactAfterWaitOnIdlePool(t *testing.T) {
	// The seed guaranteed exact counter reads after Run; the resident
	// pool restores that via quiesce: executed == pushed + 1 root must
	// hold exactly right after Wait on an otherwise-idle scheduler.
	s := newTestScheduler(WS, 4)
	defer s.Close()
	for round := 0; round < 10; round++ {
		s.ResetCounters()
		s.Run(func(w *Worker) { fib(w, 14) })
		sn := s.Counters()
		if sn.Get(counters.TaskExecuted) != sn.Get(counters.TaskPushed)+1 {
			t.Fatalf("round %d: executed %d != pushed %d + 1",
				round, sn.Get(counters.TaskExecuted), sn.Get(counters.TaskPushed))
		}
	}
}

func TestPerJobStatsExactUnderOverlap(t *testing.T) {
	// Scheduler-wide deltas mix overlapping jobs, but per-job Stats must
	// stay exact: fib(n) forks 2*calls tasks; count them per job.
	s := newTestScheduler(WS, 4)
	defer s.Close()
	const jobs = 8
	var wg sync.WaitGroup
	for g := 0; g < jobs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j := s.Submit(func(w *Worker) { fib(w, 12) })
			if err := j.Wait(); err != nil {
				t.Errorf("Wait = %v", err)
				return
			}
			// fib(12) executes 232 Fork2 calls (nodes with n >= 2); each
			// pushes exactly one task, plus the root: 233 tasks.
			if got := j.Stats().Tasks; got != 233 {
				t.Errorf("JobStats.Tasks = %d, want 233", got)
			}
		}()
	}
	wg.Wait()
}

// --- Trace integration ---------------------------------------------------

func TestTraceJobSpansAndEventTags(t *testing.T) {
	s := NewScheduler(Options{
		Workers: 2, Policy: SignalLCWS, Seed: 3,
		Trace: &trace.Config{BufPerWorker: 4096},
	})
	defer s.Close()
	j1 := s.Submit(func(w *Worker) { fib(w, 10) })
	if err := waitBounded(t, s, j1); err != nil {
		t.Fatal(err)
	}
	j2 := s.Submit(func(w *Worker) { fib(w, 10) })
	if err := waitBounded(t, s, j2); err != nil {
		t.Fatal(err)
	}
	tr := s.TraceSnapshot()
	if len(tr.Jobs) != 2 {
		t.Fatalf("trace has %d job spans, want 2", len(tr.Jobs))
	}
	for _, js := range tr.Jobs {
		if js.End < js.Start {
			t.Errorf("job %d: span End %d < Start %d", js.ID, js.End, js.Start)
		}
		if js.Failed {
			t.Errorf("job %d: marked failed", js.ID)
		}
	}
	// Events recorded while serving a job must carry its id; job ids of
	// task events must only be the two submitted ids (or 0 for events
	// recorded before the first switch marker aged in).
	sawTagged := false
	for _, e := range tr.Events {
		if e.Type == trace.EvTaskBegin && e.Job != 0 {
			sawTagged = true
			if e.Job != 1 && e.Job != 2 {
				t.Fatalf("task event tagged with unknown job id %d", e.Job)
			}
		}
	}
	if !sawTagged {
		t.Error("no task event carried a job tag")
	}
}
