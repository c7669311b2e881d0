package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"lcws/internal/trace"
)

// traceTestScheduler builds a traced scheduler tuned so steals and
// exposures actually happen (oversubscribed yielding, small poll
// interval), mirroring newTestScheduler in scheduler_test.go.
func traceTestScheduler(p Policy, workers int, ringCap int) *Scheduler {
	return NewScheduler(Options{
		Workers:    workers,
		Policy:     p,
		Seed:       42,
		YieldEvery: 1,
		PollEvery:  4,
		Trace:      &trace.Config{BufPerWorker: ringCap},
	})
}

// spinSum burns deterministic work with Poll calls so signal policies
// can expose mid-task.
func spinSum(w *Worker, n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s += i
		w.Poll()
	}
	return s
}

func traceTree(w *Worker, depth int) {
	if depth == 0 {
		spinSum(w, 200)
		return
	}
	Fork2(w,
		func(w *Worker) { traceTree(w, depth-1) },
		func(w *Worker) { traceTree(w, depth-1) },
	)
}

// holdUntilStealAttempt keeps a job's root waiting until the flight
// recorder shows a steal attempt by some worker, or a deadline passes.
// On a small host the owner can otherwise finish a short tree before any
// thief goroutine is scheduled.
func holdUntilStealAttempt(s *Scheduler) {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, e := range s.TraceSnapshot().Events {
			if e.Type == trace.EvStealAttempt {
				return
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestTraceSnapshotEvents runs a fork-join tree under every policy and
// checks the snapshot contains the event types the policy must emit,
// time-sorted and well-formed. The root holds until a thief has tried a
// steal, so the steal-attempt check does not depend on timing.
func TestTraceSnapshotEvents(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := traceTestScheduler(p, 4, 1<<14)
		s.Run(func(w *Worker) {
			holdUntilStealAttempt(s)
			traceTree(w, 8)
		})
		tr := s.TraceSnapshot()
		if tr.Policy != p.String() {
			t.Errorf("Trace.Policy = %q, want %q", tr.Policy, p.String())
		}
		if tr.Workers != 4 {
			t.Errorf("Trace.Workers = %d, want 4", tr.Workers)
		}
		if len(tr.Events) == 0 {
			t.Fatal("snapshot returned no events")
		}
		counts := map[trace.EventType]int{}
		for i, e := range tr.Events {
			if e.Worker < 0 || e.Worker >= 4 {
				t.Fatalf("event %d has worker %d out of range", i, e.Worker)
			}
			if i > 0 && e.Ts < tr.Events[i-1].Ts {
				t.Fatalf("events not time-sorted at %d", i)
			}
			counts[e.Type]++
		}
		if counts[trace.EvFork] == 0 {
			t.Error("no fork events recorded")
		}
		if counts[trace.EvTaskBegin] == 0 || counts[trace.EvTaskEnd] == 0 {
			t.Error("no task span events recorded")
		}
		if counts[trace.EvStealAttempt] == 0 {
			t.Error("no steal attempts recorded within the hold's deadline")
		}
	})
}

// TestTraceChromeExportFromRun pipes a real run's snapshot through the
// Chrome exporter and the validator.
func TestTraceChromeExportFromRun(t *testing.T) {
	s := traceTestScheduler(SignalLCWS, 4, 1<<14)
	s.Run(func(w *Worker) { traceTree(w, 8) })
	tr := s.TraceSnapshot()
	var buf bytes.Buffer
	if err := trace.WriteChrome(&buf, &tr); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if err := trace.ValidateChrome(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("ValidateChrome rejected a real run's trace: %v", err)
	}
}

// TestConcurrentTraceSnapshotDuringRun snapshots continuously while a
// Run executes — the satellite requirement that the freeze protocol is
// race-detector clean against live owner rings. Rings are tiny so
// snapshots constantly race wrap-around.
func TestConcurrentTraceSnapshotDuringRun(t *testing.T) {
	forEachPolicy(t, func(t *testing.T, p Policy) {
		s := traceTestScheduler(p, 4, 64)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					tr := s.TraceSnapshot()
					for i := 1; i < len(tr.Events); i++ {
						if tr.Events[i].Ts < tr.Events[i-1].Ts {
							t.Error("snapshot not time-sorted")
							return
						}
					}
				}
			}()
		}
		for round := 0; round < 3; round++ {
			s.Run(func(w *Worker) { traceTree(w, 8) })
		}
		close(stop)
		wg.Wait()
		if tr := s.TraceSnapshot(); tr.Dropped == 0 {
			// 64-slot rings over three deep trees must have wrapped.
			t.Error("expected wrap-around drops with a 64-event ring, got none")
		}
	})
}

// TestStatsHistogramsPopulated checks Scheduler.Stats surfaces the four
// latency histograms on a traced scheduler and that Sub clears them.
func TestStatsHistogramsPopulated(t *testing.T) {
	s := traceTestScheduler(SignalLCWS, 4, 1<<14)
	for round := 0; round < 5; round++ {
		s.Run(func(w *Worker) { traceTree(w, 9) })
	}
	st := s.Stats()
	if st.StealSuccesses > 0 && st.StealToHit.Count == 0 {
		t.Error("steals happened but StealToHit histogram is empty")
	}
	if st.SignalsHandled > 0 && st.SignalToHandle.Count == 0 {
		t.Error("signals handled but SignalToHandle histogram is empty")
	}
	if st.IdleIterations > 0 && st.StealToHit.Count == 0 && st.ParkDuration.Count == 0 {
		t.Log("note: idle iterations without park samples (fast quiesce); not a failure")
	}
	// Sub against itself zeroes counts.
	zero := st.Sub(st)
	if zero.StealToHit.Count != 0 || zero.TasksExecuted != 0 {
		t.Errorf("st.Sub(st) not zero: %+v", zero)
	}
	// ResetStats clears both counters and histograms.
	s.ResetStats()
	st = s.Stats()
	if st.TasksExecuted != 0 || st.StealToHit.Count != 0 || st.SignalToHandle.Count != 0 {
		t.Errorf("after ResetStats: TasksExecuted=%d StealToHit.Count=%d", st.TasksExecuted, st.StealToHit.Count)
	}
}

// TestUntracedSchedulerTraceAPI pins the disabled-tracing behavior:
// TraceSnapshot returns an empty trace and Stats' histograms stay zero.
func TestUntracedSchedulerTraceAPI(t *testing.T) {
	s := NewScheduler(Options{Workers: 2, Policy: SignalLCWS})
	s.Run(func(w *Worker) { traceTree(w, 4) })
	if s.Tracing() {
		t.Error("Tracing() = true on an untraced scheduler")
	}
	tr := s.TraceSnapshot()
	if len(tr.Events) != 0 || tr.Dropped != 0 {
		t.Errorf("untraced snapshot: %d events, %d dropped; want empty", len(tr.Events), tr.Dropped)
	}
	st := s.Stats()
	if st.StealToHit.Count != 0 || st.ParkDuration.Count != 0 || st.TraceDrops != 0 {
		t.Error("untraced scheduler reported latency samples or trace drops")
	}
}

// TestTaskPanicCarriesTraceTail asserts the wrapped panic includes the
// panicking worker's recent events when tracing is on, and that the
// scheduler remains recover-compatible.
func TestTaskPanicCarriesTraceTail(t *testing.T) {
	s := traceTestScheduler(SignalLCWS, 2, 1<<10)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not re-throw the task panic")
		}
		tp, ok := r.(*TaskPanic)
		if !ok {
			t.Fatalf("recovered %T, want *TaskPanic", r)
		}
		if tp.Value != "kaboom" {
			t.Errorf("TaskPanic.Value = %v, want kaboom", tp.Value)
		}
		if len(tp.Tail) == 0 {
			t.Error("TaskPanic.Tail empty on a traced scheduler")
		}
		for _, e := range tp.Tail {
			if e.Worker != tp.WorkerID {
				t.Errorf("tail event worker %d != panic worker %d", e.Worker, tp.WorkerID)
			}
		}
		if tp.Error() == "" {
			t.Error("TaskPanic.Error() empty")
		}
	}()
	s.Run(func(w *Worker) {
		Fork2(w,
			func(w *Worker) { spinSum(w, 100) },
			func(w *Worker) { panic("kaboom") },
		)
	})
}

// TestPolicyStringParseRoundTrip pins that every policy's String form —
// in any case — parses back to the same policy (the satellite API
// contract for flag handling), plus the USLCWS figure-label alias.
func TestPolicyStringParseRoundTrip(t *testing.T) {
	for _, p := range Policies {
		for _, name := range []string{p.String(), strings.ToLower(p.String()), strings.ToUpper(p.String())} {
			got, err := ParsePolicy(name)
			if err != nil {
				t.Errorf("ParsePolicy(%q): %v", name, err)
				continue
			}
			if got != p {
				t.Errorf("ParsePolicy(%q) = %v, want %v", name, got, p)
			}
		}
	}
	for _, alias := range []string{"User", "user", "USER"} {
		if got, err := ParsePolicy(alias); err != nil || got != USLCWS {
			t.Errorf("ParsePolicy(%q) = %v, %v; want USLCWS", alias, got, err)
		}
	}
	if _, err := ParsePolicy("nonesuch"); err == nil {
		t.Error("ParsePolicy accepted an unknown name")
	}
}
