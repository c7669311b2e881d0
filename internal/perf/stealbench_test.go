package perf

import (
	"runtime"
	"testing"

	"lcws"
)

// stealResults memoizes one ping-pong measurement per mode so the gates
// below share the measurement instead of re-paying its ~1s of quiesce
// periods each.
var stealResults = map[string]StealModeResult{}

func stealPingPong(t *testing.T, batch bool) StealModeResult {
	t.Helper()
	key := "ladder"
	if batch {
		key = "park"
	}
	if r, ok := stealResults[key]; ok {
		return r
	}
	r := MeasureStealLatency(lcws.WS, batch, 0, 0)
	if r.Steals == 0 {
		t.Fatalf("%s: ping-pong completed without a single steal", r.Key())
	}
	stealResults[key] = r
	return r
}

// skipUnlessStealBenchable centralizes the preconditions of the
// steal-latency gates: latencies are meaningless under the race detector
// and on single-CPU hosts (the thief needs its own CPU to show wake
// latency rather than scheduling latency), and the measurement's quiesce
// periods are too slow for -short.
func skipUnlessStealBenchable(t *testing.T) {
	t.Helper()
	if RaceEnabled {
		t.Skip("timing is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("steal-latency measurement needs its full quiesce periods")
	}
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		t.Skip("steal-latency measurement needs two CPUs")
	}
}

// TestStealLatencyBatchParkSpeedup is the steal-side performance gate:
// after a quiesce period, the batch+parking mode's mean time-to-first-
// steal must be at least StealLatencySpeedupGate times better than the
// sleep-ladder baseline on the same bursty ping-pong. The baseline's
// latency is dominated by the blind capped sleep (on average half a
// quantum of idleSleepMax); the parking lot replaces it with a semaphore
// wake on the push, so the expected margin is an order of magnitude —
// the 2x gate only fails when event-driven wakeups stop working and
// parked thieves fall back to their insurance timers.
func TestStealLatencyBatchParkSpeedup(t *testing.T) {
	skipUnlessStealBenchable(t)
	ladder := stealPingPong(t, false)
	park := stealPingPong(t, true)
	if park.NsFirstSteal <= 0 {
		t.Fatalf("batch-park measured a non-positive latency %.1f", park.NsFirstSteal)
	}
	speedup := ladder.NsFirstSteal / park.NsFirstSteal
	t.Logf("time-to-first-steal: sleep-ladder %.1fus, batch-park %.1fus (%.1fx)",
		ladder.NsFirstSteal/1e3, park.NsFirstSteal/1e3, speedup)
	if speedup < StealLatencySpeedupGate {
		t.Errorf("batch-park first-steal latency %.1fus is only %.2fx better than the sleep ladder's %.1fus, want >= %.1fx",
			park.NsFirstSteal/1e3, speedup, ladder.NsFirstSteal/1e3, StealLatencySpeedupGate)
	}
}

// TestStealPathZeroAllocs is the steal-side allocation gate: a burst —
// fork, wake, batched steal, remnant handling, re-park — must not
// allocate in steady state in either mode. The 0.1 budget absorbs
// one-off runtime-internal allocations inside the window; a real
// regression (a closure or buffer allocated per steal or per wake)
// exceeds it immediately.
func TestStealPathZeroAllocs(t *testing.T) {
	skipUnlessStealBenchable(t)
	for _, batch := range []bool{false, true} {
		r := stealPingPong(t, batch)
		if r.AllocsPerBurst > 0.1 {
			t.Errorf("%s: %.3f allocs/burst in steady state, want 0", r.Key(), r.AllocsPerBurst)
		}
	}
}

// TestRelaxedStealOpSpeedup is the MultFree performance gate: on the
// fine-grained burst-drain harness, MultFree's ParFor steal path (the
// batched relaxed claim — one plain cursor store per up to
// StealOpBatch tasks, no CAS validation window) must be at least
// RelaxedStealSpeedupGate times cheaper per stolen task than
// SignalLCWS's exclusive claim. Unlike the latency gates above the
// harness is single-threaded by design — it measures the steal path's
// instruction cost, not wake latency — so it runs on one-CPU hosts too.
func TestRelaxedStealOpSpeedup(t *testing.T) {
	if RaceEnabled {
		t.Skip("timing is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("steal-op measurement needs its full rounds")
	}
	cas := MeasureStealOpCost(false, 0, 0, 0, 0)
	rel := MeasureStealOpCost(true, StealOpBatch, 0, 0, 0)
	if cas.Steals == 0 || rel.Steals == 0 || rel.NsPerSteal <= 0 {
		t.Fatalf("degenerate measurement: cas=%+v relaxed=%+v", cas, rel)
	}
	want := uint64(cas.Rounds * cas.Burst)
	if cas.Steals != want || rel.Steals != want {
		t.Fatalf("drain incomplete: cas stole %d, relaxed-batch stole %d, want %d per repetition",
			cas.Steals, rel.Steals, want)
	}
	speedup := cas.NsPerSteal / rel.NsPerSteal
	t.Logf("per-steal cost: cas %.1fns, relaxed-batch %.1fns over %d ops (%.2fx)",
		cas.NsPerSteal, rel.NsPerSteal, rel.Ops, speedup)
	if speedup < RelaxedStealSpeedupGate {
		t.Errorf("MultFree steal %.1fns/task is only %.2fx cheaper than Signal's %.1fns, want >= %.2fx",
			rel.NsPerSteal, speedup, cas.NsPerSteal, RelaxedStealSpeedupGate)
	}
}

// TestRelaxedStealOpFenceFree checks the harness measures what it
// claims: both relaxed drains must pay zero CAS and zero fences (every
// claim through the cursor store, counted per task as relaxed steals),
// and the CAS drains must pay one CAS per claim operation with no
// relaxed claims. Counter profiles need no timing validity, so this
// runs everywhere.
func TestRelaxedStealOpFenceFree(t *testing.T) {
	for _, batch := range []int{0, StealOpBatch} {
		rel := MeasureStealOpCost(true, batch, 8, 64, 1)
		if rel.CAS != 0 || rel.Fences != 0 {
			t.Errorf("%s: drain paid synchronization: cas=%d fences=%d, want 0/0", rel.Path, rel.CAS, rel.Fences)
		}
		if rel.RelaxedSteals != rel.Steals {
			t.Errorf("%s: claimed %d tasks but counted %d relaxed steals", rel.Path, rel.Steals, rel.RelaxedSteals)
		}
		cas := MeasureStealOpCost(false, batch, 8, 64, 1)
		if cas.CAS < cas.Ops {
			t.Errorf("%s: counted %d CAS for %d claim ops, want >= one per op", cas.Path, cas.CAS, cas.Ops)
		}
		if cas.RelaxedSteals != 0 {
			t.Errorf("%s: counted %d relaxed steals, want 0", cas.Path, cas.RelaxedSteals)
		}
	}
}

// TestRelaxedDuplicateRateBounded is the scheduler-level MultFree gate:
// a fine-grained ParFor's absorbed duplicates must stay within the
// model-checked multiplicity bound — at most thieves (= workers-1)
// duplicates per relaxed steal window — and the claimed-sum check must
// prove every element still executed exactly once per round.
func TestRelaxedDuplicateRateBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("duplicate-rate run needs its full workload")
	}
	r := MeasureRelaxedDuplicateRate(0, 0, 0)
	if r.Stall != "" {
		t.Fatalf("MultFree run still running after %v:\n%s", RelaxedRunDeadline, r.Stall)
	}
	t.Logf("MultFree run: %d relaxed steals, %d duplicates absorbed (rate %.4f, bound %d)",
		r.RelaxedSteals, r.TasksDuplicated, r.DuplicateRate, r.Workers-1)
	if !r.SumOK {
		t.Errorf("ParFor sum wrong under MultFree: duplicates were not absorbed before execution")
	}
	if bound := uint64(r.Workers-1) * r.RelaxedSteals; r.TasksDuplicated > bound {
		t.Errorf("%d duplicates exceed the multiplicity bound thieves x relaxed-steals = %d",
			r.TasksDuplicated, bound)
	}
}

// TestStealBenchExercisesParkingLot checks the measurement measures what
// it claims: in batch mode the bursts must be served through the parking
// lot (parks and wakeups observed), and in the baseline the parking-lot
// counters must stay zero.
func TestStealBenchExercisesParkingLot(t *testing.T) {
	skipUnlessStealBenchable(t)
	park := stealPingPong(t, true)
	if park.ParkCount == 0 {
		t.Errorf("batch-park: no parks recorded; the idle worker never reached the parking lot")
	}
	if park.WakeupsSent == 0 {
		t.Errorf("batch-park: no wakeups recorded; bursts were served by insurance timers, not events")
	}
	ladder := stealPingPong(t, false)
	if ladder.ParkCount != 0 || ladder.WakeupsSent != 0 {
		t.Errorf("sleep-ladder: parking-lot counters non-zero (parks=%d wakeups=%d) without StealBatch",
			ladder.ParkCount, ladder.WakeupsSent)
	}
}
