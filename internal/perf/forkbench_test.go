package perf

import (
	"testing"

	"lcws"
)

// spawnTreeResults memoizes one spawn-tree measurement per policy so the
// three gates below (allocations, speedup, counter ordering) don't
// re-pay the measurement three times.
var spawnTreeResults = map[string]Result{}

func spawnTree(t *testing.T, pol lcws.Policy) Result {
	t.Helper()
	if r, ok := spawnTreeResults[pol.String()]; ok {
		return r
	}
	r := MeasureSpawnTree(pol, 0, 0)
	if r.Forks == 0 {
		t.Fatalf("%s: spawn tree executed no forks", pol)
	}
	spawnTreeResults[pol.String()] = r
	return r
}

// TestSpawnTreeZeroAllocs is the allocation gate: the steady-state fork
// fast path (freelist task + closure-free range split) must not allocate.
// The budget is a small epsilon per fork rather than exactly zero so a
// one-off runtime-internal allocation inside the ~800k-fork window
// cannot flake the gate; a real regression (the pre-freelist code paid 2
// allocs per fork) exceeds it by orders of magnitude.
func TestSpawnTreeZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts are distorted by the race detector")
	}
	for _, pol := range lcws.Policies {
		r := spawnTree(t, pol)
		if r.AllocsPerFork > 0.01 {
			t.Errorf("%s: %.3f allocs/fork in steady state, want 0 (fork fast path is allocating again)",
				pol, r.AllocsPerFork)
		}
	}
}

// TestPForSumSplitAllocs gates the ParFor split path on a workload with a
// real body: splits must stay allocation-free (the loose budget absorbs
// the workload's own one-off allocations amortized over the window).
func TestPForSumSplitAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation counts are distorted by the race detector")
	}
	for _, pol := range lcws.Policies {
		r := MeasurePForSum(pol, 50, 1)
		if r.AllocsPerFork > 0.05 {
			t.Errorf("%s: %.3f allocs/split in pfor-sum, want 0", pol, r.AllocsPerFork)
		}
	}
}

// TestSpawnTreeSpeedupVsBaseline is the performance gate: the no-steal
// spawn tree's load-normalized cost per fork must stay at least
// SpawnTreeSpeedupFloor times better than the recorded pre-optimization
// baseline for every policy. Comparing normalized units (ns/fork over
// the calibration kernel's ns/op, each side measured under its own
// machine conditions) keeps the gate meaningful on hosts that are
// uniformly faster, slower, or temporarily loaded.
func TestSpawnTreeSpeedupVsBaseline(t *testing.T) {
	if RaceEnabled {
		t.Skip("timing is meaningless under the race detector")
	}
	if testing.Short() {
		t.Skip("timing gate needs full-length measurement")
	}
	base := BaselineNormPerFork()
	for _, pol := range lcws.Policies {
		r := spawnTree(t, pol)
		b, ok := base[r.Key()]
		if !ok {
			t.Fatalf("no recorded baseline for %s", r.Key())
		}
		floor := SpawnTreeSpeedupFloor(pol.String())
		speedup := b / r.NormPerFork
		t.Logf("%s: %.1f ns/fork (%.1f normalized) vs baseline %.1f normalized (%.2fx)",
			r.Key(), r.NsPerFork, r.NormPerFork, b, speedup)
		if speedup < floor {
			t.Errorf("%s: normalized %.1f is only %.2fx better than the recorded baseline %.1f, want >= %.2fx",
				r.Key(), r.NormPerFork, speedup, b, floor)
		}
	}
}

// TestFigure3OrderingPreserved checks that the optimization did not
// disturb the paper's headline counter result on this workload: WS pays
// its two fences per fork (push + pop, Lemma 1/2 commentary in
// internal/counters/model.go) while the LCWS variants' private-part
// operations are synchronization-free.
func TestFigure3OrderingPreserved(t *testing.T) {
	for _, pol := range lcws.Policies {
		r := spawnTree(t, pol)
		switch {
		case pol == lcws.WS:
			if r.FencesPerFork < 1.99 || r.FencesPerFork > 2.01 {
				t.Errorf("WS: %.3f fences/fork, want 2 (push+pop per the counting model)", r.FencesPerFork)
			}
		default:
			if r.FencesPerFork != 0 {
				t.Errorf("%s: %.3f fences/fork on the no-steal path, want 0", pol, r.FencesPerFork)
			}
			if r.CASPerFork != 0 {
				t.Errorf("%s: %.3f CAS/fork on the no-steal path, want 0", pol, r.CASPerFork)
			}
		}
	}
	ws := spawnTree(t, lcws.WS)
	for _, pol := range []lcws.Policy{lcws.USLCWS, lcws.SignalLCWS} {
		if r := spawnTree(t, pol); r.FencesPerFork >= ws.FencesPerFork {
			t.Errorf("Figure-3 ordering violated: %s pays %.3f fences/fork, WS %.3f",
				pol, r.FencesPerFork, ws.FencesPerFork)
		}
	}
}
