package perf

import (
	"testing"

	"lcws"
)

// Gate thresholds. The resident/spawn ratio measures both sides in the
// same process on the same pool, so it is robust to machine speed; the
// margins absorb scheduling noise on shared containers.
const (
	// execMinSpeedup is the required load-normalized advantage of the
	// resident lifecycle over spawn-per-run (measured ~1.2x).
	execMinSpeedup = 1.08
	// execMaxAllocsPerRun bounds the per-Run allocation cost of the
	// submit path (job handle + done channel + accounting shards;
	// measured 3).
	execMaxAllocsPerRun = 32.0
)

// execGatePolicies keeps the gate's runtime modest; the full per-policy
// sweep is cmd/lcwsbench -execbench territory.
var execGatePolicies = []lcws.Policy{lcws.WS, lcws.SignalLCWS}

func TestResidentExecutorBeatsSpawnPerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	for _, pol := range execGatePolicies {
		res, sp := MeasureExec(pol, ExecWorkers, 0, 0)
		if res.NormPerRun <= 0 || sp.NormPerRun <= 0 {
			t.Fatalf("%s: degenerate measurement: resident %.1f, spawn %.1f",
				pol, res.NormPerRun, sp.NormPerRun)
		}
		speedup := sp.NormPerRun / res.NormPerRun
		t.Logf("%s: resident %.0f ns/run (%.1f normalized) vs spawn-per-run %.0f ns/run (%.1f normalized): %.2fx",
			pol, res.NsPerRun, res.NormPerRun, sp.NsPerRun, sp.NormPerRun, speedup)
		if speedup < execMinSpeedup {
			t.Errorf("%s: resident pool is only %.2fx faster than spawn-per-run, want >= %.2fx",
				pol, speedup, execMinSpeedup)
		}
		if res.AllocsPerRun > execMaxAllocsPerRun {
			t.Errorf("%s: resident Run allocates %.1f objects/Run, want <= %.0f",
				pol, res.AllocsPerRun, execMaxAllocsPerRun)
		}
	}
}
