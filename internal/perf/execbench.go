package perf

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"lcws"
)

// Executor-lifecycle benchmark: what does one small Run cost on the
// resident pool, versus the same Run under the spawn-per-run lifecycle
// this repository had before the persistent executor?
//
// Both measurements execute the identical small fork-join job on the
// same resident scheduler, so the scheduling work cancels out; the
// spawn-per-run side additionally pays, per Run, what the one-shot
// scheduler paid around every computation: spawning P-1 worker
// goroutines that probe for work and back off with the idle sleep
// ladder until the computation finishes, then observing the finished
// flag (possibly mid-sleep) and joining. The emulated thieves run no
// deque code, so the added cost is a lower bound on the old design's
// true per-Run overhead — which makes the speedup gate in
// execbench_test.go conservative. Both sides are measured in the same
// process in alternating repetitions and compared on load-normalized
// cost, so machine speed cancels out of the ratio.

// Executor benchmark dimensions. Changing them invalidates comparisons
// across revisions.
const (
	// ExecDefaultRounds is the number of timed Run calls per repetition.
	ExecDefaultRounds = 400
	// ExecWorkers is the pool size the lifecycle is measured at.
	ExecWorkers = 4
	// ExecJobN and ExecJobGrain define the per-Run job: a ParFor wide
	// enough (ExecJobN/ExecJobGrain = 256 forks) that the job lasts a
	// few microseconds and the old lifecycle's thieves reach the sleep
	// ladder, as they did on real workloads.
	ExecJobN     = 8192
	ExecJobGrain = 32
)

// ExecResult is one executor-lifecycle measurement.
type ExecResult struct {
	// Bench is "exec-resident" or "exec-spawn".
	Bench string `json:"bench"`
	// Policy is the scheduling policy's figure label.
	Policy string `json:"policy"`
	// Workers is the pool size P.
	Workers int `json:"workers"`
	// NsPerRun is the best repetition's mean wall time per Run call.
	NsPerRun float64 `json:"ns_per_run"`
	// RefNsPerOp and NormPerRun mirror the fork benchmarks: the
	// calibration kernel's per-element cost bracketing the best
	// repetition, and NsPerRun divided by it (machine-relative units).
	RefNsPerOp float64 `json:"ref_ns_per_op"`
	NormPerRun float64 `json:"norm_per_run"`
	// AllocsPerRun is heap allocations per Run over the best
	// repetition's window. On the resident pool this is the job handle,
	// its done channel and its accounting shards — no goroutines, no
	// per-worker state.
	AllocsPerRun float64 `json:"allocs_per_run"`
	// Rounds and Reps record the methodology parameters.
	Rounds int `json:"rounds"`
	Reps   int `json:"reps"`
}

// execSide is one lifecycle under measurement: its result label and one
// Run of the benchmark job under it.
type execSide struct {
	bench string
	run   func()
}

// measureExec times rounds calls of each side's run, reps times, and
// returns each side's best (load-normalized) repetition. The sides take
// turns rep by rep, so their timed windows stay adjacent: a load episode
// longer than one window then tends to hit both sides instead of only
// the one measured while it lasted.
func measureExec(policy string, workers, rounds, reps int, sides ...execSide) []ExecResult {
	if rounds <= 0 {
		rounds = ExecDefaultRounds
	}
	if reps <= 0 {
		reps = DefaultReps
	}
	out := make([]ExecResult, len(sides))
	for i, sd := range sides {
		out[i] = ExecResult{
			Bench:   sd.bench,
			Policy:  policy,
			Workers: workers,
			Rounds:  rounds,
			Reps:    reps,
		}
	}
	var ms runtime.MemStats
	for rep := 0; rep < reps; rep++ {
		for i, sd := range sides {
			sd.run() // warm-up
			refBefore := quickReference()
			runtime.ReadMemStats(&ms)
			mallocs := ms.Mallocs
			start := time.Now()
			for r := 0; r < rounds; r++ {
				sd.run()
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms)
			mallocs = ms.Mallocs - mallocs
			refAfter := quickReference()
			ref := refBefore
			if refAfter < ref {
				ref = refAfter
			}
			ns := float64(elapsed.Nanoseconds()) / float64(rounds)
			norm := ns / ref
			if res := &out[i]; rep == 0 || norm < res.NormPerRun {
				res.NsPerRun = ns
				res.RefNsPerOp = ref
				res.NormPerRun = norm
				res.AllocsPerRun = float64(mallocs) / float64(rounds)
			}
		}
	}
	return out
}

// execRoot returns the benchmark job: a ParFor of ExecJobN/ExecJobGrain
// forks with an empty body.
func execRoot() func(*lcws.Ctx) {
	return func(ctx *lcws.Ctx) { lcws.ParFor(ctx, 0, ExecJobN, ExecJobGrain, noopBody) }
}

// MeasureExec measures the per-Run cost of the benchmark job under both
// lifecycles, each on its own pool of the given size, in alternating
// repetitions.
//
// Resident: a long-lived pool whose workers are spawned once and park
// between Runs; each Run is submit + wait.
//
// Spawn-per-run: the same job under the pre-executor lifecycle. Every
// Run additionally spawns P-1 thief goroutines that probe for work and
// climb the idle sleep ladder for the duration of the computation,
// observe the finished flag, and are joined — the goroutine churn the
// one-shot scheduler paid per Run.
func MeasureExec(pol lcws.Policy, workers, rounds, reps int) (resident, spawnPerRun ExecResult) {
	if workers <= 0 {
		workers = ExecWorkers
	}
	root := execRoot()
	rs := lcws.New(lcws.WithWorkers(workers), lcws.WithPolicy(pol))
	defer rs.Close()
	rs.Start()
	ss := lcws.New(lcws.WithWorkers(workers), lcws.WithPolicy(pol))
	defer ss.Close()
	ss.Start()
	spawn := func() {
		var finished atomic.Bool
		var wg sync.WaitGroup
		for i := 1; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sleep := time.Microsecond
				for {
					for v := 0; v < workers; v++ { // one probe round
						if finished.Load() {
							return
						}
					}
					time.Sleep(sleep)
					if sleep < 32*time.Microsecond {
						sleep *= 2
					}
				}
			}()
		}
		ss.Run(root)
		finished.Store(true)
		wg.Wait()
	}
	out := measureExec(pol.String(), workers, rounds, reps,
		execSide{"exec-resident", func() { rs.Run(root) }},
		execSide{"exec-spawn", spawn})
	return out[0], out[1]
}

// ExecReport is the machine-readable document written to
// BENCH_exec.json by cmd/lcwsbench -execbench.
type ExecReport struct {
	// Schema identifies the document layout.
	Schema string `json:"schema"`
	// GoVersion and GOMAXPROCS describe the measuring environment.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Resident and SpawnPerRun hold one measurement per policy each;
	// entries at the same index compare directly (same policy, same
	// job, same pool size).
	Resident    []ExecResult `json:"resident"`
	SpawnPerRun []ExecResult `json:"spawn_per_run"`
}

// NewExecReport measures the executor lifecycle for every policy.
func NewExecReport(rounds, reps int) ExecReport {
	rep := ExecReport{
		Schema:     "lcws-execbench/v1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, pol := range lcws.Policies {
		res, sp := MeasureExec(pol, ExecWorkers, rounds, reps)
		rep.Resident = append(rep.Resident, res)
		rep.SpawnPerRun = append(rep.SpawnPerRun, sp)
	}
	return rep
}
