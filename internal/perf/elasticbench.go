package perf

import (
	"runtime"
	"time"

	"lcws"
)

// Elastic pool benchmark: does the epoch-guarded worker-set actually
// deliver elasticity's promises end to end? One measurement walks a
// pool through the full lifecycle and gates each leg:
//
//  1. Demand growth. The pool starts at its resident target of
//     ElasticResident worker; a burst of ElasticBurstJobs independent
//     jobs is submitted while it is busy. The submit-side probe must
//     grow the pool (pool_grows > 0, peak live count above the
//     target) with no SetWorkers call.
//
//  2. Retire-on-idle. After the burst drains, the pool sits idle; the
//     demand-grown surplus must retire back to the resident target,
//     one deep-park insurance window at a time (workers_retired
//     grows). The settle time is reported.
//
//  3. Idle cost. With the pool settled, a quiet window is measured:
//     the process's CPU time (getrusage) over the window must stay
//     under ElasticIdleCPUFrac of one core — i.e. an idle elastic
//     pool sleeps in its deep park rather than spinning, waking only
//     for the ~100ms insurance check. deepPark deliberately records
//     no counters (between-jobs idleness belongs to no job's
//     profile), so the harness asks the OS, not the scheduler.
//
//  4. Regrow. SetWorkers back to ElasticMax must restore full-size
//     throughput: the same fixed workload, re-timed over recycled
//     slots (deques torn down to initial capacity, rings re-armed,
//     freelists donated away), must stay within ElasticRegrowFactor
//     of its pre-shrink baseline.

// Elastic benchmark dimensions. Changing them invalidates comparisons
// across revisions.
const (
	// ElasticResident is the pool's resident target; ElasticMax its
	// growth ceiling (Options.MaxWorkers).
	ElasticResident = 1
	ElasticMax      = 4
	// ElasticBurstJobs and ElasticBurstIters shape the demand burst:
	// enough backlog behind a busy single worker that the submit probe
	// must fire, each job long enough (~1ms) that the backlog does not
	// drain before it does.
	ElasticBurstJobs  = 32
	ElasticBurstIters = 200_000
	// ElasticWorkloadTasks/Iters/Reps shape the fixed throughput
	// workload (one Run, ElasticWorkloadTasks independent spin tasks);
	// the minimum of Reps timings is reported.
	ElasticWorkloadTasks = 64
	ElasticWorkloadIters = 100_000
	ElasticWorkloadReps  = 3
	// ElasticIdleCPUFrac is the idle-cost gate: process CPU time over
	// the quiet window must stay under this fraction of one core. An
	// idle worker wakes only for the ~100ms insurance check
	// (microseconds awake per wake), so a healthy pool measures well
	// under 1%; a pool that spins instead of parking measures ~100%
	// per live worker. The headroom absorbs GC and runtime background
	// work on noisy CI hosts.
	ElasticIdleCPUFrac = 0.10
	// ElasticRegrowFactor bounds the regrown pool's workload time
	// relative to the pre-shrink baseline on the same pool.
	ElasticRegrowFactor = 2.5
)

// elasticPolicies are the policies the elastic benchmark measures: one
// per deque implementation, as in the QoS and memory benchmarks.
var elasticPolicies = []lcws.Policy{lcws.WS, lcws.SignalLCWS}

// ElasticResult is one policy's walk through the elastic lifecycle.
type ElasticResult struct {
	Bench      string `json:"bench"`
	Policy     string `json:"policy"`
	Resident   int    `json:"resident"`
	MaxWorkers int    `json:"max_workers"`

	// BaselineNs is the fixed workload's wall time at full size,
	// before any shrink; RegrowNs the same workload after the
	// shrink/idle/regrow cycle; RegrowRatio their quotient.
	BaselineNs  int64   `json:"baseline_ns"`
	RegrowNs    int64   `json:"regrow_ns"`
	RegrowRatio float64 `json:"regrow_ratio"`

	// BurstJobs is the demand burst's size; PeakWorkers the largest
	// live count observed while it drained; BurstPoolGrows the
	// pool_grows delta the burst provoked.
	BurstJobs      int    `json:"burst_jobs"`
	PeakWorkers    int    `json:"peak_workers"`
	BurstPoolGrows uint64 `json:"burst_pool_grows"`

	// RetireSettleNs is how long after the burst drained the pool took
	// to retire back to the resident target (capped at the idle
	// window); Settled records whether it got there.
	RetireSettleNs     int64  `json:"retire_settle_ns"`
	Settled            bool   `json:"settled"`
	WorkersRetiredIdle uint64 `json:"workers_retired_idle"`

	// IdleWindowNs is the quiet window; IdleCPUNs the process CPU
	// time (user+system, getrusage) burned during it (-1 when the
	// platform cannot report it); IdleCPUFrac that time as a fraction
	// of one core over the window.
	IdleWindowNs int64   `json:"idle_window_ns"`
	IdleCPUNs    int64   `json:"idle_cpu_ns"`
	IdleCPUFrac  float64 `json:"idle_cpu_frac"`

	// Cumulative elastic counters at the end of the measurement.
	PoolGrows      uint64 `json:"pool_grows"`
	WorkersRetired uint64 `json:"workers_retired"`
	Resizes        uint64 `json:"resizes"`
	EpochReclaims  uint64 `json:"epoch_reclaims"`
}

// elasticWorkload times the fixed throughput workload on s, returning
// the minimum wall time over ElasticWorkloadReps runs.
func elasticWorkload(s *lcws.Scheduler) int64 {
	best := int64(0)
	for rep := 0; rep < ElasticWorkloadReps; rep++ {
		t0 := time.Now()
		s.Run(func(ctx *lcws.Ctx) {
			lcws.ParFor(ctx, 0, ElasticWorkloadTasks, 1, func(ctx *lcws.Ctx, i int) {
				qosSpin(ctx, ElasticWorkloadIters)
			})
		})
		if d := time.Since(t0).Nanoseconds(); best == 0 || d < best {
			best = d
		}
	}
	return best
}

// MeasureElastic walks pol's pool through the elastic lifecycle.
// idleWindow bounds both the retire-settle wait and the quiet-window
// measurement; non-positive means the 2s default.
func MeasureElastic(pol lcws.Policy, idleWindow time.Duration) ElasticResult {
	if idleWindow <= 0 {
		idleWindow = 2 * time.Second
	}
	s := lcws.New(
		lcws.WithWorkers(ElasticResident),
		lcws.WithMaxWorkers(ElasticMax),
		lcws.WithPolicy(pol),
	)
	defer s.Close()
	s.Start()

	res := ElasticResult{
		Bench:        "elastic",
		Policy:       pol.String(),
		Resident:     ElasticResident,
		MaxWorkers:   ElasticMax,
		BurstJobs:    ElasticBurstJobs,
		IdleWindowNs: idleWindow.Nanoseconds(),
	}

	// Phase 1: full-size throughput baseline.
	must(s.SetWorkers(ElasticMax))
	res.BaselineNs = elasticWorkload(s)

	// Phase 2: back to the resident target, then a demand burst. The
	// sampler watches the live count while the backlog drains. The
	// pre-burst snapshot waits out the shrink's retirements, so every
	// retirement counted from it follows the burst's demand growth.
	wantRetired := s.Stats().WorkersRetired + ElasticMax - ElasticResident
	must(s.SetWorkers(ElasticResident))
	stBefore := s.Stats()
	for end := time.Now().Add(idleWindow); stBefore.WorkersRetired < wantRetired && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
		stBefore = s.Stats()
	}
	stopSample := make(chan struct{})
	peakCh := make(chan int, 1)
	go func() {
		peak := s.Workers()
		tick := time.NewTicker(200 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSample:
				peakCh <- peak
				return
			case <-tick.C:
				if n := s.Workers(); n > peak {
					peak = n
				}
			}
		}
	}()
	jobs := make([]*lcws.Job, 0, ElasticBurstJobs)
	for i := 0; i < ElasticBurstJobs; i++ {
		jobs = append(jobs, s.Submit(func(ctx *lcws.Ctx) { qosSpin(ctx, ElasticBurstIters) }))
	}
	for _, j := range jobs {
		j.Wait()
	}
	close(stopSample)
	res.PeakWorkers = <-peakCh
	res.BurstPoolGrows = s.Stats().PoolGrows - stBefore.PoolGrows

	// Phase 3: retire-on-idle — wait (bounded by the idle window) for
	// the demand-grown surplus to retire back to the target.
	settleStart := time.Now()
	deadline := settleStart.Add(idleWindow)
	for time.Now().Before(deadline) {
		if s.Workers() == ElasticResident {
			res.Settled = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	res.RetireSettleNs = time.Since(settleStart).Nanoseconds()

	// Phase 4: quiet window — the settled pool must sleep, not spin.
	cpu0 := processCPUNs()
	time.Sleep(idleWindow)
	cpu1 := processCPUNs()
	res.WorkersRetiredIdle = s.Stats().WorkersRetired - stBefore.WorkersRetired
	if cpu0 >= 0 && cpu1 >= cpu0 {
		res.IdleCPUNs = cpu1 - cpu0
		res.IdleCPUFrac = float64(res.IdleCPUNs) / float64(idleWindow.Nanoseconds())
	} else {
		res.IdleCPUNs = -1
	}

	// Phase 5: regrow to full size and re-time the workload over the
	// recycled slots.
	must(s.SetWorkers(ElasticMax))
	res.RegrowNs = elasticWorkload(s)
	if res.BaselineNs > 0 {
		res.RegrowRatio = float64(res.RegrowNs) / float64(res.BaselineNs)
	}

	st := s.Stats()
	res.PoolGrows = st.PoolGrows
	res.WorkersRetired = st.WorkersRetired
	res.Resizes = st.Resizes
	res.EpochReclaims = st.EpochReclaims
	return res
}

// must panics on a SetWorkers error: the benchmark only passes in-range
// sizes to an open pool, so an error is a harness bug.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// ElasticGrew reports whether the demand burst grew the pool.
func ElasticGrew(res ElasticResult) bool {
	return res.BurstPoolGrows > 0 && res.PeakWorkers > res.Resident
}

// ElasticRetired reports whether idle retirement fired after the burst.
func ElasticRetired(res ElasticResult) bool { return res.WorkersRetiredIdle > 0 }

// ElasticIdleQuiet reports whether the settled pool slept through the
// quiet window. It passes trivially where rusage is unavailable.
func ElasticIdleQuiet(res ElasticResult) bool {
	return res.IdleCPUNs < 0 || res.IdleCPUFrac <= ElasticIdleCPUFrac
}

// ElasticRegrowRestored reports whether regrowth restored full-size
// throughput.
func ElasticRegrowRestored(res ElasticResult) bool {
	return res.RegrowRatio > 0 && res.RegrowRatio <= ElasticRegrowFactor
}

// ElasticReport is the machine-readable document written to
// BENCH_elastic.json by cmd/lcwsbench -elasticbench.
type ElasticReport struct {
	// Schema identifies the document layout.
	Schema string `json:"schema"`
	// GoVersion and GOMAXPROCS describe the measuring environment.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Results holds one lifecycle walk per measured policy.
	Results []ElasticResult `json:"results"`
}

// NewElasticReport measures the elastic lifecycle for each policy in
// elasticPolicies. Defaults apply when window is non-positive.
func NewElasticReport(window time.Duration) ElasticReport {
	rep := ElasticReport{
		Schema:     "lcws-elasticbench/v1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, pol := range elasticPolicies {
		rep.Results = append(rep.Results, MeasureElastic(pol, window))
	}
	return rep
}
