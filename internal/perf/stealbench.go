package perf

// Steal-side latency benchmark: the bursty ping-pong harness behind the
// BENCH_steal.json regression gate.
//
// The quantity under test is time-to-first-steal: how long a freshly
// published task waits before an idle worker picks it up. The default
// scheduler's idle workers descend a blind backoff ladder (spins, then
// yields, then capped sleeps of up to idleSleepMax), so a task published
// into a quiesced pool waits, on average, half a sleep quantum. The
// StealBatch mode replaces the ladder's sleeping tail with an
// event-driven parking lot: idle workers park on per-worker semaphores
// and work-producing operations wake exactly one of them, making
// post-publication latency a semaphore wake instead of a timer expiry.
//
// The harness alternates quiesce periods — long enough for the idle
// worker to reach the ladder's deepest rung (or to park) — with
// two-sided ping-pong bursts: the root worker forks a pair whose left
// branch spins until the right branch runs, forcing the right branch to
// be stolen; the time from just before the fork to the right branch's
// first instruction is one burst's latency. Mean-over-bursts is the
// repetition's estimate and the best (minimum) repetition is reported,
// mirroring the forkbench methodology (see package comment) — both
// modes are measured back-to-back in the same process, so the gate's
// batch-vs-baseline ratio cancels machine speed.
//
// Allocations are measured over the burst window (warm-up bursts
// excluded) via runtime.MemStats.Mallocs: the steal path — batched claim,
// remnant redistribution into the thief's deque, park/wake round trips —
// must not allocate in steady state.

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"

	"lcws"
	"lcws/internal/counters"
	"lcws/internal/deque"
)

// Steal-benchmark dimensions; like the forkbench constants they are part
// of the measurement definition.
const (
	// StealQuiesce is the idle period before each burst: comfortably
	// longer than the backoff ladder's full descent (8 spins + 256
	// yields + ~1.3ms of doubling sleeps), so the idle worker is in a
	// deepest-rung sleep (or parked) when the burst arrives.
	StealQuiesce = 3 * time.Millisecond
	// StealWarmupBursts run before the timed window of each repetition:
	// they warm freelists, the parking-lot timer, and code paths.
	StealWarmupBursts = 8
	// DefaultStealBursts is the number of timed bursts per repetition.
	DefaultStealBursts = 64
	// DefaultStealReps is the number of repetitions the minimum is taken
	// over.
	DefaultStealReps = 3
)

// StealLatencySpeedupGate is the minimum improvement in mean
// time-to-first-steal the batch+parking mode must show over the
// sleep-ladder baseline on the WS ping-pong (the acceptance gate of
// stealbench_test.go).
const StealLatencySpeedupGate = 2.0

// StealModeResult is one policy × idle-mode measurement.
type StealModeResult struct {
	// Policy is the scheduling policy's figure label.
	Policy string `json:"policy"`
	// Mode is "sleep-ladder" (default scheduler) or "batch-park"
	// (Options.StealBatch).
	Mode string `json:"mode"`
	// NsFirstSteal is the best repetition's mean nanoseconds from task
	// publication (just before the fork) to the stolen branch's first
	// instruction.
	NsFirstSteal float64 `json:"ns_first_steal"`
	// AllocsPerBurst is heap allocations per burst over the best
	// repetition's timed window (0 in steady state: the steal, park and
	// wake paths must not allocate).
	AllocsPerBurst float64 `json:"allocs_per_burst"`
	// Bursts and Reps record the methodology parameters.
	Bursts int `json:"bursts"`
	Reps   int `json:"reps"`
	// Scheduler counters accumulated over all repetitions
	// (informational): they prove which mechanism served the bursts.
	Steals          uint64 `json:"steals"`
	StealBatchTasks uint64 `json:"steal_batch_tasks"`
	WakeupsSent     uint64 `json:"wakeups_sent"`
	ParkCount       uint64 `json:"park_count"`
	SignalsSent     uint64 `json:"signals_sent"`
}

// Key returns the result-map key "<policy>/<mode>".
func (r StealModeResult) Key() string { return r.Policy + "/" + r.Mode }

// pingPong is the reusable burst state: one allocation per measurement,
// so the burst loop itself stays allocation-free. lat is written by the
// thief before its done.Store(true) release and read by the owner only
// after observing done, which orders the plain access.
type pingPong struct {
	t0   time.Time
	lat  int64
	done atomic.Bool
}

// quiesceSpin busy-waits for d, yielding each iteration so the idle
// worker being measured gets the CPU it needs to descend its ladder.
func quiesceSpin(d time.Duration) {
	start := time.Now()
	for time.Since(start) < d {
		runtime.Gosched()
	}
}

// MeasureStealLatency runs the bursty ping-pong on a two-worker
// scheduler with the given policy, with the parking lot (batch=true) or
// the default sleep ladder. Zero bursts/reps select the defaults.
func MeasureStealLatency(pol lcws.Policy, batch bool, bursts, reps int) StealModeResult {
	if bursts <= 0 {
		bursts = DefaultStealBursts
	}
	if reps <= 0 {
		reps = DefaultStealReps
	}
	mode := "sleep-ladder"
	opts := []lcws.Option{lcws.WithWorkers(2), lcws.WithPolicy(pol), lcws.WithSeed(1)}
	if batch {
		mode = "batch-park"
		opts = append(opts, lcws.WithStealBatch(true))
	}
	s := lcws.New(opts...)
	res := StealModeResult{Policy: pol.String(), Mode: mode, Bursts: bursts, Reps: reps}

	var pp pingPong
	// left spins until right has run, forcing right to be stolen; Poll
	// makes it a valid signal-delivery point so the exposure handler can
	// publish right under the signal-based policies, and the yield keeps
	// the thief runnable on oversubscribed hosts.
	left := func(ctx *lcws.Ctx) {
		for !pp.done.Load() {
			ctx.Poll()
			runtime.Gosched()
		}
	}
	right := func(*lcws.Ctx) {
		pp.lat = time.Since(pp.t0).Nanoseconds()
		pp.done.Store(true)
	}
	var sumNs float64
	var mallocs uint64
	root := func(ctx *lcws.Ctx) {
		var ms runtime.MemStats
		sumNs = 0
		for b := 0; b < StealWarmupBursts+bursts; b++ {
			if b == StealWarmupBursts {
				runtime.ReadMemStats(&ms)
				mallocs = ms.Mallocs
			}
			quiesceSpin(StealQuiesce)
			pp.done.Store(false)
			pp.t0 = time.Now()
			lcws.Fork2(ctx, left, right)
			if b >= StealWarmupBursts {
				sumNs += float64(pp.lat)
			}
		}
		runtime.ReadMemStats(&ms)
		mallocs = ms.Mallocs - mallocs
	}
	first := true
	for rep := 0; rep < reps; rep++ {
		s.Run(root)
		mean := sumNs / float64(bursts)
		if first || mean < res.NsFirstSteal {
			first = false
			res.NsFirstSteal = mean
			res.AllocsPerBurst = float64(mallocs) / float64(bursts)
		}
	}
	st := s.Stats()
	res.Steals = st.StealSuccesses
	res.StealBatchTasks = st.StealBatchTasks
	res.WakeupsSent = st.WakeupsSent
	res.ParkCount = st.ParkCount
	res.SignalsSent = st.SignalsSent
	return res
}

// ---- Relaxed (MultFree) steal-path operation cost ----
//
// The second steal-side quantity under test is the cost of the steal
// path itself: what a thief pays per claimed task when draining a
// fine-grained ParFor's range-task burst. The harness is a burst-drain
// ping-pong over one relaxed split deque: the owner publishes a burst,
// the thief drains it through one of the four steal operations, the
// owner reclaims (UnexposeAll, the MultFree owner discipline) and
// republishes; only the drain loop is timed. All paths run back-to-back
// in the same process over the same deque, so the gate ratio cancels
// machine speed, and a single-threaded drive keeps the measurement
// reproducible on one-CPU CI hosts where the latency gates above must
// skip.
//
// The four measured cells:
//
//	cas            PopTop             SignalLCWS's per-task exclusive claim
//	cas-batch      PopTopHalf         the WithStealBatch compose of the same
//	relaxed        TakeTopRelaxed     MultFree's single relaxed claim
//	relaxed-batch  TakeTopHalfRelaxed MultFree's WithStealBatch compose
//
// The gate compares each policy's fine-grained ParFor steal
// configuration: MultFree composed with the steal batch (relaxed-batch,
// the configuration the policy ships for throughput work — one plain
// cursor store claims up to stealBatchSize tasks with no CAS validation
// window) against SignalLCWS's standard exclusive claim (cas). The
// single-claim cells are reported alongside for transparency: in Go on
// x86 an atomic store compiles to XCHG — itself a full barrier costing
// nearly a CAS — so the single relaxed claim is time-parity with the
// exclusive one (the C++ counting model's fence/CAS elimination, which
// the counters here do show, does not translate to single-op wall time
// in Go). The family's wall-time win is the abort-free batch
// amortization the relaxed cursor makes safe; its contention win (no
// CAS retries) needs real parallelism and shows in the counting model
// instead.

// Relaxed steal-op benchmark dimensions.
const (
	// DefaultStealOpRounds is the number of publish/drain rounds per
	// repetition.
	DefaultStealOpRounds = 128
	// DefaultStealOpBurst is the number of tasks per published burst.
	DefaultStealOpBurst = 256
	// DefaultStealOpReps is the number of repetitions the minimum is
	// taken over.
	DefaultStealOpReps = 5
	// StealOpBatch is the batch-cell claim cap, matching the core
	// scheduler's stealBatchSize.
	StealOpBatch = 8
)

// RelaxedStealSpeedupGate is the minimum per-steal speedup MultFree's
// ParFor steal path (the batched relaxed claim) must show over
// SignalLCWS's (the exclusive claim) on the burst-drain harness — the
// acceptance gate of stealbench_test.go and of CI's bench-smoke job.
const RelaxedStealSpeedupGate = 1.15

// StealOpResult is one steal-path measurement of the burst-drain
// harness.
type StealOpResult struct {
	// Path is "cas", "cas-batch", "relaxed" or "relaxed-batch" (see the
	// cell table above).
	Path string `json:"path"`
	// NsPerSteal is the best repetition's mean nanoseconds per claimed
	// task over the drain loops.
	NsPerSteal float64 `json:"ns_per_steal"`
	// Steals is the number of tasks claimed per repetition.
	Steals uint64 `json:"steals"`
	// Ops is the number of steal operations the drain needed per
	// repetition (Steals/Ops is the realized batch amortization).
	Ops uint64 `json:"ops"`
	// CAS, Fences and RelaxedSteals are the thief's counters accumulated
	// over all repetitions: they prove which synchronization the drain
	// actually paid (the relaxed cells must show zero CAS and fences).
	CAS           uint64 `json:"cas"`
	Fences        uint64 `json:"fences"`
	RelaxedSteals uint64 `json:"relaxed_steals"`
	// Rounds, Burst and Reps record the methodology parameters.
	Rounds int `json:"rounds"`
	Burst  int `json:"burst"`
	Reps   int `json:"reps"`
}

// MeasureStealOpCost runs the burst-drain harness over one steal path:
// relaxed selects the MultFree claim, batch > 1 selects the batched
// (WithStealBatch) compose with that claim cap. Zero rounds/burst/reps
// select the defaults.
func MeasureStealOpCost(relaxed bool, batch, rounds, burst, reps int) StealOpResult {
	if rounds <= 0 {
		rounds = DefaultStealOpRounds
	}
	if burst <= 0 {
		burst = DefaultStealOpBurst
	}
	if reps <= 0 {
		reps = DefaultStealOpReps
	}
	path := "cas"
	if relaxed {
		path = "relaxed"
	}
	if batch > 1 {
		path += "-batch"
	}
	res := StealOpResult{Path: path, Rounds: rounds, Burst: burst, Reps: reps}

	// The element carries its own push stamp, mirroring core.Task: the
	// relaxed claim paths re-validate every slot read against it.
	type stealOpTask struct {
		stamp atomic.Uint64
	}
	d := deque.NewSplitRelaxed[stealOpTask](1024, 1<<20, true)
	payload := make([]stealOpTask, burst)
	var buf []*stealOpTask
	if batch > 1 {
		buf = make([]*stealOpTask, batch)
	}
	var ownerC, thiefC counters.Worker
	var cl deque.RelClaim
	idem := func(*stealOpTask) bool { return true }
	stampOf := func(t *stealOpTask) uint64 { return t.stamp.Load() }
	var sink *stealOpTask
	first := true
	for rep := 0; rep < reps; rep++ {
		var elapsed time.Duration
		var steals, ops uint64
		for r := 0; r < rounds; r++ {
			for i := range payload {
				payload[i].stamp.Store(d.PushStamp())
				d.PushBottom(&payload[i], &ownerC)
			}
			for d.PrivateSize() > 0 {
				d.Expose(deque.ExposeHalf, &ownerC)
			}
			start := time.Now()
			switch {
			case relaxed && batch > 1:
				for {
					n, sr := d.TakeTopHalfRelaxed(buf, &cl, idem, stampOf, &thiefC)
					if sr != deque.Stolen {
						break
					}
					sink = buf[n-1]
					steals += uint64(n)
					ops++
				}
			case relaxed:
				for {
					t, sr := d.TakeTopRelaxed(&cl, idem, stampOf, &thiefC)
					if sr != deque.Stolen {
						break
					}
					sink = t
					steals++
					ops++
				}
			case batch > 1:
				for {
					n, sr := d.PopTopHalf(buf, &thiefC)
					if sr != deque.Stolen {
						break
					}
					sink = buf[n-1]
					steals += uint64(n)
					ops++
				}
			default:
				for {
					t, sr := d.PopTop(&thiefC)
					if sr != deque.Stolen {
						break
					}
					sink = t
					steals++
					ops++
				}
			}
			elapsed += time.Since(start)
			d.UnexposeAll(&ownerC)
		}
		ns := float64(elapsed.Nanoseconds()) / float64(steals)
		if first || ns < res.NsPerSteal {
			first = false
			res.NsPerSteal = ns
			res.Steals = steals
			res.Ops = ops
		}
	}
	_ = sink
	res.CAS = thiefC.Get(counters.CAS)
	res.Fences = thiefC.Get(counters.Fence)
	res.RelaxedSteals = thiefC.Get(counters.RelaxedSteal)
	return res
}

// RelaxedRunResult is a scheduler-level MultFree run of a fine-grained
// ParFor, recording the relaxed-steal traffic and the duplicate
// executions the generation-stamp arbitration absorbed. The duplicate
// rate is bounded by the model-checked multiplicity bound: each relaxed
// steal window can hand at most one extra copy per thief to the
// arbitration, so duplicates never exceed thieves x relaxed steals.
type RelaxedRunResult struct {
	// Workers is the scheduler size; Thieves = Workers-1.
	Workers int `json:"workers"`
	// Elements and Rounds size the ParFor workload (grain 1).
	Elements int `json:"elements"`
	Rounds   int `json:"rounds"`
	// RelaxedSteals and TasksDuplicated are the run's scheduler stats.
	RelaxedSteals   uint64 `json:"relaxed_steals"`
	TasksDuplicated uint64 `json:"tasks_duplicated"`
	// DuplicateRate is TasksDuplicated per relaxed steal (0 when no
	// relaxed steal happened); the gate bound is Workers-1.
	DuplicateRate float64 `json:"duplicate_rate"`
	// SumOK reports that every ParFor element was executed exactly once
	// per round despite the duplicated claims (the claimed-sum check).
	SumOK bool `json:"sum_ok"`
	// Stall is the pool's state dump when the job did not finish within
	// RelaxedRunDeadline (empty otherwise); the other counts are then
	// left zero.
	Stall string `json:"stall,omitempty"`
}

// RelaxedRunDeadline bounds MeasureRelaxedDuplicateRate's wait for its
// job; the workload takes well under a second when it completes.
const RelaxedRunDeadline = 30 * time.Second

// MeasureRelaxedDuplicateRate runs rounds of a grain-1 ParFor over elems
// elements under MultFree and returns the run's relaxed-steal and
// duplicate accounting. Zero workers/elems/rounds select 2 workers,
// 1<<15 elements, 4 rounds.
func MeasureRelaxedDuplicateRate(workers, elems, rounds int) RelaxedRunResult {
	if workers <= 0 {
		workers = 2
	}
	if elems <= 0 {
		elems = 1 << 15
	}
	if rounds <= 0 {
		rounds = 4
	}
	s := lcws.New(lcws.WithWorkers(workers), lcws.WithPolicy(lcws.MultFree), lcws.WithSeed(1))
	var sum atomic.Int64
	jctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j := s.Submit(func(ctx *lcws.Ctx) {
		for r := 0; r < rounds; r++ {
			lcws.ParFor(ctx, 0, elems, 1, func(_ *lcws.Ctx, i int) {
				sum.Add(int64(i))
			})
		}
	}, lcws.WithJobCtx(jctx))
	timer := time.NewTimer(RelaxedRunDeadline)
	defer timer.Stop()
	select {
	case <-j.Done():
		if err := j.Wait(); err != nil {
			panic(err) // as Run would re-throw a task panic
		}
	case <-timer.C:
		// Dump before cancelling: the cancel unwinds the stuck frames.
		stall := s.DumpState()
		cancel()
		return RelaxedRunResult{Workers: workers, Elements: elems, Rounds: rounds, Stall: stall}
	}
	st := s.Stats()
	res := RelaxedRunResult{
		Workers:         workers,
		Elements:        elems,
		Rounds:          rounds,
		RelaxedSteals:   st.RelaxedSteals,
		TasksDuplicated: st.TasksDuplicated,
		SumOK:           sum.Load() == int64(rounds)*int64(elems)*int64(elems-1)/2,
	}
	if res.RelaxedSteals > 0 {
		res.DuplicateRate = float64(res.TasksDuplicated) / float64(res.RelaxedSteals)
	}
	return res
}

// StealReport is the machine-readable document written to
// BENCH_steal.json.
type StealReport struct {
	// Schema identifies the document layout.
	Schema string `json:"schema"`
	// GoVersion and GOMAXPROCS describe the measuring environment.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// QuiesceNs is the idle period before each burst.
	QuiesceNs int64 `json:"quiesce_ns"`
	// SpeedupFirstSteal is the WS sleep-ladder mean latency over the WS
	// batch-park mean latency — the ratio the regression gate compares
	// against StealLatencySpeedupGate.
	SpeedupFirstSteal float64 `json:"speedup_first_steal"`
	// SpeedupRelaxedSteal is the CAS path's per-steal cost over the
	// relaxed path's on the burst-drain harness — the ratio the
	// regression gate compares against RelaxedStealSpeedupGate.
	SpeedupRelaxedSteal float64 `json:"speedup_relaxed_steal"`
	// Results holds every policy × mode measurement.
	Results []StealModeResult `json:"results"`
	// StealOps holds the per-path steal-operation cost measurements.
	StealOps []StealOpResult `json:"steal_ops"`
	// RelaxedRun is the scheduler-level MultFree duplicate accounting.
	RelaxedRun RelaxedRunResult `json:"relaxed_run"`
}

// NewStealReport measures the ping-pong for the WS, SignalLCWS and
// MultFree policies in both idle modes, the steal-operation cost of the
// CAS and relaxed claim paths, and the scheduler-level MultFree
// duplicate accounting. WS isolates the parking-lot effect (no exposure
// step); SignalLCWS measures the full post-exposure path (notify,
// handler, expose, wake); MultFree adds the relaxed claim on top of the
// same signal protocol.
func NewStealReport(bursts, reps int) StealReport {
	rep := StealReport{
		Schema:     "lcws-stealbench/v1",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		QuiesceNs:  StealQuiesce.Nanoseconds(),
	}
	var wsLadder, wsPark float64
	for _, pol := range []lcws.Policy{lcws.WS, lcws.SignalLCWS, lcws.MultFree} {
		for _, batch := range []bool{false, true} {
			r := MeasureStealLatency(pol, batch, bursts, reps)
			if pol == lcws.WS {
				if batch {
					wsPark = r.NsFirstSteal
				} else {
					wsLadder = r.NsFirstSteal
				}
			}
			rep.Results = append(rep.Results, r)
		}
	}
	if wsPark > 0 {
		rep.SpeedupFirstSteal = wsLadder / wsPark
	}
	cas := MeasureStealOpCost(false, 0, 0, 0, 0)
	casBatch := MeasureStealOpCost(false, StealOpBatch, 0, 0, 0)
	rel := MeasureStealOpCost(true, 0, 0, 0, 0)
	relBatch := MeasureStealOpCost(true, StealOpBatch, 0, 0, 0)
	rep.StealOps = []StealOpResult{cas, casBatch, rel, relBatch}
	if relBatch.NsPerSteal > 0 {
		rep.SpeedupRelaxedSteal = cas.NsPerSteal / relBatch.NsPerSteal
	}
	rep.RelaxedRun = MeasureRelaxedDuplicateRate(0, 0, 0)
	return rep
}
