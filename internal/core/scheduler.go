package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lcws/internal/counters"
	"lcws/internal/deque"
	"lcws/internal/injector"
	"lcws/internal/trace"
)

// Options configures a Scheduler.
type Options struct {
	// Workers is the number of processors (worker goroutines), P in the
	// paper — the pool's initial live size and its resident target.
	// Defaults to 1 when non-positive. The pool is elastic: SetWorkers
	// changes the live size at runtime, and demand can grow it toward
	// MaxWorkers (see below).
	Workers int
	// MaxWorkers caps elastic growth: the worker slab, per-job
	// accounting shards, and parking bitset are sized to it once at
	// construction, and SetWorkers/demand growth may raise the live
	// pool up to it. Defaults to Workers when non-positive (a pool that
	// never grows by itself, matching the fixed-P behavior of earlier
	// versions).
	MaxWorkers int
	// Policy selects the scheduler algorithm. The zero value is the WS
	// baseline.
	Policy Policy
	// DequeCapacity sets the per-worker deque's INITIAL capacity
	// (deque.DefaultCapacity when non-positive). Deques grow by doubling
	// when a spawn tree outgrows it, up to MaxDequeCapacity.
	DequeCapacity int
	// MaxDequeCapacity caps per-worker deque growth
	// (deque.DefaultMaxCapacity when non-positive; never below the
	// initial capacity). Past the cap the owner spills its oldest tasks
	// to an unbounded overflow list instead of growing further, so
	// arbitrarily wide spawn trees run in bounded deque memory.
	MaxDequeCapacity int
	// FreelistBound caps each worker's task freelist
	// (defaultFreelistBound when non-positive). Tasks freed past the
	// bound are recycled through the scheduler's global shard pool or
	// released to the GC, keeping steady-state memory flat across jobs
	// of wildly different widths.
	FreelistBound int
	// Seed seeds the workers' victim-selection PRNGs; runs with equal
	// options and deterministic workloads make identical scheduling
	// decisions up to goroutine interleaving.
	Seed uint64
	// YieldEvery makes each worker call runtime.Gosched after executing
	// that many tasks (0 = never). On hosts with fewer CPUs than
	// workers, cooperative yielding gives thieves regular chances to
	// run, producing steal/exposure dynamics representative of a real
	// P-core machine; the profiling harness uses it for the paper's
	// counter figures.
	YieldEvery int
	// PollEvery sets how many Poll calls elapse between checks of the
	// emulated pending-signal word (default 64). It is the knob that
	// plays the role of OS signal-delivery latency (paper footnote 2):
	// larger values make exposure requests take longer to reach busy
	// workers.
	PollEvery int
	// StealBatch opts into the batched steal-side mode: thieves claim up
	// to half of a victim's public part with a single CAS (PopTopHalf),
	// remember their last successful victim (sticky victim selection),
	// and idle workers park on per-worker semaphores woken by
	// work-producing events instead of sleeping blind. The default
	// (false) is the paper-faithful single-steal mode whose fence/CAS
	// accounting matches internal/counters/model.go exactly; batch mode
	// extends the model as documented there (the WS baseline switches to
	// the tag-bumping batched deque, whose owner pop CASes on every pop).
	StealBatch bool
	// Trace enables the flight recorder: each worker gets a fixed-
	// capacity owner-write event ring (see internal/trace) plus online
	// latency histograms, readable at any time via TraceSnapshot/Stats.
	// nil (the default) disables tracing entirely — workers hold no
	// recorder and every hook is a single nil check, preserving the
	// fork fast path's zero-allocation and ns/fork properties.
	Trace *trace.Config
	// ClassWeights sets the weighted-fair split of injector pickups
	// between job classes (indexed by JobClass) when several classes
	// have queued jobs: a backlogged class receives pickups in
	// proportion to its weight, so urgency is a share, not a strict
	// priority, and no class can starve another. Non-positive entries
	// take the defaults (High 16, Normal 4, Low 1).
	ClassWeights [NumJobClasses]int
	// ClassCapacity bounds how many submitted-but-unstarted jobs each
	// class may queue (0 = unbounded, the default). At capacity, Submit
	// either blocks until a slot frees or fails fast with ErrQueueFull,
	// per the submission's AdmitMode.
	ClassCapacity [NumJobClasses]int
}

// defaultClassWeights is the pickup split used for zero ClassWeights
// entries: strongly prefer urgent classes while still guaranteeing the
// least urgent a 1/21 share under full backlog.
var defaultClassWeights = [NumJobClasses]int{16, 4, 1}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.MaxWorkers < o.Workers {
		o.MaxWorkers = o.Workers
	}
	if o.PollEvery <= 0 {
		o.PollEvery = defaultPollEvery
	}
	if o.FreelistBound <= 0 {
		o.FreelistBound = defaultFreelistBound
	}
	for c := range o.ClassWeights {
		if o.ClassWeights[c] <= 0 {
			o.ClassWeights[c] = defaultClassWeights[c]
		}
		if o.ClassCapacity[c] < 0 {
			o.ClassCapacity[c] = 0
		}
	}
	return o
}

// Scheduler is a persistent, elastic pool of resident workers executing
// fork-join jobs under one of the paper's scheduling policies. The
// initial worker goroutines are spawned together — lazily on the first
// submission, or eagerly via Start — and workers live until Close,
// SetWorkers shrinks them away, or idle retirement stands them down:
// between jobs they park on the idle parking lot (costing no CPU), and
// repeated Run/Submit calls pay no goroutine spawn or teardown. This
// matches the paper's model of persistent processors that exist across
// computations, generalized to a live worker count that moves between 1
// and Options.MaxWorkers (SetWorkers, demand growth, idle retirement)
// while the paper's fork/steal fast paths stay byte-identical inside a
// stable worker-set epoch.
//
// Jobs enter through an MPMC injector queue (Submit/Run) and any
// number may run concurrently over the same pool; each Job carries its
// own completion, error, and task accounting, and a panic or
// cancellation in one job drains that job's tasks without affecting
// the others (see Job).
//
// Workers live in one contiguous, cache-line-padded slab (see workerSlot)
// rather than as individually heap-allocated objects: victim selection
// then walks a single allocation, and the padding guarantees no two
// workers — and no thief-written notification word and owner-hot field —
// share a cache line.
//
// The pool is elastic: the slab is sized Options.MaxWorkers once at
// construction, and the *live* prefix of it is published as an
// epoch-numbered workerSet snapshot through the set pointer. SetWorkers
// (and demand growth / idle retirement) install new snapshots; workers
// pin the snapshot they work against, and retired slots' resources are
// reclaimed once no pin can reference them. See workerset.go.
//
//lcws:manifest
type Scheduler struct {
	opts Options //lcws:field immutable
	// workers is the full MaxWorkers slab. The slab itself never grows,
	// shrinks, or moves — which worker ids are live is governed by the
	// set snapshot, and slots beyond the live prefix are either not yet
	// initialized (zeroed) or retired awaiting reuse.
	workers []workerSlot   //lcws:field immutable — liveness governed by set; see workerSet
	ctrs    *counters.Set  //lcws:field immutable
	wg      sync.WaitGroup //lcws:field atomic — resident-worker barrier for Close

	// set is the current worker-set epoch: the live prefix of the slab,
	// published with a release store by the resizer and pinned by
	// workers on busy-phase entry (see workerset.go for the protocol).
	set atomic.Pointer[workerSet] //lcws:field atomic

	// resizeMu serializes resizes, reclamation, and worker-goroutine
	// spawning. Never taken on any per-task path: submit and the idle
	// phase only TryLock it, and workers only block on it when retiring.
	resizeMu sync.Mutex //lcws:field atomic — internally synchronized
	// target is the resident size the pool settles to when idle:
	// Options.Workers, updated by SetWorkers. Demand growth above it is
	// undone by idle retirement back down to it.
	target int //lcws:field guarded(resizeMu)
	// started records whether the resident goroutines were spawned;
	// resizes before the first submission only reshape the set.
	started bool //lcws:field guarded(resizeMu)
	// graveyard lists retired slots whose resources await epoch-safe
	// reclamation (see tryReclaimLocked).
	graveyard []retiree //lcws:field guarded(resizeMu)

	// Elastic-pool accounting (Stats: PoolGrows, WorkersRetired,
	// Resizes, EpochReclaims).
	poolGrows      atomic.Uint64 //lcws:field atomic
	workersRetired atomic.Uint64 //lcws:field atomic
	resizes        atomic.Uint64 //lcws:field atomic
	epochReclaims  atomic.Uint64 //lcws:field atomic

	// inj is the class-aware MPMC submission queue: Submit pushes *Job
	// records from arbitrary goroutines; resident workers pop them —
	// in the weighted-fair stride order — in their top-level loop and
	// at the checkpoint-yield preemption point. Owner deque paths are
	// untouched by submission. Its aggregate size word keeps the
	// parking lot's Dekker emptiness probe a single atomic load, as
	// with the plain FIFO it replaced.
	inj       *injector.QoS[*Job] //lcws:field immutable — internally mutex+atomic synchronized
	startOnce sync.Once           //lcws:field atomic — spawns the resident workers exactly once
	closed    atomic.Bool         //lcws:field atomic — set by Close; workers exit once drained

	// closedCh is closed (exactly once, by the Close call that wins the
	// closed.Swap) to release submitters blocked on admission with
	// ErrSchedulerClosed.
	closedCh chan struct{} //lcws:field immutable — channel close is internally synchronized

	// activeJobs counts submitted-but-unsettled jobs. Workers use it to
	// decide between the in-job stealing loop (activeJobs > 0) and the
	// between-jobs idle phase; together with closed and inj.Empty it
	// forms the worker-exit condition. Submit increments it *before*
	// checking closed, so a submission that observed the scheduler open
	// keeps every worker alive until the job settles (the seq-cst total
	// order over this counter and closed makes the exit check safe).
	activeJobs atomic.Int64 //lcws:field atomic

	// busy counts workers currently inside their busy phase (where they
	// write per-worker counters without synchronization). Counter and
	// trace readers spin until it reaches zero once the pool is idle,
	// which keeps Stats/Counters reads after a Run exact and race-free.
	// See quiesce.
	busy atomic.Int64 //lcws:field atomic

	jobSeq        atomic.Uint64 //lcws:field atomic — job id allocator (ids start at 1)
	jobsSubmitted atomic.Uint64 //lcws:field atomic
	jobsCompleted atomic.Uint64 //lcws:field atomic
	jobsFailed    atomic.Uint64 //lcws:field atomic

	// Per-class QoS accounting: jobs enqueued per class and admissions
	// rejected with ErrQueueFull (AdmitFail against a full class).
	jobsEnqueued     [NumJobClasses]atomic.Uint64 //lcws:field thief-shared — element ops are atomic; the array word itself is never written
	admissionRejects atomic.Uint64                //lcws:field atomic

	// Per-class injector-wait histograms: queue-to-pickup latency,
	// observed by the picking worker at startJob. Unlike the trace
	// histograms these are always on — pickup is a per-job (not
	// per-task) event, so a mutex-guarded observe costs nothing that
	// matters and the QoS latency story does not require tracing.
	waitMu   sync.Mutex                     //lcws:field atomic
	waitHist [NumJobClasses]trace.Histogram //lcws:field guarded(waitMu)

	// parkWords is the idle-worker bitset of the parking lot (bit id
	// set = worker id is parked). Parkers set their bit with a seq-cst
	// RMW *before* re-checking for work; producers publish work *before*
	// scanning the bitset — the Dekker-style ordering that makes a lost
	// wakeup impossible (see Worker.park). The in-job parking lot is
	// used only in StealBatch mode, but every worker also parks here
	// between jobs (deepPark), so the bitset always exists.
	parkWords []atomic.Uint64 //lcws:field immutable — slice set in NewScheduler; elements are atomic words

	// recycle is the global task-recycling pool: one padded shard per
	// worker. Workers donate freelist overflow to their own shard and
	// refill from any shard on an allocation miss; each shard is
	// internally synchronized by its mutex (see recycleShard).
	recycle []recycleShard //lcws:field immutable — slice set in NewScheduler; shards are mutex-guarded

	// traceEpoch is the zero point of all trace timestamps; set once in
	// NewScheduler when tracing is enabled.
	traceEpoch time.Time //lcws:field immutable

	// Per-job spans for the Chrome export, recorded at job settlement
	// on traced schedulers only (bounded; see maxJobSpans).
	spanMu   sync.Mutex      //lcws:field atomic
	jobSpans []trace.JobSpan //lcws:field guarded(spanMu)
}

// maxJobSpans bounds the per-scheduler job-span log of a traced
// scheduler; beyond it the oldest spans are dropped, mirroring the
// flight-recorder rings' drop-oldest behavior.
const maxJobSpans = 4096

// worker returns worker i of the slab. Valid for every i in
// [0, MaxWorkers); whether the slot is live is the set's business.
func (s *Scheduler) worker(i int) *Worker { return &s.workers[i].w }

// TaskPanic is the value Run re-throws — and Job.Err wraps — when a
// task function panics: the original panic value wrapped with the id of
// the worker that was executing the task and, when tracing is on, that
// worker's most recent flight-recorder events — so the crash report
// says where the panic happened and what the scheduler was doing just
// before.
type TaskPanic struct {
	// WorkerID is the worker whose goroutine the panicking task ran on.
	WorkerID int
	// Value is the original value passed to panic.
	Value any
	// Tail holds the panicking worker's last flight-recorder events
	// (oldest first); nil when the scheduler was not tracing.
	Tail []trace.Event
}

// Error renders the panic report; TaskPanic satisfies error so callers
// recovering it can log it directly.
func (p *TaskPanic) Error() string {
	msg := fmt.Sprintf("lcws: task panic on worker %d: %v", p.WorkerID, p.Value)
	if len(p.Tail) > 0 {
		msg += fmt.Sprintf(" (last %d trace events", len(p.Tail))
		for _, e := range p.Tail {
			msg += fmt.Sprintf(" %s@%dns", e.Type, e.Ts)
		}
		msg += ")"
	}
	return msg
}

func (p *TaskPanic) String() string { return p.Error() }

// Unwrap exposes the original panic value when it was an error, so
// errors.Is/As work through a recovered TaskPanic.
func (p *TaskPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// NewScheduler returns a scheduler with the given options. No worker
// goroutines exist until the first submission (or Start).
func NewScheduler(opts Options) *Scheduler {
	opts = opts.withDefaults()
	if int(opts.Policy) >= NumPolicies {
		panic(fmt.Sprintf("core: unknown policy %d", opts.Policy))
	}
	s := &Scheduler{
		opts:     opts,
		workers:  make([]workerSlot, opts.MaxWorkers),
		ctrs:     counters.NewSet(opts.MaxWorkers),
		inj:      injector.NewQoS[*Job](opts.ClassWeights, opts.ClassCapacity),
		closedCh: make(chan struct{}),
	}
	if opts.Trace != nil {
		s.traceEpoch = time.Now() //lcws:presync constructor: worker goroutines have not started
	}
	//lcws:presync constructor: worker goroutines have not started
	s.target = opts.Workers
	//lcws:presync constructor: worker goroutines have not started
	s.parkWords = make([]atomic.Uint64, (opts.MaxWorkers+63)/64)
	//lcws:presync constructor: worker goroutines have not started
	s.recycle = make([]recycleShard, opts.MaxWorkers)
	// Only the initial live prefix is built eagerly; slots beyond it
	// stay zeroed until demand or SetWorkers grows into them
	// (initSlot), so a large MaxWorkers headroom costs only the slab.
	s.set.Store(&workerSet{epoch: 1, slots: s.workers[:opts.Workers]})
	for i := 0; i < opts.Workers; i++ {
		s.initSlot(i)
		s.workers[i].w.state.Store(slotLive)
	}
	return s
}

// newTaskDeque builds one worker's deque per the pool's policy, and
// returns it a second time as a split deque when it is one (nil under
// WS); used by Worker.init for the initial prefix and when the pool
// grows into a fresh slot.
func newTaskDeque(opts Options) (taskDeque, *deque.SplitDeque[Task]) {
	var sd *deque.SplitDeque[Task]
	switch {
	case opts.Policy.relaxedSteal():
		// MultFree: the split deque with the relaxed claim cursor
		// enabled (and the owner-side repair folded into its
		// public-boundary operations).
		sd = deque.NewSplitRelaxed[Task](opts.DequeCapacity, opts.MaxDequeCapacity, opts.Policy.raceFixPop())
	case opts.Policy.SplitDeque():
		// The split deque supports PopTopHalf as-is; batch mode only
		// changes the owner discipline (reclaim via UnexposeAll, see
		// Worker.popLocal).
		sd = deque.NewSplitMax[Task](opts.DequeCapacity, opts.MaxDequeCapacity, opts.Policy.raceFixPop())
	case opts.StealBatch:
		return deque.NewChaseLevBatchMax[Task](opts.DequeCapacity, opts.MaxDequeCapacity), nil
	default:
		return deque.NewChaseLevMax[Task](opts.DequeCapacity, opts.MaxDequeCapacity), nil
	}
	return sd, sd
}

// Start spawns the resident worker goroutines if they are not running
// yet. Submissions start them on demand, so calling Start is optional;
// it exists for callers that want the spawn cost out of the first
// request's latency.
func (s *Scheduler) Start() { s.ensureStarted() }

// ensureStarted spawns the current live set's resident workers exactly
// once; workers added by later resizes are spawned by the resize
// itself.
func (s *Scheduler) ensureStarted() {
	s.startOnce.Do(func() {
		s.resizeMu.Lock()
		defer s.resizeMu.Unlock()
		s.started = true
		for i := range s.set.Load().slots {
			s.spawnWorker(s.worker(i))
		}
	})
}

// runResident runs w's resident loop, wrapped in pprof labels when the
// scheduler traces (pprof.Do allocates, so the wrap is traced-only).
func (s *Scheduler) runResident(w *Worker) {
	if s.opts.Trace != nil {
		pprof.Do(context.Background(), s.workerLabels(w.id, "resident"), func(context.Context) {
			w.residentLoop()
		})
	} else {
		w.residentLoop()
	}
}

// Close shuts the executor down: no further submissions are accepted
// (they settle immediately with ErrSchedulerClosed), in-flight and
// already-queued jobs run to completion, and the resident workers then
// exit. Close blocks until every worker has exited; it is idempotent
// and safe to call concurrently with submissions from other
// goroutines. After Close, counter and trace reads are exact.
func (s *Scheduler) Close() error {
	if !s.closed.Swap(true) {
		// Release submitters blocked on admission (they settle their
		// jobs with ErrSchedulerClosed) before waking the workers.
		close(s.closedCh)
		s.wakeAll()
	}
	// Resize barrier: a resize that began before the closed flip may
	// still be spawning workers. Passing through resizeMu here orders
	// every such wg.Add before the Wait; resizes that start after the
	// barrier observe closed under the lock and spawn nothing.
	s.resizeMu.Lock()
	s.resizeMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	s.wg.Wait()
	return nil
}

// Closed reports whether Close has been called.
func (s *Scheduler) Closed() bool { return s.closed.Load() }

// Submit enqueues a fork-join job rooted at root and returns — in the
// default unbounded-admission configuration — immediately; it is safe
// to call from any goroutine, including concurrently with other
// submissions and with Close. Multiple submitted jobs run concurrently
// over the same worker pool. Wait on the returned Job for completion
// and inspect its Err and Stats.
//
// The queue behind Submit is not a single FIFO: jobs enter per-class
// weighted-fair queues (see JobClass, Options.ClassWeights) and
// workers pick them up in stride order, so tenants submitting with
// different priorities or weights share the pool proportionally
// instead of first-come-first-served. Options configure one
// submission: WithJobPriority and WithJobWeight place the job in the
// QoS order, WithJobCtx attaches cancellation, and WithAdmission
// selects blocking vs fail-fast behavior against a class capacity
// (Options.ClassCapacity). With no options a submission is a
// Normal-class, weight-1, block-on-admission job — equivalent to the
// old single-FIFO behavior when every submitter does the same.
func (s *Scheduler) Submit(root func(*Worker), opts ...SubmitOpt) *Job {
	cfg := submitConfig{class: Normal, weight: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return s.submit(root, cfg)
}

func (s *Scheduler) submit(root func(*Worker), cfg submitConfig) *Job {
	if cfg.class > Low {
		cfg.class = Low
	}
	if cfg.weight < 1 {
		cfg.weight = 1
	}
	j := &Job{
		id:     s.jobSeq.Add(1),
		sched:  s,
		done:   make(chan struct{}),
		start:  time.Now(),
		class:  cfg.class,
		weight: cfg.weight,
	}
	j.root.prepareFn(root)
	j.root.job = j //lcws:presync job constructor: published to workers only via the injector's lock
	s.jobsSubmitted.Add(1)
	// Order matters: the increment must precede the closed check. If we
	// observe closed == false here, the increment is before Close's
	// store in the seq-cst total order, so any worker that later loads
	// closed == true also loads activeJobs >= 1 and keeps running until
	// this job settles — a submission that won the race cannot strand.
	s.activeJobs.Add(1)
	if s.closed.Load() {
		j.fail(ErrSchedulerClosed)
		j.settle()
		return j
	}
	// Shards are sized to the MaxWorkers slab, not the live set: a
	// worker grown into the pool mid-job must find its accounting slot,
	// and a draining worker still completing tasks keeps its own.
	j.shards = make([]jobShard, len(s.workers)) //lcws:presync job constructor: published to workers only via the injector's lock
	s.ensureStarted()
	ctx := cfg.ctx
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			j.fail(err)
			j.settle()
			return j
		}
		if ctx.Done() != nil {
			j.stop = context.AfterFunc(ctx, func() { //lcws:presync written before inj.Push publishes the job; settle runs after a worker's locked pop (or on this goroutine)
				j.fail(context.Cause(ctx))
				// Wake parked workers so a cancelled-but-unstarted job is
				// drained (and settled) promptly even on an idle pool.
				s.wakeAll()
			})
		}
	}
	// Bounded admission: each queued-but-unstarted job of a bounded
	// class holds one slot, released by the pickup that dequeues it.
	// Blocking here with activeJobs already incremented cannot idle the
	// pool against us: a full class queue means plenty of queued jobs,
	// and every pickup that works the backlog off frees a slot.
	if !s.inj.TryAcquire(int(cfg.class)) {
		if cfg.admit == AdmitFail {
			s.admissionRejects.Add(1)
			j.fail(ErrQueueFull)
			j.settle()
			return j
		}
		var cancelled <-chan struct{} // nil (blocks forever) without a ctx
		if ctx != nil {
			cancelled = ctx.Done()
		}
		select {
		case <-s.inj.SlotChan(int(cfg.class)):
		case <-cancelled:
			j.fail(context.Cause(ctx))
			j.settle()
			return j
		case <-s.closedCh:
			j.fail(ErrSchedulerClosed)
			j.settle()
			return j
		}
	}
	s.jobsEnqueued[cfg.class].Add(1)
	j.enqueued = time.Now() //lcws:presync written before inj.Push publishes the job to the picking worker
	s.inj.Push(j, int(cfg.class), cfg.weight)
	// Publish-then-scan half of the Dekker handshake with deepPark.
	s.wakeAll()
	// Demand growth: if the whole live pool is busy and this job still
	// sits in the injector, add a worker (up to MaxWorkers).
	s.maybeGrow()
	return j
}

// observeInjectorWait records a picked-up job's queue-to-pickup
// latency in its class's wait histogram.
func (s *Scheduler) observeInjectorWait(j *Job) {
	d := time.Since(j.enqueued).Nanoseconds()
	s.waitMu.Lock()
	s.waitHist[j.class].Observe(d)
	s.waitMu.Unlock()
}

// InjectorWait returns class c's queue-to-pickup latency histogram.
// Unlike the trace histograms it is populated on every scheduler.
func (s *Scheduler) InjectorWait(c JobClass) trace.Histogram {
	s.waitMu.Lock()
	h := s.waitHist[c]
	s.waitMu.Unlock()
	return h
}

// Run executes root to completion on the resident pool and returns
// when root and every task it transitively forked have finished: it is
// Submit + Wait, and accepts the same submission options. If a task
// panics, Run re-throws the panic wrapped as *TaskPanic — and unlike
// the one-shot scheduler this poisons nothing: the job's orphaned
// tasks are drained and the pool stays healthy for further Runs. Run
// may be called concurrently from several goroutines; the jobs share
// the pool.
func (s *Scheduler) Run(root func(*Worker), opts ...SubmitOpt) {
	j := s.Submit(root, opts...)
	if err := j.Wait(); err != nil {
		if tp, ok := err.(*TaskPanic); ok {
			panic(tp)
		}
		panic(err)
	}
}

// quiesce spins until no worker is inside its busy phase, provided the
// pool is idle (no active jobs). Workers leave the busy phase promptly
// once activeJobs hits zero — the longest they can lag is one capped
// idle-backoff sleep or insurance-timer park (≤1ms). The busy
// counter's release/acquire pair makes every counter and trace write
// of the finished jobs visible to the caller, keeping the seed
// scheduler's "Stats after Run are exact" guarantee for the resident
// pool. The readers and resetters of that state call it, not Wait, so
// a lagging worker delays a reader rather than every job. With other
// jobs still active it returns immediately and reads stay approximate.
func (s *Scheduler) quiesce() {
	for s.activeJobs.Load() == 0 && s.busy.Load() != 0 {
		runtime.Gosched()
	}
}

// DumpState renders the pool's scheduling state for a stall report: the
// job and busy counts, then for every slot ever started its slot state,
// pinned epoch, park bit, pending and targeted flags, and whether its
// deque holds any work and any public work. Slots past the live prefix
// are shown too (a retiring worker can still be finishing a job's
// frames). The values are atomic loads taken while the pool runs, so
// the lines are not one consistent snapshot; they are meant for a test
// or a watchdog that has already seen a job stop making progress.
func (s *Scheduler) DumpState() string {
	var b strings.Builder
	set := s.set.Load()
	fmt.Fprintf(&b, "policy=%v live=%d activeJobs=%d busy=%d injectorEmpty=%v closed=%v\n",
		s.opts.Policy, len(set.slots), s.activeJobs.Load(), s.busy.Load(), s.inj.Empty(), s.closed.Load())
	// The resize lock orders the dq reads against initSlot on slots a
	// concurrent grow is building (see TraceSnapshot).
	s.resizeMu.Lock()
	defer s.resizeMu.Unlock()
	for i := range s.workers {
		w := s.worker(i)
		if w.sched == nil {
			continue // slab tail never grown into
		}
		parked := s.parkWords[i/64].Load()&(uint64(1)<<uint(i%64)) != 0
		fmt.Fprintf(&b, "worker %d: live=%v state=%d epoch=%d parked=%v pending=%v targeted=%v dequeEmpty=%v publicWork=%v\n",
			i, i < len(set.slots), w.state.Load(), w.pinnedEpoch.Load(), parked, w.pending.Load(), w.targeted.Load(),
			w.dq.IsEmpty(), w.dq.HasPublicWork())
	}
	return b.String()
}

// setParked marks worker id parked in the parking-lot bitset.
func (s *Scheduler) setParked(id int) {
	word := &s.parkWords[id/64]
	bit := uint64(1) << uint(id%64)
	for {
		old := word.Load()
		if word.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// clearParked clears worker id's parked bit and reports whether this call
// was the one that cleared it (false means a waker already claimed the
// worker and a semaphore token is in flight or consumed).
func (s *Scheduler) clearParked(id int) bool {
	word := &s.parkWords[id/64]
	bit := uint64(1) << uint(id%64)
	for {
		old := word.Load()
		if old&bit == 0 {
			return false
		}
		if word.CompareAndSwap(old, old&^bit) {
			return true
		}
	}
}

// wakeOne wakes at most one parked worker: it claims a set bit with a CAS
// (so concurrent wakers pick distinct workers) and posts the claimed
// worker's semaphore. Work-producing operations call it after publishing
// the work; c (when non-nil) accounts the wakeup to the caller.
func (s *Scheduler) wakeOne(c *counters.Worker) {
	for wi := range s.parkWords {
		word := s.parkWords[wi].Load()
		for word != 0 {
			bit := word & -word
			if s.parkWords[wi].CompareAndSwap(word, word&^bit) {
				id := wi*64 + bits.TrailingZeros64(bit)
				select {
				case s.worker(id).parkSem <- struct{}{}:
				default:
				}
				if c != nil {
					c.Inc(counters.WakeupsSent)
				}
				return
			}
			word = s.parkWords[wi].Load()
		}
	}
}

// wakeAll unparks every parked worker. Submissions, job settlement,
// cancellation, and Close call it so the pool re-evaluates its state
// promptly instead of on insurance timers.
func (s *Scheduler) wakeAll() {
	for wi := range s.parkWords {
		word := s.parkWords[wi].Swap(0)
		for word != 0 {
			bit := word & -word
			word &^= bit
			id := wi*64 + bits.TrailingZeros64(bit)
			select {
			case s.worker(id).parkSem <- struct{}{}:
			default:
			}
		}
	}
}

// Workers returns the pool's current live size — the worker count of
// the present worker-set epoch. It is NOT fixed at construction: it
// moves with SetWorkers, demand growth, and idle retirement, between 1
// and MaxWorkers. Worker ids, by contrast, are stable: a worker keeps
// its id across resizes, and id-indexed state (WorkerCounters, shards)
// spans the full [0, MaxWorkers) range.
func (s *Scheduler) Workers() int { return len(s.set.Load().slots) }

// Policy returns the scheduling policy of the pool.
func (s *Scheduler) Policy() Policy { return s.opts.Policy }

// Counters returns the aggregated instrumentation counters accumulated by
// all jobs since the last ResetCounters. It quiesces first, so it is
// exact after Job.Wait on an otherwise-idle scheduler; it is
// approximate while jobs are running.
func (s *Scheduler) Counters() counters.Snapshot { s.quiesce(); return s.ctrs.Snapshot() }

// WorkerCounters returns worker id's own counter snapshot.
func (s *Scheduler) WorkerCounters(id int) counters.Snapshot {
	s.quiesce()
	var out counters.Snapshot
	w := s.ctrs.Worker(id)
	for e := 0; e < counters.NumEvents; e++ {
		out[e] = w.Get(counters.Event(e))
	}
	return out
}

// ResetCounters zeroes all instrumentation counters.
func (s *Scheduler) ResetCounters() { s.quiesce(); s.ctrs.Reset() }

// Tracing reports whether the scheduler was built with a flight
// recorder (Options.Trace non-nil).
func (s *Scheduler) Tracing() bool { return s.opts.Trace != nil }

// recordJobSpan logs a settled job for the Chrome export (traced
// schedulers only; bounded to maxJobSpans, dropping oldest).
func (s *Scheduler) recordJobSpan(j *Job, failed bool) {
	if s.opts.Trace == nil {
		return
	}
	span := trace.JobSpan{
		ID:     j.id,
		Start:  j.start.Sub(s.traceEpoch).Nanoseconds(),
		End:    time.Since(s.traceEpoch).Nanoseconds(),
		Failed: failed,
		Class:  uint8(j.class),
	}
	s.spanMu.Lock()
	if len(s.jobSpans) >= maxJobSpans {
		s.jobSpans = append(s.jobSpans[:0], s.jobSpans[1:]...)
	}
	s.jobSpans = append(s.jobSpans, span)
	s.spanMu.Unlock()
}

// TraceSnapshot decodes every worker's flight-recorder ring into one
// merged, time-sorted event stream plus the aggregated latency
// histograms and the settled jobs' spans. It is safe to call at any
// time, including concurrently with running jobs: each ring is frozen
// for the instant it is read (its owner drops — and counts — events
// that land in that window), so the snapshot is race-free without
// stopping the world. Events carry the id of the job their worker was
// executing (0 between jobs, or when the tagging job-switch event has
// aged out of the ring). On a scheduler built without Options.Trace it
// returns an empty Trace.
//
// The snapshot is taken over one worker-set epoch: Workers and the
// live-worker iteration both come from the same set load, so a resize
// racing the snapshot yields either the old epoch's view or the new
// one, never a mix. Slots beyond the live prefix are merged too —
// retired workers' rings keep their tail events (including the
// EvRetire that ended them) until reclamation releases the ring, at
// which point their events leave the snapshot (each epoch flip and
// retirement is itself recorded, as EvResize/EvRetire, on the ring of
// the worker it happened to). Like Stats it quiesces first, so after
// Job.Wait on an otherwise-idle scheduler it holds every finished event.
func (s *Scheduler) TraceSnapshot() trace.Trace {
	s.quiesce()
	set := s.set.Load()
	t := trace.Trace{Policy: s.opts.Policy.String(), Workers: len(set.slots)}
	if s.opts.Trace == nil {
		return t
	}
	merge := func(i int) {
		events, dropped := s.worker(i).rec.Snapshot(i)
		// Walk this worker's events in ring order, carrying the job id
		// forward from each job-switch marker.
		cur := uint64(0)
		for k := range events {
			if events[k].Type == trace.EvJobSwitch {
				cur = uint64(events[k].Arg)
			}
			events[k].Job = cur
		}
		t.Events = append(t.Events, events...)
		t.Dropped += dropped
		for l := 0; l < trace.NumLatencies; l++ {
			t.Latencies[l] = t.Latencies[l].Add(s.worker(i).rec.Hist(l))
		}
	}
	for i := range set.slots {
		merge(i)
	}
	// Slots outside the live set: retired rings that have not been
	// reclaimed yet. The resize lock orders these reads against
	// initSlot's plain writes on slots a concurrent grow is building
	// (slots the grow re-publishes were covered by the loop above at
	// the loaded epoch, so no ring is merged twice).
	s.resizeMu.Lock()
	for i := len(set.slots); i < len(s.workers); i++ {
		if s.worker(i).rec != nil { // nil: slab tail never grown into
			merge(i)
		}
	}
	s.resizeMu.Unlock()
	s.spanMu.Lock()
	t.Jobs = append(t.Jobs, s.jobSpans...)
	s.spanMu.Unlock()
	sort.SliceStable(t.Events, func(a, b int) bool { return t.Events[a].Ts < t.Events[b].Ts })
	return t
}

// workerLabels builds the pprof label set attributing a worker's CPU
// samples to the scheduling policy, the worker id, and its phase
// ("resident" for the pool's long-lived workers). Applied only when
// tracing is on.
func (s *Scheduler) workerLabels(id int, phase string) pprof.LabelSet {
	return pprof.Labels(
		"lcws_policy", s.opts.Policy.String(),
		"lcws_worker", strconv.Itoa(id),
		"lcws_phase", phase,
	)
}
