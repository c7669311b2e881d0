// Package lcws is a Go implementation of the schedulers from
// "Efficient Synchronization-Light Work Stealing" (Custódio, Paulino,
// Rito; SPAA 2023): the classic Work Stealing baseline and four variants
// of Low-Cost Work Stealing (LCWS) built on split deques, which keep most
// of a processor's deque private and synchronization-free while still
// allowing thieves to request and steal work.
//
// A Scheduler runs fork-join computations over P workers:
//
//	s := lcws.New(lcws.WithWorkers(4), lcws.WithPolicy(lcws.SignalLCWS))
//	s.Run(func(ctx *lcws.Ctx) {
//	    lcws.Fork2(ctx,
//	        func(ctx *lcws.Ctx) { /* left branch */ },
//	        func(ctx *lcws.Ctx) { /* right branch */ },
//	    )
//	})
//
// Computational kernels should call ctx.Poll inside long sequential loops;
// that is the emulated signal-delivery point that lets the signal-based
// schedulers expose work in constant time (see internal/core for the full
// discussion of the signal emulation). Every scheduler records the
// synchronization operations its C++ reference implementation would
// execute; Stats exposes them for profiling (the paper's Figures 3 and 8).
//
// # Persistent executor
//
// A Scheduler is a long-lived executor: its workers are spawned once
// (lazily on first use, or eagerly via Start), stay resident parked on
// per-worker semaphores between jobs (after a short spin, with no
// yielding that would compete with the submitters for CPU), and exit
// only on Close. Run is "submit and wait"; Submit enqueues a job from
// any goroutine and returns a *Job handle to Wait on, so many
// goroutines can serve concurrent jobs over one pool:
//
//	s := lcws.New(lcws.WithWorkers(8))
//	defer s.Close()
//	j := s.Submit(func(ctx *lcws.Ctx) { /* root task */ })
//	// ... other work, other Submits ...
//	if err := j.Wait(); err != nil { /* job failed */ }
//
// Jobs are isolated: a panicking task fails only its own job (Wait
// returns a *TaskPanic-wrapped error; the pool stays healthy), and
// jobs submitted with WithJobCtx observe context cancellation at task
// boundaries and Poll checkpoints. Wait returns as soon as the job
// settles; Scheduler.Stats and Counters wait for the pool to quiesce
// themselves, so a read after Wait on an otherwise-idle pool is exact.
// See DESIGN.md §10 for the executor's lifecycle state machine and
// cost model.
//
// # Elastic sizing
//
// The pool's live worker count is not fixed at construction. It starts
// at WithWorkers and moves between 1 and WithMaxWorkers (default: the
// initial count, i.e. a fixed pool): Scheduler.SetWorkers reconfigures
// it at any time — concurrently with running jobs — the pool grows on
// demand when queued jobs outrun unparked workers, and deep-parked
// workers retire under sustained idleness, releasing their deque
// arrays, freelists and trace rings. The resize machinery lives behind
// an epoch-guarded worker-set snapshot, so workers inside a stable
// epoch run the paper's fork/steal fast paths unchanged; see DESIGN.md
// §15.
//
// # Multi-tenant QoS
//
// Submissions are not a single FIFO line. Each job carries a priority
// class (High, Normal, Low — WithJobPriority) and an integer weight
// (WithJobWeight), and idle workers pick queued jobs up in
// weighted-fair (stride) order: classes share pickups in proportion to
// their configured weights (WithClassWeight, default 16:4:1), and jobs
// within a class in proportion to their job weights, FIFO among equals.
// Workers running a less-urgent job also poll for more-urgent queued
// jobs at Poll checkpoints and run them to completion inline when the
// weighted-fair order grants them the next turn, so a High submission's
// pickup latency under a saturating Low backlog is bounded by the
// checkpoint interval rather than by queue depth. Per-class queue
// capacities (WithClassCapacity) bound admission: a full class either
// fails the submission fast with ErrQueueFull (AdmitFail) or blocks the
// submitter until space frees (AdmitBlock, the default when a capacity
// is set) — pick with WithAdmission.
//
// # Errors
//
// Job.Err (and Wait) report exactly one of:
//
//   - ErrSchedulerClosed — submitted after Close, or still queued when
//     Close ran.
//   - ErrQueueFull — rejected by AdmitFail bounded admission.
//   - a *TaskPanic-wrapped error — a task function panicked.
//   - the job context's cancellation cause (context.Canceled,
//     context.DeadlineExceeded, or a context.WithCancelCause cause) for
//     jobs submitted with WithJobCtx.
//   - ErrJobInvariant — scheduler accounting self-check failed (a bug
//     in lcws, not in the caller).
//
// All are matchable with errors.Is/errors.As.
package lcws

import (
	"context"
	"io"

	"lcws/internal/core"
	"lcws/internal/trace"
)

// Ctx is the per-worker scheduling context passed to every task function.
// Its methods (Fork points via Fork2/ParFor, Poll/Checkpoint, ID, Rand)
// must be called only from the task function that received it.
type Ctx = core.Worker

// Scheduler is a persistent, elastic pool of resident workers; see New
// and the package comment's "Persistent executor" and "Elastic sizing"
// sections. Submit enqueues a job from any goroutine (with per-job
// SubmitOpts for class, weight, context and admission mode), Run is
// submit-and-wait, Start spawns the workers eagerly, SetWorkers resizes
// the live pool, Close shuts it down.
type Scheduler = core.Scheduler

// Job is the handle of one submitted fork-join computation: Wait (or
// the Done channel) for completion, then inspect Err and Stats.
type Job = core.Job

// JobStats is the per-job task accounting and duration, exact even when
// jobs overlap on the pool (unlike the scheduler-wide Stats deltas).
type JobStats = core.JobStats

// Errors surfaced through Job.Err; see the package comment's "Errors"
// section for the full taxonomy.
var (
	// ErrSchedulerClosed is returned by jobs submitted after Close.
	ErrSchedulerClosed = core.ErrSchedulerClosed
	// ErrQueueFull is returned by submissions rejected by bounded
	// admission (WithClassCapacity + WithAdmission(AdmitFail)).
	ErrQueueFull = core.ErrQueueFull
	// ErrJobInvariant wraps a post-job scheduler accounting violation (a
	// scheduler bug surfaced as a per-job error rather than a panic).
	ErrJobInvariant = core.ErrJobInvariant
)

// JobClass is a submission's priority class; see the package comment's
// "Multi-tenant QoS" section.
type JobClass = core.JobClass

// The priority classes, most urgent first.
const (
	// High is for latency-sensitive jobs.
	High = core.High
	// Normal is the default class of Submit and Run.
	Normal = core.Normal
	// Low is for batch/background jobs.
	Low = core.Low
)

// NumJobClasses is the number of priority classes.
const NumJobClasses = core.NumJobClasses

// ParseJobClass converts a class name ("high", "normal", "low",
// case-insensitive) into a JobClass.
func ParseJobClass(name string) (JobClass, bool) { return core.ParseJobClass(name) }

// AdmitMode selects what a submission does when its class queue is at
// its WithClassCapacity bound.
type AdmitMode = core.AdmitMode

const (
	// AdmitBlock blocks the submitter until space frees, the job's
	// context is cancelled, or the scheduler closes (the default).
	AdmitBlock = core.AdmitBlock
	// AdmitFail fails the submission immediately with ErrQueueFull.
	AdmitFail = core.AdmitFail
)

// SubmitOpt configures one submission (Submit or Run).
type SubmitOpt = core.SubmitOpt

// WithJobPriority sets the submission's priority class (default Normal).
func WithJobPriority(c JobClass) SubmitOpt { return core.WithJobPriority(c) }

// WithJobWeight sets the submission's weight within its class (default
// 1; values below 1 are clamped to 1). Jobs of one class share pickups
// in proportion to their weights.
func WithJobWeight(w int) SubmitOpt { return core.WithJobWeight(w) }

// WithJobCtx attaches a context: the job fails with the context's
// cancellation cause, observed at task boundaries and Poll checkpoints.
func WithJobCtx(ctx context.Context) SubmitOpt { return core.WithJobCtx(ctx) }

// WithAdmission sets the submission's behavior at a full class queue
// (default AdmitBlock). Irrelevant while the class is uncapped.
func WithAdmission(m AdmitMode) SubmitOpt { return core.WithAdmission(m) }

// Policy selects the scheduling algorithm.
type Policy = core.Policy

// The available scheduling policies (paper sections in parentheses).
const (
	// WS is the baseline Work Stealing scheduler on fully concurrent
	// Chase-Lev deques (Parlay's stock scheduler).
	WS = core.WS
	// USLCWS is user-space LCWS (§3): notifications are observed only at
	// task boundaries.
	USLCWS = core.USLCWS
	// SignalLCWS is signal-based LCWS (§4): constant-time work exposure.
	SignalLCWS = core.SignalLCWS
	// ConsLCWS is the Conservative Exposure variant (§4.1.1).
	ConsLCWS = core.ConsLCWS
	// HalfLCWS is the Expose Half variant (§4.1.2).
	HalfLCWS = core.HalfLCWS
	// LaceWS is the Lace comparator scheduler (related work, §2): split
	// deques with task-boundary exposure requests, half exposure, and
	// wholesale un-exposing of unstolen public work.
	LaceWS = core.LaceWS
	// MultFree is the relaxed split-deque policy: fence- and CAS-free
	// stealing of idempotent (range) tasks with bounded multiplicity;
	// duplicate executions are absorbed by a generation-stamp
	// arbitration, and Fork2 closures keep the exclusive CAS steal.
	MultFree = core.MultFree
)

// Policies lists every policy in presentation order (WS first).
var Policies = core.Policies[:]

// LCWSPolicies lists the four LCWS variants in the paper's figure order
// (User, Signal, Cons, Half).
var LCWSPolicies = core.LCWSPolicies[:]

// ParsePolicy converts a figure label (WS, USLCWS/User, Signal, Cons,
// Half) into a Policy.
func ParsePolicy(name string) (Policy, error) { return core.ParsePolicy(name) }

// Option configures New.
type Option func(*core.Options)

// WithWorkers sets the initial number of workers P (default 1).
func WithWorkers(p int) Option { return func(o *core.Options) { o.Workers = p } }

// WithMaxWorkers sets the pool's growth ceiling: the live worker count
// may be moved between 1 and n by Scheduler.SetWorkers and by the
// demand-driven growth trigger (see the package comment's "Elastic
// sizing" section). It is floored at WithWorkers; the default equals
// WithWorkers, i.e. a pool that never grows on its own. Per-worker
// structures indexed by Ctx.ID are sized to n once at construction, so
// resizes move no memory.
func WithMaxWorkers(n int) Option { return func(o *core.Options) { o.MaxWorkers = n } }

// WithPolicy sets the scheduling policy (default WS).
func WithPolicy(p Policy) Option { return func(o *core.Options) { o.Policy = p } }

// WithDequeCapacity sets the per-worker deque's initial capacity. The
// deques grow by doubling when a spawn tree outgrows them, up to the
// WithMaxDequeCapacity cap.
func WithDequeCapacity(n int) Option { return func(o *core.Options) { o.DequeCapacity = n } }

// WithMaxDequeCapacity caps per-worker deque growth (never below the
// initial capacity). Past the cap the owner spills its oldest tasks to
// an unbounded overflow list instead of growing further, so arbitrarily
// wide spawn trees run in bounded deque memory.
func WithMaxDequeCapacity(n int) Option { return func(o *core.Options) { o.MaxDequeCapacity = n } }

// WithFreelistBound caps each worker's task freelist. Tasks freed past
// the bound are recycled through the scheduler's global shard pool or
// released to the GC, keeping steady-state memory flat across jobs of
// wildly different widths.
func WithFreelistBound(n int) Option { return func(o *core.Options) { o.FreelistBound = n } }

// WithClassWeight sets priority class c's share weight in the
// weighted-fair injector (default High:16, Normal:4, Low:1; values
// below 1 are clamped to 1). Classes receive job pickups in proportion
// to their weights while all have queued jobs.
func WithClassWeight(c JobClass, w int) Option {
	return func(o *core.Options) { o.ClassWeights[c] = w }
}

// WithClassCapacity bounds priority class c's submission queue to n
// queued (not yet picked up) jobs; 0, the default, leaves the class
// unbounded. Submissions to a full class block or fail per their
// WithAdmission mode.
func WithClassCapacity(c JobClass, n int) Option {
	return func(o *core.Options) { o.ClassCapacity[c] = n }
}

// WithSeed seeds the workers' victim-selection PRNGs for reproducible
// scheduling decisions.
func WithSeed(seed uint64) Option { return func(o *core.Options) { o.Seed = seed } }

// WithPollEvery sets how many ctx.Poll calls elapse between checks of the
// emulated pending-signal word (default 64) — the knob playing the role
// of OS signal-delivery latency in the signal emulation.
func WithPollEvery(n int) Option { return func(o *core.Options) { o.PollEvery = n } }

// WithYieldEvery makes each worker yield its OS thread after executing n
// tasks (0 = never, the default). On hosts with fewer CPUs than workers
// this produces steal and exposure dynamics representative of a real
// P-core machine; the profiling harness uses it for the paper's counter
// figures.
func WithYieldEvery(n int) Option { return func(o *core.Options) { o.YieldEvery = n } }

// WithStealBatch opts into the batched steal-side mode: thieves claim up
// to half of a victim's public part with one CAS, probe their last
// successful victim first (sticky victim selection), and idle workers
// park on per-worker semaphores woken by work-producing events instead
// of sleeping blind. The default (false) is the paper-faithful
// single-steal mode, whose fence/CAS accounting matches the counting
// model exactly; batch mode extends the model as documented in
// internal/counters/model.go.
func WithStealBatch(on bool) Option { return func(o *core.Options) { o.StealBatch = on } }

// WithTrace enables the flight recorder: each worker records typed,
// timestamped scheduler events (task spans, forks, steals, exposures,
// signals, parks) into a fixed-capacity owner-write ring, and derives
// steal/exposure/signal/park latency histograms, all readable at any
// time via Scheduler.TraceSnapshot and Scheduler.Stats. Tracing also
// labels workers' CPU-profile samples (runtime/pprof) with
// lcws_policy/lcws_worker/lcws_phase. The zero TraceConfig selects the
// default ring capacity. Without this option tracing costs nothing:
// workers hold no recorder and every trace hook is one nil check.
func WithTrace(cfg TraceConfig) Option {
	return func(o *core.Options) { c := cfg; o.Trace = &c }
}

// New returns a Scheduler. The zero configuration is a single-worker WS
// scheduler.
func New(opts ...Option) *Scheduler {
	var o core.Options
	for _, opt := range opts {
		opt(&o)
	}
	return core.NewScheduler(o)
}

// Fork2 executes left and right as a fork-join pair and returns when both
// are done; right may run on another worker.
func Fork2(ctx *Ctx, left, right func(*Ctx)) { core.Fork2(ctx, left, right) }

// Fork4 is a two-level Fork2 for four-way forks.
func Fork4(ctx *Ctx, a, b, c, d func(*Ctx)) { core.Fork4(ctx, a, b, c, d) }

// ForkN executes any number of branches as a balanced fork-join tree.
func ForkN(ctx *Ctx, fns ...func(*Ctx)) { core.ForkN(ctx, fns...) }

// ParFor executes body for every index in [lo, hi) with recursive binary
// splitting; grain <= 0 selects an automatic grain size.
func ParFor(ctx *Ctx, lo, hi, grain int, body func(ctx *Ctx, i int)) {
	core.ParFor(ctx, lo, hi, grain, body)
}

// Stats aggregates the instrumentation of a scheduler: the
// synchronization operations the reference C++ implementation would
// execute (Fences, CAS — see internal/counters/model.go for the counting
// model), scheduler-level event counts, and — on schedulers built with
// WithTrace — the four derived latency histograms (StealToHit,
// FlagToExposure, SignalToHandle, ParkDuration). The paper's profiles
// (Figures 3 and 8) are ratios of the counter fields between schedulers.
//
// Obtain one with Scheduler.Stats; take interval deltas with Stats.Sub:
//
//	before := s.Stats()
//	s.Run(phase)
//	delta := s.Stats().Sub(before)
type Stats = core.Stats

// Histogram is a power-of-two-bucketed latency histogram in nanoseconds
// with Mean/Quantile accessors; Stats and Trace expose the scheduler's
// derived latencies as Histograms.
type Histogram = trace.Histogram

// TraceConfig configures the flight recorder enabled by WithTrace.
type TraceConfig = trace.Config

// Trace is a decoded flight-recorder snapshot: every worker's typed,
// timestamped events merged into one stream, plus the aggregated
// latency histograms. Obtain one with Scheduler.TraceSnapshot; export
// it for Perfetto/chrome://tracing with its WriteChrome method.
type Trace = trace.Trace

// TraceEvent is one decoded flight-recorder event.
type TraceEvent = trace.Event

// TaskPanic is the value Scheduler.Run re-throws when a task function
// panics: the original panic value wrapped with the worker id it ran on
// and — when tracing — that worker's recent flight-recorder events.
// recover() still observes a non-nil value exactly when a task
// panicked; callers that inspect the value unwrap it:
//
//	defer func() {
//	    if r := recover(); r != nil {
//	        tp := r.(*lcws.TaskPanic)
//	        log.Printf("worker %d panicked: %v", tp.WorkerID, tp.Value)
//	    }
//	}()
type TaskPanic = core.TaskPanic

// WriteChromeTrace writes t in Chrome trace_event JSON, loadable in
// Perfetto (https://ui.perfetto.dev) and chrome://tracing.
func WriteChromeTrace(w io.Writer, t *Trace) error { return trace.WriteChrome(w, t) }
