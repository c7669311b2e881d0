package core

import (
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"lcws/internal/counters"
	"lcws/internal/deque"
	"lcws/internal/rng"
	"lcws/internal/trace"
)

// cacheLineSize is the assumed cache-line size used to segregate
// thief-written worker state from owner-hot state and to pad the
// scheduler's worker slab.
const cacheLineSize = 64

// Worker is the per-processor scheduling context. Exactly one goroutine
// runs each worker; task functions receive the worker they execute on and
// must thread it through to nested fork points and Poll calls.
//
// The field layout is deliberate: the two notification words that thieves
// write (targeted, pending) occupy the struct's first cache line by
// themselves, so a thief's notify never invalidates the line(s) holding
// the owner-hot fields the fork fast path reads every push and pop.
// Workers are allocated contiguously in the scheduler's slab (see
// workerSlot), each slot padded to a cache-line multiple plus a trailing
// guard line, so neighbouring workers never share a line either.
//
//lcws:manifest
type Worker struct {
	// targeted is the per-processor flag of Listings 1 and 3: it records
	// that a thief targeted this worker for stealing. In USLCWS it is the
	// notification itself; in the signal-based schedulers it only
	// suppresses redundant signals.
	targeted atomic.Bool //lcws:field atomic

	// pending is the emulated in-flight signal: a thief stores true
	// ("pthread_kill"), and this worker's goroutine runs the exposure
	// handler at its next delivery point (see handleSignal).
	pending atomic.Bool //lcws:field atomic

	_ [6]byte // align the trace stamps below to 8 bytes

	// reqTs and sigSendTs are trace-latency stamps, live only when the
	// scheduler traces: a thief that sets this worker's targeted flag
	// stamps reqTs (CAS from zero, so the first requester of a targeted
	// window wins), and the signal sender stamps sigSendTs; the owner
	// Swap(0)s them when it exposes/handles and observes the deltas into
	// its latency histograms. They are thief-written like the two flags
	// above, hence on this line rather than with the owner-hot state.
	reqTs     atomic.Int64 //lcws:field atomic
	sigSendTs atomic.Int64 //lcws:field atomic

	_ [cacheLineSize - 2*unsafe.Sizeof(atomic.Bool{}) - 6 - 2*unsafe.Sizeof(atomic.Int64{})]byte

	// Owner-hot state: written only by this worker's own goroutine (or
	// by scheduler setup code before that goroutine exists). The
	// immutable fields are set once in Worker.init; the owner fields
	// mutate on the hot path under the receiver-context rule.
	sched         *Scheduler              //lcws:field immutable
	dq            taskDeque               //lcws:field immutable — owner/thief method split enforced by owneronly
	split         *deque.SplitDeque[Task] //lcws:field immutable — dq's split deque, nil under WS; owner/thief method split enforced by owneronly
	ctr           *counters.Worker        //lcws:field immutable
	rand          *rng.Xoshiro256         //lcws:field immutable
	freelist      *Task                   //lcws:field owner — recycled tasks; see newTask/freeTask
	freelistLen   int                     //lcws:field owner — length of freelist; bounded by freelistBound
	rec           *trace.Recorder         //lcws:field immutable — owner/thief method split enforced by owneronly; nil = tracing off
	id            int                     //lcws:field immutable
	sinceYield    int                     //lcws:field owner — tasks executed since the last cooperative yield
	yieldEvery    int                     //lcws:field immutable — cached Options.YieldEvery (0 = never)
	idleSleep     time.Duration           //lcws:field owner — current idle-backoff sleep (0 = not sleeping yet)
	pollCount     uint32                  //lcws:field owner — Poll() call counter for the cheap fast path
	pollEvery     uint32                  //lcws:field immutable — Poll calls between pending-signal checks
	idleSpins     uint32                  //lcws:field owner — consecutive failed work-search iterations
	victimPrivate bool                    //lcws:field owner — the last steal attempt found its victim holding only private work
	policy        Policy                  //lcws:field immutable
	batch         bool                    //lcws:field immutable — cached Options.StealBatch
	relaxed       bool                    //lcws:field immutable — cached Policy.relaxedSteal (MultFree)
	sticky        int32                   //lcws:field owner — last successful victim id (-1 = none); batch mode only
	freelistBound int                     //lcws:field immutable — cached Options.FreelistBound

	// Overflow-spill state: when the deque hits Options.MaxDequeCapacity,
	// the owner moves its oldest tasks onto this unbounded private FIFO
	// (linked through Task.next) and drains it back in localWork.
	// spilled, once set, relaxes the join's LIFO assertion — a spilled
	// sibling comes back through the overflow drain instead of popLocal.
	// spillBuf is the lazily-allocated SpillOldest scratch buffer.
	overflowHead *Task   //lcws:field owner
	overflowTail *Task   //lcws:field owner
	spilled      bool    //lcws:field owner
	spillBuf     []*Task //lcws:field owner

	// Job context, owner-only: curJob is the job of the task currently
	// executing on this worker (nil between tasks and for untagged test
	// tasks), curShard its per-worker accounting shard. runTask saves
	// and restores them around each task, so a worker helping one job's
	// join while executing another job's stolen task accounts each task
	// to its own job. taskDepth counts nested runTask frames; the
	// abort-unwind sentinel fires only at depth > 0 (see Checkpoint).
	curJob    *Job      //lcws:field owner
	curShard  *jobShard //lcws:field owner
	taskDepth int32     //lcws:field owner

	// parkSem is the worker's parking semaphore: a waker that claims
	// this worker's bit in Scheduler.parkWords posts one token here.
	// Used by the in-job parking lot (StealBatch mode) and by every
	// worker's between-jobs deep park. parkTimer is the missed-wakeup
	// insurance timer (lazily allocated on first park). stealBuf
	// receives batched steals (owner-only after the claim; see
	// stealFromBatched).
	parkSem   chan struct{}         //lcws:field immutable — channel ops are internally synchronized
	parkTimer *time.Timer           //lcws:field owner
	stealBuf  [stealBatchSize]*Task //lcws:field owner

	// relClaims is this worker's per-victim relaxed-claim memory
	// (MultFree only, indexed by victim id): the monotone high-water
	// marks that bound how often this thief can return any one task to
	// at most once. Thief-private — only this worker's goroutine touches
	// its own slice. Sized to MaxWorkers: cursors persist across
	// worker-set epochs (sound because retirement tears deques down
	// index-preservingly; see deque.SplitDeque.Teardown).
	relClaims []deque.RelClaim //lcws:field owner

	// Elastic worker-set state (see workerset.go). curSet is the
	// snapshot this worker's steal path runs against, refreshed by pin;
	// pinnedEpoch is its published reclamation guard (0 = unpinned);
	// state is the slot lifecycle word the resizer and this goroutine
	// arbitrate retirement through. The two atomics are written by the
	// resizer only on (rare) resizes, so sharing the owner-hot lines
	// costs nothing on a stable epoch.
	curSet      *workerSet    //lcws:field owner — cached snapshot; may be stale while unpinned
	pinnedEpoch atomic.Uint64 //lcws:field atomic
	state       atomic.Int32  //lcws:field atomic — slotIdle / slotLive / slotDraining
}

// stealBatchSize caps how many tasks one batched steal can claim. Eight
// keeps the thief-side buffer to one cache line of pointers while still
// amortizing the claim CAS over most bursts.
const stealBatchSize = 8

// workerSlot pads a Worker up to a cache-line multiple and appends one
// guard line, so adjacent slots in the scheduler's contiguous slab never
// place two workers' live fields on one line even when the Go allocator
// hands back a slab base that is not itself line-aligned.
//
//lcws:manifest
type workerSlot struct {
	w Worker //lcws:field thief-shared — the Worker's own manifest governs each field
	_ [workerSlotPad]byte
}

const workerSlotPad = (cacheLineSize-unsafe.Sizeof(Worker{})%cacheLineSize)%cacheLineSize + cacheLineSize

// init populates a zeroed worker slot. It runs in NewScheduler, before
// any worker goroutine exists.
func (w *Worker) init(id int, s *Scheduler, opts Options) {
	w.id = id
	w.sched = s
	w.policy = opts.Policy
	w.dq, w.split = newTaskDeque(opts)
	w.ctr = s.ctrs.Worker(id)
	w.rand = rng.New(opts.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
	w.pollEvery = uint32(opts.PollEvery)
	w.yieldEvery = opts.YieldEvery
	w.batch = opts.StealBatch
	w.relaxed = opts.Policy.relaxedSteal()
	if w.relaxed {
		w.relClaims = make([]deque.RelClaim, opts.MaxWorkers)
	}
	w.sticky = -1
	w.freelistBound = opts.FreelistBound
	w.parkSem = make(chan struct{}, 1)
	w.curSet = s.set.Load() // current snapshot; pin refreshes it
	if opts.Trace != nil {
		w.rec = trace.NewRecorder(*opts.Trace, s.traceEpoch, w.ctr)
	}
}

// resetForRun clears per-run scheduling state. The resident executor
// resets the deterministic subset (poll phase, yield cadence, idle
// ladder) in startJob on the worker that picks a job up; this full
// variant also clears the notification words and is used by tests that
// drive workers directly on an unstarted scheduler.
func (w *Worker) resetForRun() {
	w.targeted.Store(false)
	w.pending.Store(false)
	w.reqTs.Store(0)
	w.sigSendTs.Store(0)
	if w.rec != nil {
		w.rec.ResetRun()
	}
	w.resetIdle()
	w.pollCount = 0
	w.sinceYield = 0
	w.sticky = -1
	w.dropWakeToken() // a stale token from a previous Run's shutdown
}

// resetIdle restarts the idle ladder; every loop that finds work calls
// it.
func (w *Worker) resetIdle() {
	w.idleSpins = 0
	w.idleSleep = 0
}

// ID returns the worker's scheduling identifier in [0, Workers()).
func (w *Worker) ID() int { return w.id }

// Workers returns the scheduler's MaxWorkers bound — the size of the
// worker-id space. Task code uses it to size per-worker scratch
// indexed by ID(), and unlike the live worker count (which moves with
// SetWorkers and elastic growth/retirement) it is fixed for the
// scheduler's lifetime, so such scratch stays valid across resizes.
func (w *Worker) Workers() int { return len(w.sched.workers) }

// Policy returns the scheduling policy the pool runs.
func (w *Worker) Policy() Policy { return w.policy }

// Rand returns the worker-local deterministic PRNG. It must only be used
// from this worker's goroutine.
func (w *Worker) Rand() *rng.Xoshiro256 { return w.rand }

// defaultPollEvery is the default Poll interval between pending-signal
// checks (Options.PollEvery). Kernels call Poll in their innermost loops,
// so the common path must stay a couple of instructions.
const defaultPollEvery = 64

// Poll is the cheap checkpoint that computational kernels place inside
// long sequential loops. Every PollEvery-th call it checks for an emulated
// pending signal and, if one arrived, runs the work-exposure handler. This
// is what makes the signal-based schedulers handle exposure requests in
// (bounded) constant time even in the middle of a coarse-grained task, in
// contrast to USLCWS and Lace which wait for the task to finish.
func (w *Worker) Poll() {
	w.pollCount++
	if w.pollCount >= w.pollEvery {
		w.pollCount = 0
		w.Checkpoint()
	}
}

// Checkpoint checks immediately for a pending exposure request and handles
// it. It is the emulated signal-delivery point for code that does not
// fork (Poll, ParFor leaves, the scheduler loops); Fork2 and forkRange
// deliver at every push and join. The handler (handleSignal) runs on
// this worker's goroutine, mirroring a POSIX handler running on the
// victim's thread.
//
// Checkpoint is also where an aborted job (task panic elsewhere in the
// job, or context cancellation) unwinds its running tasks: inside a
// task of an aborted job it throws the internal errJobAborted sentinel,
// which the enclosing runTask boundary swallows after the usual
// completion bookkeeping. The depth guard keeps the sentinel out of
// the resident worker loop itself, and the curJob check means a worker
// nested into a *different*, healthy job's task is not unwound — only
// the aborted job's own frames are.
func (w *Worker) Checkpoint() {
	if w.taskDepth > 0 {
		if j := w.curJob; j != nil && j.aborted.Load() {
			panic(errJobAborted)
		}
	}
	if w.pending.Load() {
		w.handleSignal()
	}
	// QoS preemption point: a worker inside a Normal- or Low-class job
	// cedes to a queued job of a strictly more urgent class — but only
	// when the weighted-fair stride order would serve that class next
	// anyway (TryPopAbove re-checks), so yielding bounds the urgent
	// class's pickup latency by the checkpoint interval instead of the
	// running job's length without granting it more than its share.
	// The probe is one atomic load, and jobs of the most urgent class
	// skip even that.
	if j := w.curJob; j != nil && j.class != High && w.sched.inj.ReadyAbove(int(j.class)) {
		w.yieldToUrgent(int(j.class))
	}
}

// handleSignal is the emulated signal handler (Listing 3's
// update_public_bottom): it consumes the pending request and exposes
// private work per the policy's exposure mode. Every delivery point —
// Checkpoint, each push of Fork2 and forkRange, and each join — calls
// it after one load of the pending word finds a request; only the
// signal-based policies set that word, and they all run on the split
// deque (under WS the load is always false). Owner-only.
func (w *Worker) handleSignal() {
	w.pending.Store(false)
	w.ctr.Inc(counters.SignalHandled)
	n := w.split.Expose(w.policy.exposeMode(), w.ctr)
	if w.rec != nil {
		w.rec.SignalHandle(n, w.sigSendTs.Swap(0), w.reqTs.Swap(0))
	}
	if n > 0 && w.batch {
		// Work just became public; unpark a thief to take it.
		w.sched.wakeOne(w.ctr)
	}
}

// yieldToUrgent runs one queued job of a class strictly more urgent
// than class below — if the stride order agrees it is that class's
// turn — nested inside the current task, then resumes the interrupted
// job. runTask's job-context switching handles the nesting (the same
// machinery that lets a worker help another job's join); the poll and
// yield cadences are saved around the nested job so the interrupted
// job's signal-delivery timing resumes where it left off. Nesting is
// bounded by the class count: the nested job's own checkpoints can
// only yield to classes more urgent still.
func (w *Worker) yieldToUrgent(below int) {
	j, ok := w.sched.inj.TryPopAbove(below)
	if !ok {
		return
	}
	w.ctr.Inc(counters.JobYield)
	savedPoll, savedSince := w.pollCount, w.sinceYield
	w.startJob(j)
	w.pollCount, w.sinceYield = savedPoll, savedSince
}

// runLeaf executes body for every index of a ParFor leaf range with the
// Poll bookkeeping hoisted out of the per-iteration path: the loop runs
// in chunks bounded by the remaining poll budget and checkpoints between
// chunks. The observable cadence is identical to calling Poll after
// every iteration — pollCount advances by one per index and a checkpoint
// fires every pollEvery-th — but the inner loop is a bare body call.
func (w *Worker) runLeaf(lo, hi int, body func(*Worker, int)) {
	for i := lo; i < hi; {
		n := hi - i
		if rem := int(w.pollEvery - w.pollCount); n > rem {
			n = rem
		}
		for end := i + n; i < end; i++ {
			body(w, i)
		}
		w.pollCount += uint32(n)
		if w.pollCount >= w.pollEvery {
			w.pollCount = 0
			w.Checkpoint()
		}
	}
}

// setJob switches this worker's job context to j (nil = none),
// recaching the accounting shard and recording the switch in the
// flight recorder. Owner-only.
func (w *Worker) setJob(j *Job) {
	w.curJob = j
	w.curShard = w.shardOf(j)
	if w.rec != nil {
		w.rec.JobSwitch(uint32(jobID(j)))
	}
}

// runTask executes t — a plain function task or a range task — and marks
// it done. With Options.YieldEvery set, the worker periodically yields
// the OS thread so that on oversubscribed hosts thieves interleave with
// busy workers at task granularity.
//
// runTask is a job boundary: if t belongs to a different job than the
// one this worker is currently in (a stolen task picked up while
// helping another job's join, or a top-level task from the resident
// loop), the worker's job context is switched for the task's duration
// and restored after. It is also the job-failure firewall: a panic in
// the task function fails t's job and is swallowed here — the worker
// goroutine survives, and only the job's own tasks unwind. The task
// still counts as done so joins waiting on it cannot hang. runTask
// never frees t: recycling is the forking worker's job, at its join
// point.
func (w *Worker) runTask(t *Task) {
	if w.relaxed && t.fn == nil && !w.claimExec(t) {
		// MultFree: another claimant of this range task won the
		// execution arbitration (bounded multiplicity); it will run and
		// complete the task, so this duplicate is dropped without any
		// completion or shard accounting.
		return
	}
	prevJob := w.curJob
	if t.job != prevJob {
		w.setJob(t.job)
	}
	w.taskDepth++
	if w.rec != nil {
		if t.fn != nil {
			w.rec.TaskBegin(0)
		} else {
			w.rec.TaskBegin(1)
		}
	}
	defer w.taskDone(t, prevJob)
	if t.fn != nil {
		t.fn(w)
	} else {
		w.forkRange(t.lo, t.hi, t.grain, t.body)
	}
	if ye := w.yieldEvery; ye > 0 {
		w.sinceYield++
		if w.sinceYield >= ye {
			w.sinceYield = 0
			runtime.Gosched()
		}
	}
}

// taskDone is runTask's deferred epilogue: dispose of a task panic,
// close the task's trace span, account and mark the task complete, and
// restore the enclosing job context. It is a named Worker method rather
// than a closure so its owner-only accesses (rec, freelist-class state)
// verifiably run on the owner's goroutine; recover works here because
// taskDone is itself the deferred function.
//
// Panic disposition: the errJobAborted sentinel thrown by a Checkpoint
// of an aborted job stops unwinding here — this is the task boundary it
// was unwinding to. A real panic fails t's job (first failure wins) and
// is likewise swallowed: the pool stays healthy, the job's remaining
// tasks are drained by job-id filtering, and the job's waiter receives
// the panic wrapped as *TaskPanic via Job.Err (Run re-throws it). Only
// a panic in an untagged task (unit tests driving workers directly) is
// re-thrown to the caller. In every case the completion stamp is
// stored, so joins waiting on the task cannot hang.
func (w *Worker) taskDone(t *Task, prevJob *Job) {
	// Capture the job tag before the completion stamp: the stamp is
	// this worker's last permitted access to t — the forking worker's
	// join may observe it and recycle t immediately.
	j := t.job
	var rethrow any
	if r := recover(); r != nil && r != errJobAborted { //nolint:errorlint // sentinel identity
		if j != nil {
			j.fail(&TaskPanic{WorkerID: w.id, Value: r, Tail: w.traceTail()})
		} else {
			rethrow = r
		}
	}
	if w.rec != nil {
		w.rec.TaskEnd()
	}
	if sh := w.curShard; sh != nil {
		sh.completed++
	}
	t.complete()
	w.ctr.Inc(counters.TaskExecuted)
	w.taskDepth--
	if j != prevJob {
		w.setJob(prevJob)
	}
	if rethrow != nil {
		panic(rethrow)
	}
}

// runInline executes a forked task that its own join popped back
// un-stolen. It differs from runTask in one way: the completion stamp is
// not stored. No other worker holds a reference that waits on it — the
// task came back through the owner's pop, so any thief that glimpsed the
// pointer lost its steal CAS and abandoned it — and the joining code
// path below is the caller itself. Skipping the store keeps the no-steal
// join free of its last atomic RMW; the stamp scheme stays sound because
// a later incarnation of the task waits for a strictly greater stamp
// value than any this incarnation could have stored (see Task).
// Inline siblings run inside their parent's task span: runInline is
// the per-fork fast path, so it deliberately records no begin/end
// events of its own (see DESIGN.md §9 on enabled-tracing overhead).
func (w *Worker) runInline(t *Task) {
	defer w.inlineDone()
	if t.fn != nil {
		t.fn(w)
	} else {
		w.forkRange(t.lo, t.hi, t.grain, t.body)
	}
	if ye := w.yieldEvery; ye > 0 {
		w.sinceYield++
		if w.sinceYield >= ye {
			w.sinceYield = 0
			runtime.Gosched()
		}
	}
}

// inlineDone is runInline's deferred epilogue; unlike taskDone it skips
// the completion stamp (see runInline) and the trace span close.
//
// Inline tasks always run inside their forker's spine, in the same job,
// so a panic here cannot stop at this boundary: after failing the job
// and accounting the task, unwinding continues as the errJobAborted
// sentinel up to the nearest runTask frame (whose taskDone swallows
// it). Resuming the forker's code would be pointless — its job is now
// aborted and its next Checkpoint would unwind it anyway. A panic in an
// untagged task (unit tests driving workers directly) re-throws the
// original value to the caller.
func (w *Worker) inlineDone() {
	r := recover()
	if r != nil && r != errJobAborted { //nolint:errorlint // sentinel identity
		if j := w.curJob; j != nil {
			j.fail(&TaskPanic{WorkerID: w.id, Value: r, Tail: w.traceTail()})
			r = errJobAborted
		}
	}
	if sh := w.curShard; sh != nil {
		sh.completed++
	}
	w.ctr.Inc(counters.TaskExecuted)
	if r != nil {
		panic(r)
	}
}

// panicTailEvents is how many trailing flight-recorder events a task
// panic carries in its TaskPanic report.
const panicTailEvents = 16

// traceTail returns this worker's most recent flight-recorder events
// for a panic report (nil when tracing is off). Owner-only.
func (w *Worker) traceTail() []trace.Event {
	if w.rec == nil {
		return nil
	}
	tail := w.rec.Tail(panicTailEvents)
	for i := range tail {
		tail[i].Worker = w.id
	}
	return tail
}

// traceFork records a fork event when tracing is on; the fork entry
// points (Fork2, forkRange) call it instead of touching rec directly so
// the owner-only access stays inside a Worker method.
func (w *Worker) traceFork() {
	if w.rec != nil {
		w.rec.Fork()
	}
}

// push appends a freshly forked task to this worker's deque: it tags
// the task with the worker's current job (so thieves — and the orphan
// drain — know which job it belongs to), accounts it to the job's
// per-worker shard, and hands off to pushNoTag. The tag is written
// before the deque's publication protocol makes the task visible to
// thieves, so t.job is immutable-after-publish.
//
//lcws:noalloc
func (w *Worker) push(t *Task) {
	t.job = w.curJob //lcws:presync written before the deque's release publication makes t visible to thieves
	if w.relaxed {
		// Stamp the landing (epoch, index) for the MultFree relaxed lane:
		// thieves validate their fence-free slot reads against it, and
		// the recycling gate (freeTask) checks it against the exposure
		// high-water mark. Batch remnants do NOT come through here — the
		// remnant landing loop (stealOnce) restamps them in the
		// receiver's index domain with the sticky exposed bit set before
		// calling pushNoTag.
		t.pushStamp.Store(w.split.PushStamp()) //lcws:presync written before the deque's release publication makes t visible to thieves
	}
	if sh := w.curShard; sh != nil {
		sh.created++
	}
	w.pushNoTag(t)
	// Signal delivery point: a request that arrived while this worker
	// was forking is answered here, with the new task already private.
	if w.pending.Load() {
		w.handleSignal()
	}
}

// pushNoTag appends a task to this worker's deque without touching its
// job tag or accounting — used by push (which tags first) and by the
// batched-steal remnant landing, where the tasks keep the job tag and
// created-count of their original forker. It applies the policy's
// push-side flag maintenance (§4: in the signal-based schedulers the
// targeted flag is reset when the owner pushes new work, so thieves may
// notify again). The reset is a single unconditional store: the flag
// lives on the worker's thief-shared line, which the owner's fast path
// does not otherwise touch, so the store costs at most one exclusive
// line acquisition — while the former load-test-store pair put an extra
// load and a mispredictable branch on every fork.
//
//lcws:noalloc
func (w *Worker) pushNoTag(t *Task) {
	// Batch mode: a push onto an empty deque is the event that turns an
	// idle pool busy again, so it wakes one parked thief. (For the WS
	// baseline the pushed task is immediately stealable; for the split
	// deque the woken thief finds PrivateWork and notifies, starting the
	// exposure chain — without this wake, a fully parked pool would only
	// learn about new work from insurance timers.)
	wake := w.batch && w.dq.IsEmpty()
	var grows uint64
	if w.rec != nil {
		grows = w.ctr.Get(counters.DequeGrow)
	}
	if !w.dq.TryPushBottom(t, w.ctr) {
		// At Options.MaxDequeCapacity: spill the oldest tasks to the
		// overflow list and retry.
		w.spillForPush(t)
	}
	if w.rec != nil && w.ctr.Get(counters.DequeGrow) != grows {
		w.rec.Grow(w.dq.Capacity())
	}
	if w.policy.SignalBased() {
		w.targeted.Store(false)
	}
	if wake {
		w.sched.wakeOne(w.ctr)
	}
}

// spillBatchSize is SpillOldest's scratch-buffer length: one spill
// episode moves up to this many of the deque's oldest tasks to the
// overflow list (half a KiB of pointers, allocated lazily on the first
// spill of a worker's lifetime).
const spillBatchSize = 64

// spillForPush makes room for t in a deque at its maximum capacity:
// the OLDEST tasks (the steal-side end — the ones a thief would have
// taken first) move to the worker's unbounded overflow FIFO, then the
// push is retried. Cold path of pushNoTag; a spawn tree must outgrow
// Options.MaxDequeCapacity to ever reach it.
func (w *Worker) spillForPush(t *Task) {
	if w.spillBuf == nil {
		w.spillBuf = make([]*Task, spillBatchSize)
	}
	for {
		k := w.dq.SpillOldest(w.spillBuf, w.ctr)
		if k == 0 {
			// Thieves may empty a Chase-Lev deque between the failed
			// push and the spill; then there is room. A deque still
			// full with nothing to spill means the capacity accounting
			// is broken.
			if w.dq.TryPushBottom(t, w.ctr) {
				return
			}
			panic("core: deque at maximum capacity but SpillOldest found nothing")
		}
		for i := 0; i < k; i++ {
			w.enqueueOverflow(w.spillBuf[i])
			w.spillBuf[i] = nil
		}
		w.spilled = true
		w.ctr.Add(counters.TaskSpilled, uint64(k))
		if w.rec != nil {
			w.rec.Spill(k)
		}
		if w.dq.TryPushBottom(t, w.ctr) {
			return
		}
	}
}

// enqueueOverflow appends t to the worker's overflow FIFO. The list is
// linked through Task.next, which is unused while a task is live and
// off the deque; the owner exclusively holds spilled tasks (SpillOldest
// invalidated any in-flight steal claims before handing them over).
//
//lcws:noalloc
func (w *Worker) enqueueOverflow(t *Task) {
	t.unlink()
	if w.overflowTail == nil {
		w.overflowHead = t
	} else {
		w.overflowTail.link(t)
	}
	w.overflowTail = t
}

// popOverflow removes and returns the oldest spilled task (nil when the
// overflow list is empty). Oldest-first drain preserves the deque's
// steal-side order: spilled tasks run in the order thieves would have
// taken them.
//
//lcws:noalloc
func (w *Worker) popOverflow() *Task {
	t := w.overflowHead
	if t == nil {
		return nil
	}
	w.overflowHead = t.next
	if w.overflowHead == nil {
		w.overflowTail = nil
	}
	t.unlink()
	return t
}

// nextOverflow is the overflow drain used by the work-search loops:
// popOverflow plus the aborted-job filter every other task source
// applies. It returns the next runnable spilled task, discarding dead
// jobs' tasks along the way, or nil once the overflow list is empty.
func (w *Worker) nextOverflow() *Task {
	for {
		t := w.popOverflow()
		if t == nil || !t.orphaned() {
			return t
		}
		w.discard(t)
	}
}

// popLocal is the local half of Listing 1's get_task: first the private
// part (with USLCWS's task-boundary exposure check), then the public part.
//
//lcws:noalloc
func (w *Worker) popLocal() *Task {
	if t := w.dq.PopBottom(w.ctr); t != nil {
		if w.policy.flagBased() && w.targeted.Load() {
			// Listing 1 lines 9–12: handle the notification at the
			// task boundary (USLCWS; Lace behaves the same way).
			w.targeted.Store(false)
			n := w.split.Expose(w.policy.exposeMode(), w.ctr)
			if w.rec != nil {
				w.rec.Exposed(n, w.reqTs.Swap(0))
			}
			if n > 0 && w.batch {
				w.sched.wakeOne(w.ctr)
			}
		}
		return t
	}
	if !w.policy.SplitDeque() {
		return nil // WS: the Chase-Lev deque has no public part of its own
	}
	if w.policy == LaceWS || w.batch || w.relaxed {
		// Lace: reclaim the public part wholesale instead of draining it
		// through pop_public_bottom. Batch mode mandates the same owner
		// discipline for every split-deque policy: PopPublicBottom's
		// common path removes tasks above top without touching the age
		// word, which is unsound against an in-flight PopTopHalf (a
		// stalled thief's CAS could re-claim an owner-consumed slot);
		// UnexposeAll's tag-bump CAS invalidates such claims first.
		// MultFree mandates it for a stronger reason: PopPublicBottom's
		// emptying path resets the deque's absolute indices WITHOUT
		// changing the index epoch, and the relaxed thieves' monotone
		// claim memory is only sound while an exposed absolute index is
		// never reused within an epoch (UnexposeAll reclaims are
		// tag-bumped, so reclaimed indices re-expose under a new tag,
		// which the claim protocol treats as fresh; the deque's own
		// epoch-advancing reset — resetIndices — re-arms the memories).
		if n := w.split.UnexposeAll(w.ctr); n > 0 {
			if w.rec != nil {
				w.rec.Repair(n)
			}
			if w.policy.SignalBased() {
				// §4: tasks were removed from the public part; allow
				// new notifications.
				w.targeted.Store(false)
			}
			return w.dq.PopBottom(w.ctr)
		}
		w.targeted.Store(false)
		return nil
	}
	if t := w.split.PopPublicBottom(w.ctr); t != nil {
		if w.policy.SignalBased() {
			// §4: a task was removed from the public part; allow new
			// notifications.
			w.targeted.Store(false)
		}
		return t
	}
	return nil
}

// join is the second half of a fork (Fork2 or a range split): take the
// forked sibling back from the bottom of the deque and run it inline,
// or, if it was stolen, help execute other tasks until the thief
// completes it. want is the completion stamp (seq+1) recorded at fork
// time; a seq that no longer matches it at join time means the task was
// recycled while a stale reference to it was still live, which the
// stamp turns into an immediate panic. After the join the task is
// returned to this worker's freelist.
func (w *Worker) join(rt *Task, want uint32) {
	// Signal delivery point, before the sibling is taken back: a thief
	// waiting on this worker gets the oldest private task now rather
	// than at the next Checkpoint, which a Fork2 tree may never reach.
	if w.pending.Load() {
		w.handleSignal()
	}
	for {
		t := w.popLocal()
		if t == nil {
			// rt was stolen (or exposed and then stolen); work on other
			// tasks until the thief finishes it.
			w.helpUntil(rt, want)
			break
		}
		if t.orphaned() {
			// An orphan of an aborted job — possibly rt itself, or a
			// task left above it by an unwound nested frame. Drain it
			// (the discard stamps completion, so if it was rt the join
			// is satisfied) and keep looking.
			w.discard(t)
			if t == rt {
				break
			}
			continue
		}
		if t != rt {
			// LIFO discipline guarantees rt is the bottom-most task
			// *this worker forked*: every task forked after rt was
			// joined before this join ran. In batch mode the deque can
			// additionally hold steal-batch remnants, pushed before the
			// stolen task that forked rt ran, hence below rt — so
			// popping one here proves rt itself was stolen. A worker
			// that has ever spilled gets the same relaxation: rt may
			// sit on the overflow list (spilling takes the OLDEST
			// tasks, and rt is older than everything its sibling's
			// subtree forked), with other tasks still in the deque.
			// Execute the popped task as ordinary help (completion
			// stamp and all: its forker joins on it), then wait for rt
			// — helpUntil's drain runs rt itself if it was spilled.
			if !w.batch && !w.spilled {
				panic("core: fork-join LIFO violation (bottom of deque is not the forked sibling)")
			}
			w.runTask(t)
			w.helpUntil(rt, want)
			break
		}
		if w.relaxed && t.fn == nil && !w.split.NeverExposed(t.pushStamp.Load()) {
			// MultFree: rt was exposed at some point, so a relaxed thief
			// whose plain-write claim the repair could not yet see may
			// hold it too (rt is own-forked — t == rt — so its push
			// stamp is in this deque's index domain and the exposure
			// check is exact). The execution arbitration decides: if
			// this worker wins, rt runs inline as usual; if a thief won,
			// it is executing rt right now, so help until its completion
			// stamp lands. (claimExec already accounted the duplicate on
			// the losing side.) Never-exposed siblings — the no-steal
			// common case — skip the arbitration entirely: no claimant
			// can exist, so the join path stays CAS-free, preserving the
			// Figure-3 property for MultFree's fork-join fast path.
			if !w.claimExec(t) {
				w.helpUntil(rt, want)
				break
			}
		}
		w.runInline(t)
		break
	}
	if rt.seq+1 != want {
		panic("core: forked task was recycled while its join was in flight (generation stamp mismatch)")
	}
	w.freeTask(rt)
	if testHookAfterJoin != nil {
		testHookAfterJoin(w, rt)
	}
}

// testHookAfterJoin, when non-nil, runs after every join's freeTask with
// the just-freed task. Tests use it to seed recycling-discipline
// violations (e.g. a deliberate double free) and assert they are caught.
var testHookAfterJoin func(*Worker, *Task)

// stealOnce performs one stealing-phase iteration of Listing 1: pick a
// victim and attempt pop_top, notifying the victim according to the
// policy when only private work was found. Victim selection is uniformly
// random; in batch mode a sticky victim — the last one this worker stole
// from successfully — is probed first, falling back to random once the
// sticky victim runs empty, so steal traffic follows where work actually
// is instead of re-discovering it by sampling.
//
// The claim is one of four deque calls, all landing in stealBuf: the
// single PopTop; with StealBatch, PopTopHalf, which claims up to half of
// the victim's public part with one CAS; and under MultFree their
// relaxed forms, which claim idempotent (range) tasks with plain
// read/write operations through this thief's per-victim claim memory —
// no fence, no CAS, at the cost of bounded multiplicity — and fall back
// to the exclusive CAS for a non-idempotent task at the top.
func (w *Worker) stealOnce() *Task {
	// Victims come from the pinned worker-set snapshot: inside a stable
	// epoch this is the one extra pointer load the elastic refactor is
	// allowed to cost the steal path (curSet is worker-private).
	n := len(w.curSet.slots)
	if n == 1 || w.id >= n {
		// Singleton set, or this worker was shrunk out of the live
		// prefix mid-phase (it is draining): nothing to steal from /
		// no valid "everyone but me" victim space.
		return nil
	}
	vid := -1
	if w.batch && w.sticky >= 0 && int(w.sticky) != w.id && int(w.sticky) < n {
		vid = int(w.sticky)
	}
	if vid < 0 {
		vid = w.rand.Intn(n - 1)
		if vid >= w.id {
			vid++
		}
	}
	v := w.sched.worker(vid)
	w.victimPrivate = false
	w.ctr.Inc(counters.StealAttempt)
	if w.rec != nil {
		w.rec.StealAttempt(vid)
	}
	k := 1
	var res deque.StealResult
	switch {
	case w.relaxed && w.batch:
		k, res = v.split.TakeTopHalfRelaxed(w.stealBuf[:], &w.relClaims[vid], taskIsIdempotent, taskPushStamp, w.ctr)
	case w.relaxed:
		w.stealBuf[0], res = v.split.TakeTopRelaxed(&w.relClaims[vid], taskIsIdempotent, taskPushStamp, w.ctr)
	case w.batch:
		k, res = v.dq.PopTopHalf(w.stealBuf[:], w.ctr)
	default:
		w.stealBuf[0], res = v.dq.PopTop(w.ctr)
	}
	switch res {
	case deque.Stolen:
		w.ctr.Inc(counters.StealSuccess)
		if w.batch {
			w.ctr.Add(counters.StealBatchTasks, uint64(k))
			w.sticky = int32(vid)
		}
		if w.rec != nil {
			w.rec.StealHit(vid, k)
		}
		if w.policy.SignalBased() {
			// §4: tasks were removed from the victim's public part;
			// allow new notifications to it.
			v.targeted.Store(false)
		}
		// The oldest task runs here; the remnant lands oldest-first in
		// this worker's deque — its private part on the split deque, so
		// landing costs no fences — so its LIFO pops run the remnant
		// youngest-first, as the victim would have. Remnants keep their
		// job tag and accounting.
		t := w.stealBuf[0]
		w.stealBuf[0] = nil
		for i := 1; i < k; i++ {
			r := w.stealBuf[i]
			w.stealBuf[i] = nil
			if w.relaxed {
				// Restamp in THIS deque's index domain, for its thieves'
				// slot validation, with the sticky exposed bit, so the
				// origin forker's recycling gate keeps seeing "was
				// exposed". The remnant is ours until pushNoTag; stale
				// origin-side claimants fail their validation either way.
				r.pushStamp.Store(w.split.PushStamp() | deque.StampExposed)
			}
			w.pushNoTag(r)
		}
		return t
	case deque.PrivateWork:
		// The victim holds work it hasn't exposed yet: stay sticky (the
		// notification below will make it public) and ask for exposure.
		w.ctr.Inc(counters.StealPrivate)
		w.notify(v)
	case deque.Abort:
		// Lost the race, but the victim demonstrably has public work:
		// stay sticky and retry.
		w.ctr.Inc(counters.StealAbort)
	case deque.Empty:
		// A genuine miss: batch mode falls back to random selection.
		if w.batch {
			w.sticky = -1
		}
		w.ctr.Inc(counters.StealEmpty)
	}
	return nil
}

// taskIsIdempotent is the MultFree eligibility predicate the relaxed
// steal path hands to the deque: only range tasks (fn == nil) — whose
// bodies the ParFor contract requires to tolerate re-execution — may be
// claimed without exclusion. A package-level function value allocates
// nothing at the call site, keeping the steal path noalloc.
func taskIsIdempotent(t *Task) bool { return t.fn == nil }

// taskPushStamp is the stamp accessor the relaxed steal path hands to
// the deque for its post-read validation (see deque.TakeTopRelaxed).
// Atomic: the pointer the thief validates may be stale and reference a
// descriptor its owner has recycled and re-stamped. A package-level
// function value, like taskIsIdempotent, to keep the steal path noalloc.
func taskPushStamp(t *Task) uint64 { return t.pushStamp.Load() }

// notify asks victim v to expose work, per policy:
// USLCWS sets the targeted flag unconditionally (Listing 1 line 22);
// the signal-based schedulers send an emulated signal unless one is
// already outstanding (Listing 3 lines 8–11), with the Conservative
// variant additionally requiring the victim to hold at least two tasks.
//
// The signal-based arms claim the targeted flag with a CAS rather than a
// load-then-store: two thieves racing the plain-load check could both
// observe !targeted and both send, double-counting SignalSent and (in
// the C++ reference) issuing a redundant pthread_kill. The CAS admits
// exactly one sender per targeted window, which is what makes the
// SignalSent >= SignalHandled counter invariant exact.
func (w *Worker) notify(v *Worker) {
	// Every caller found v holding private work: an exposure is at most
	// one delivery point away, so idleBackoff keeps this thief awake.
	w.victimPrivate = true
	switch w.policy {
	case USLCWS, LaceWS:
		w.traceExposeReq(v)
		v.targeted.Store(true)
	case SignalLCWS, HalfLCWS, MultFree, ConsLCWS:
		if (w.policy != ConsLCWS || v.split.HasTwoTasks()) && v.targeted.CompareAndSwap(false, true) {
			w.traceSignalSend(v)
			v.pending.Store(true)
			w.ctr.Inc(counters.SignalSent)
		}
	}
}

// traceExposeReq records an exposure request against victim v and
// stamps v's request word (CAS from zero: the first requester of a
// targeted window anchors the flag-to-exposure latency). No-op when
// tracing is off.
func (w *Worker) traceExposeReq(v *Worker) {
	if w.rec == nil {
		return
	}
	ts := w.rec.ExposeRequest(v.id)
	v.reqTs.CompareAndSwap(0, ts)
}

// traceSignalSend records the emulated signal to victim v and stamps
// v's signal word; the caller is the CAS winner of v's targeted window
// and invokes this before setting v.pending, so the victim's handler
// observes the stamp. No-op when tracing is off.
func (w *Worker) traceSignalSend(v *Worker) {
	if w.rec == nil {
		return
	}
	w.traceExposeReq(v)
	v.sigSendTs.Store(w.rec.SignalSend(v.id))
}

// Idle-backoff schedule (in-job; between jobs idlePhase parks right
// after the spin burst): a short burst of pure spins keeps steal latency
// minimal when work is about to appear, a window of cooperative yields
// lets victims run on oversubscribed hosts, and beyond that the worker
// parks in exponentially growing sleeps (capped) so a mostly-idle pool
// stops burning CPU. The ladder resets whenever the worker finds work.
// Two waits never go past the yield window while every worker of the
// pool can hold a processor (live workers <= GOMAXPROCS): a thief whose
// last attempt found private work (the exposure it requested is
// microseconds away, while time.Sleep can overshoot a 20 µs request to a
// millisecond), and a join's help loop (its completion stamp has no wake
// event). In an oversubscribed pool a waiter that keeps yielding holds a
// processor the victim or the awaited sibling needs, so both fall back
// to the sleep ladder.
const (
	idleSpinIters  = 8
	idleYieldIters = 256
	idleSleepMin   = 20 * time.Microsecond
	idleSleepMax   = time.Millisecond
)

// idleBackoff is called after a work-search iteration that found nothing.
// Blocked time (sleeping or parked) is accounted to the ParkedNanos
// counter so idle cost shows up in profiles separately from busy idle
// iterations. mayBlock is false in a join's help loop, which never
// parks (no wake event reaches it) and, unless the pool is
// oversubscribed, never sleeps; the top-level loop passes true and, past
// the yield window and with no private work seen (or oversubscribed),
// parks on the event-driven parking lot in StealBatch mode or takes the
// blind capped sleep otherwise.
func (w *Worker) idleBackoff(mayBlock bool) {
	w.ctr.Inc(counters.IdleIteration)
	// Idle is the cheap moment to adopt a resize: re-pinning here keeps
	// a long busy phase from holding an old epoch hostage (blocking
	// reclamation) and lets this thief see victims a grow just added.
	// On a stable epoch this is two loads of the same hot pointer.
	w.pin()
	w.idleSpins++
	switch {
	case w.idleSpins <= idleSpinIters:
		// Spin again immediately.
	case w.idleSpins <= idleSpinIters+idleYieldIters:
		runtime.Gosched()
	case (w.victimPrivate || !mayBlock) && len(w.curSet.slots) <= runtime.GOMAXPROCS(0):
		runtime.Gosched()
	case w.batch && mayBlock:
		w.park()
	default:
		d := max(w.idleSleep, idleSleepMin)
		var pstart int64
		if w.rec != nil {
			pstart = w.rec.ParkStart(0)
		}
		start := time.Now()
		time.Sleep(d)
		w.ctr.Add(counters.ParkedNanos, uint64(time.Since(start)))
		if w.rec != nil {
			w.rec.ParkEnd(0, pstart)
		}
		w.idleSleep = min(2*d, idleSleepMax)
	}
}

// park blocks the worker on its parking semaphore until a work event
// wakes it or the insurance timer (idleSleepMax) fires.
//
// Wakeup ordering — why a parked thief cannot miss an exposure: the
// parker (1) sets its bit in the parking-lot bitset with a seq-cst RMW,
// then (2) re-checks for finish/signals/public work and bails out if any
// is found. A producer (3) publishes work with a seq-cst store (Expose's
// publicBot store, PushBottom's bot store), then (4) scans the bitset
// and wakes a claimed worker. Interleave them: if the parker's re-check
// (2) misses the work, the check ran before the publish (3) in the
// seq-cst total order, so the bit-set (1) — which precedes (2) — also
// precedes the producer's scan (4), which therefore observes the bit
// and posts the semaphore. Either the parker sees the work, or the
// producer sees the parker; a sleep through a wake event is impossible.
// The timer is insurance for the one chain no wake event covers (work
// that stays private because its owner's targeted flag was already set
// when the pool parked), bounding worst-case steal latency at
// idleSleepMax — exactly the old ladder's cap.
func (w *Worker) park() {
	w.dropWakeToken()
	w.sched.setParked(w.id)
	if w.sched.closed.Load() || w.pending.Load() || w.anyPublicWork() {
		w.sched.clearParked(w.id)
		return
	}
	w.ctr.Inc(counters.ParkCount)
	var pstart int64
	if w.rec != nil {
		pstart = w.rec.ParkStart(1)
	}
	start := time.Now()
	w.sleepParked(idleSleepMax)
	w.ctr.Add(counters.ParkedNanos, uint64(time.Since(start)))
	if w.rec != nil {
		w.rec.ParkEnd(1, pstart)
	}
}

// dropWakeToken discards a wakeup token left on the parking semaphore.
// One can linger from a wake that raced a previous timeout; a parker
// drops it before setting its park bit, so it cannot satisfy the new
// round's wait early (no waker can target the round before the bit is
// set).
func (w *Worker) dropWakeToken() {
	select {
	case <-w.parkSem:
	default:
	}
}

// sleepParked is the blocking half of a park round, shared by the
// in-job park and the between-jobs park of idlePhase: with this
// worker's park bit set and the caller's re-check passed, it waits for
// a waker's token or the timeout, whichever comes first, then clears
// the bit. It reports whether the timeout ended the wait.
func (w *Worker) sleepParked(timeout time.Duration) (timedOut bool) {
	if w.parkTimer == nil {
		w.parkTimer = time.NewTimer(timeout)
	} else {
		w.parkTimer.Reset(timeout)
	}
	select {
	case <-w.parkSem:
	case <-w.parkTimer.C:
		timedOut = true
	}
	if !w.parkTimer.Stop() {
		// Timer already fired; drain its channel if the wakeup came
		// from the semaphore (pre-1.23 timer discipline).
		select {
		case <-w.parkTimer.C:
		default:
		}
	}
	w.sched.clearParked(w.id)
	return timedOut
}

// anyPublicWork reports whether any other worker's deque (racily) holds
// stealable work; park uses it as the pre-park re-check. It scans the
// current snapshot's live prefix — draining slots past it are already
// re-homing their work through the orphan path, and a racy miss is
// covered by the insurance timer like any other private-work chain.
func (w *Worker) anyPublicWork() bool {
	for i := range w.curSet.slots {
		if i != w.id && w.sched.worker(i).dq.HasPublicWork() {
			return true
		}
	}
	return false
}

// helpUntil implements Listing 1's get_task for a fork's join point: it
// runs scheduler work until the awaited task's completion stamp reaches
// want. Instead of blocking, the worker keeps executing local and stolen
// tasks (work-first helping), so a stolen sibling's completion is
// detected promptly and no worker idles while work exists. Threading
// the awaited task instead of a stop closure keeps the fork join path
// allocation-free (a captured predicate would heap-allocate per fork).
// Unlike the top-level resident loop (busyPhase), join helping does not
// poll the injector: picking up a whole new job inside a join would
// reset the poll phase and nest arbitrarily deep work under the waiter.
// The one deliberate exception is the QoS preemption point inside
// Checkpoint: a queued job of a strictly more urgent class whose stride
// turn has come runs nested here too — that nesting is bounded by the
// class count and its latency cost to the waiter is the point of the
// priority system.
func (w *Worker) helpUntil(join *Task, want uint32) {
	for !join.isDone(want) {
		w.Checkpoint()
		// A spilled awaited task comes back through localWork's
		// overflow drain, which runs it and stamps its completion.
		t, found := w.localWork(false)
		if !found {
			t, found = w.stealWork()
		}
		if t != nil {
			w.runTask(t)
		} else if !found {
			// Joins never block: the awaited completion stamp is a plain
			// store with no wakeup event attached.
			w.idleBackoff(false)
		}
	}
}

// localWork and stealWork are the work-search sequence of Listing 1's
// get_task, shared by the join-help loop (helpUntil) and the resident
// loop (busyPhase), which differ only in what runs between them (injector
// pickup and retirement, top level only) and in how they exit. Each
// returns found = true when it made progress: a task to run (t != nil),
// or an aborted job's task discarded (t == nil), after which the caller
// re-runs its loop checks. found = false means the source is dry.
//
// localWork takes one task from this worker's deque, then from its
// overflow list: the deque is drained before spilled tasks run, and both
// before this worker steals. With skipEmpty, popLocal is skipped on a
// deque IsEmpty reports empty, which keeps busyPhase's idle iterations
// free of counter writes (popLocal on an emptied split deque accounts
// fences, perturbing the per-policy counting models with idle-loop
// noise).
func (w *Worker) localWork(skipEmpty bool) (t *Task, found bool) {
	if !skipEmpty || !w.dq.IsEmpty() {
		if t := w.popLocal(); t != nil {
			if t.orphaned() {
				w.discard(t)
				return nil, true
			}
			w.resetIdle()
			if w.rec != nil {
				w.rec.LocalWork()
			}
			return t, true
		}
	}
	if t := w.nextOverflow(); t != nil {
		w.resetIdle()
		return t, true
	}
	return nil, false
}

// stealWork makes one steal attempt (see localWork).
func (w *Worker) stealWork() (t *Task, found bool) {
	if w.rec != nil && w.idleSpins == 0 {
		// First fruitless local pop of this idle episode.
		w.rec.DequeEmpty()
	}
	if w.policy.flagBased() {
		// Listing 1 line 17: nothing local to expose; clear the
		// notification before entering the stealing phase.
		w.targeted.Store(false)
	}
	t = w.stealOnce()
	if t == nil {
		return nil, false
	}
	if t.orphaned() {
		w.discard(t)
		return nil, true
	}
	w.resetIdle()
	return t, true
}

// residentLoop is a resident worker's top-level state machine: it
// alternates between the counter-free idle phase (no jobs anywhere;
// deep-parked on the parking lot) and the busy phase (the paper's
// work-stealing loop, active while jobs are in flight). It returns —
// ending the worker goroutine — only when the scheduler is closed and
// fully drained.
func (w *Worker) residentLoop() {
	for {
		if w.idlePhase() {
			return
		}
		w.busyPhase()
	}
}

// deepParkInsurance is the between-jobs park timeout. Every state
// change that can end the idle phase (Submit, settle, cancellation,
// Close) wakes the pool explicitly, so this timer is pure insurance;
// it is much longer than the in-job cap because there is no steal
// latency to bound between jobs.
const deepParkInsurance = 100 * time.Millisecond

// idlePhase holds the worker between jobs. It returns true when the
// worker must exit (scheduler closed and drained), false when work may
// exist again (a job was submitted or is still active). It spins
// idleSpinIters times, then parks with no yield window: every event
// that ends the phase wakes the pool, and yields would only take CPU
// from submitters. The phase is deliberately free of counter and trace
// writes: an idle executor mutates no instrumentation, so Stats taken
// between jobs are stable and the per-policy counting models see only
// in-job events.
func (w *Worker) idlePhase() bool {
	s := w.sched
	spins := 0
	for {
		if w.retiring() {
			// Shrunk out of the live set with no local work left:
			// complete retirement and end the goroutine. On CAS failure
			// the slot was re-admitted by a concurrent grow — resume
			// normal idling (the loop re-checks everything).
			if w.tryRetire() {
				return true
			}
			continue
		}
		if s.closed.Load() {
			// The closed load precedes the activeJobs load: a Submit
			// that observed the scheduler open incremented activeJobs
			// before our closed load (seq-cst total order), so we
			// cannot miss its job here and exit early.
			return s.activeJobs.Load() == 0 && s.inj.Empty()
		}
		if s.activeJobs.Load() > 0 || !s.inj.Empty() {
			return false
		}
		if spins++; spins <= idleSpinIters {
			continue // spin: the next job is often right behind the last
		}
		// Park until a state change wakes the pool. Same Dekker
		// ordering as the in-job park: the bit is set (seq-cst RMW)
		// before the wake conditions are re-checked, and producers
		// (Submit's inj.Push, settle, Close) publish their state
		// change before wakeAll, so a submission cannot sleep
		// through a fully parked pool. Unlike park, this records no
		// counters or trace events — between-jobs idleness belongs
		// to no job's profile.
		w.dropWakeToken()
		s.setParked(w.id)
		timedOut := false
		if s.closed.Load() || s.activeJobs.Load() > 0 || !s.inj.Empty() {
			s.clearParked(w.id)
		} else {
			timedOut = w.sleepParked(deepParkInsurance)
		}
		if timedOut && s.activeJobs.Load() == 0 && s.inj.Empty() && !s.closed.Load() {
			// The park ran its full insurance window with no wake and
			// the pool is still idle: sustained idleness, the elastic
			// retire-on-idle trigger. A woken worker re-parks for a
			// fresh window instead: workers park right after a job
			// now, so the wakes of the job's last settlements would
			// otherwise retire a demand-grown pool straight away.
			s.maybeRetireIdle()
		}
	}
}

// busyPhase is the in-job work loop: the seed scheduler's helper loop
// extended with injector pickup and orphan draining. The worker stays
// here while any job is active (or its own deque holds tasks),
// executing local work, starting queued jobs, and stealing; it leaves
// — after draining its deque — once the pool has no active jobs. The
// enclosing busy counter is what the counter readers' quiesce spins
// on: its release/acquire pair publishes this worker's counter and
// trace writes to them.
func (w *Worker) busyPhase() {
	s := w.sched
	s.busy.Add(1)
	// Pin the worker-set snapshot for the phase: one pointer load (plus
	// a validation re-load) on entry, zero on the per-fork path. While
	// pinned, the resizer cannot reclaim any slot of this epoch, so
	// every victim index this worker derives from curSet stays valid.
	// idleBackoff re-pins, so long busy phases still adopt new sets and
	// release old epochs for reclamation.
	w.pin()
	for {
		// The exit check runs before Checkpoint: a worker that slips
		// into the busy phase just after the last job settled must
		// leave without touching counters — Checkpoint may handle a
		// signal left pending by the settled job, and that counter
		// write would be unordered with a waiter's post-Wait reads.
		if s.activeJobs.Load() == 0 && w.dq.IsEmpty() && w.overflowHead == nil {
			break
		}
		w.Checkpoint()
		// Local and spilled work run before new jobs are picked up or
		// victims robbed (spilled tasks also gate the exit check above,
		// so a worker never parks — or leaves the busy phase — holding
		// them).
		t, found := w.localWork(true)
		if !found {
			if w.retiring() {
				// Shrunk out of the live set: finish draining local work
				// (loop back for it) but pick up nothing new — no
				// injector jobs, no steals — so the slot quiesces and
				// idlePhase can complete retirement. Thieves and the
				// orphan path re-home whatever this deque still exposes.
				if w.dq.IsEmpty() {
					break
				}
				continue
			}
			if j, ok := s.inj.TryPop(); ok {
				w.resetIdle()
				w.startJob(j)
				continue
			}
			if s.activeJobs.Load() == 0 {
				// Either orphans of failed jobs remain (loop back to
				// drain them through localWork) or the deque is empty
				// and the top-of-loop check exits.
				continue
			}
			t, found = w.stealWork()
		}
		if t != nil {
			w.runTask(t)
		} else if !found {
			w.idleBackoff(true)
		}
	}
	w.unpin()
	s.busy.Add(-1)
}

// startJob begins executing a job popped from the injector: this
// worker runs the job's root task (and, transitively, everything the
// job forks that is not stolen), then settles the job — by the
// fork-join structure, the root's return implies every task the job
// created has completed. The poll phase, yield cadence, and idle
// ladder are reset first so a job's signal-delivery timing is a
// deterministic function of the job itself, not of whatever the worker
// did before (the seed scheduler made the same guarantee via
// resetForRun).
func (w *Worker) startJob(j *Job) {
	// Queue-to-pickup latency, per class: the QoS fairness bound is
	// stated over this histogram, so it is recorded on every pickup
	// (injector-pop and checkpoint-yield alike), tracing or not.
	w.sched.observeInjectorWait(j)
	if j.aborted.Load() {
		// Cancelled (or failed) before any worker picked it up: drain
		// the root, which also settles the job.
		w.discard(&j.root) //lcws:presync address-of only; this worker owns the job after the locked injector pop
		return
	}
	w.pollCount = 0
	w.sinceYield = 0
	w.resetIdle()
	w.pin() // run the job against the freshest worker-set snapshot
	if sh := w.shardOf(j); sh != nil {
		sh.created++ // the root task counts toward the job's accounting
	}
	w.runTask(&j.root) //lcws:presync address-of only; this worker owns the job after the locked injector pop
	j.settle()
}
