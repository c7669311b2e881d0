package core

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"lcws/internal/counters"
	"lcws/internal/deque"
)

// Task is a unit of work scheduled by the worker pool. It is a small
// tagged union: a *function task* (fn != nil) runs fn, while a *range
// task* (fn == nil) executes body(w, i) for every i in [lo, hi) with
// recursive binary splitting down to grain. Range tasks are what make
// ParFor's fork path closure-free: splitting a range pushes another
// descriptor instead of allocating a closure pair per split.
//
// Tasks are recycled through per-worker freelists (newTask/freeTask) so
// the steady-state fork fast path performs no heap allocation. The
// recycling discipline is strict single-owner: the worker that forks a
// task is the only one that frees it, and only after its join observed
// completion, so an executing thief's final doneSeq store is always the
// last access to a task before it can be reused.
//
// Completion detection and the recycling generation stamp are fused into
// one word. seq is the owner-maintained generation, bumped on every
// free; an executor signals completion by storing seq+1 into the atomic
// doneSeq, and the join waits for doneSeq to reach the seq+1 it captured
// at fork time. Because every incarnation of the task waits for a
// different value, a recycled task needs no atomic reset on reallocation
// — and a *stale* doneSeq left over from a previous incarnation can
// never satisfy a later join, so the done flag of a stolen task cannot
// be observed stale. The join additionally asserts that seq itself is
// unchanged, turning any discipline violation (the task freed behind an
// in-flight join's back) into an immediate panic.
//
//lcws:manifest
type Task struct {
	// fn is the function of a plain task; nil marks a range task.
	//
	//lcws:field thief-shared — written pre-publication (prepareFn presync), read by the executor
	fn func(*Worker)

	// Range-task payload, valid when fn == nil.
	//
	//lcws:field thief-shared — written pre-publication, read by the executor
	body func(*Worker, int)
	//lcws:field thief-shared — written pre-publication, read by the executor
	lo, hi, grain int

	// doneSeq is stored (last) by the executing worker when the task
	// completes, with the value seq+1; the forking worker polls it to
	// detect completion of a stolen task.
	//
	//lcws:field atomic
	doneSeq atomic.Uint32

	// job tags the task with the Job it belongs to (nil for tasks driven
	// directly in tests without a job). Written by the pushing worker
	// before the deque publishes the task, so any thief that obtains the
	// task observes the tag; aborted-job drains filter on it.
	//
	//lcws:field thief-shared — written pre-publication, read by drains
	job *Job

	// execSeq is the MultFree execution-claim word: under the relaxed
	// policy a task may be obtained by more than one claimant (bounded
	// multiplicity), so every relaxed-eligible execution first CASes
	// execSeq from seq to seq+1 and only the winner runs the task. The
	// owner re-arms it to seq (pre-publication) when it forks a range
	// task under MultFree; untouched by every other policy.
	//
	//lcws:field atomic
	execSeq atomic.Uint32

	// pushStamp is the deque push stamp — packed (index epoch, absolute
	// index), see deque.PushStamp — written by the forking worker before
	// publication under MultFree. Relaxed thieves re-read it to validate
	// their fence-free slot loads (the slot may have been overwritten by
	// an aliased push, so a stale claimant can hold a pointer to a task
	// the owner has since recycled and re-stamped — hence atomic), and
	// the owner checks it against the exposure high-water mark at free
	// time (the recycling gate, see freeTask).
	//
	//lcws:field atomic
	pushStamp atomic.Uint64

	// Recycling state, touched only by the forking (owner) worker.
	//
	//lcws:field thief-shared — generation stamp: owner-written, executor reads it for the doneSeq store
	seq uint32
	//lcws:field owner(Worker)
	recycled bool // set while the task sits on a freelist
	//lcws:field owner(Worker)
	next *Task // freelist / overflow-list / recycle-shard link
}

// complete marks t done: the executing worker stores the completion
// stamp the forking worker's join is waiting for. It must be the
// executor's final access to t.
//
//lcws:noalloc
func (t *Task) complete() { t.doneSeq.Store(t.seq + 1) }

// isDone reports whether the incarnation of t stamped want (= seq+1 at
// fork time) has completed. The signed comparison keeps the check
// correct across the (theoretical) uint32 wrap of a very long-lived
// task's recycle count.
func (t *Task) isDone(want uint32) bool {
	return int32(t.doneSeq.Load()-want) >= 0
}

// orphaned reports whether t belongs to an aborted job; every task
// source discards such a task instead of running it.
func (t *Task) orphaned() bool { return t.job != nil && t.job.aborted.Load() }

// prepareFn arms t as a function task and returns the completion stamp
// its join must wait for. The owner calls it between newTask and push;
// the deque's publication protocol orders the write before any thief's
// read.
//
//lcws:noalloc
func (t *Task) prepareFn(fn func(*Worker)) uint32 {
	t.fn = fn
	return t.seq + 1
}

// prepareRange arms t as a range task over [lo, hi) with the given
// grain, returning the completion stamp like prepareFn. fn is already
// nil on a task fresh from newTask, which is what marks t as a range
// task.
//
//lcws:noalloc
func (t *Task) prepareRange(lo, hi, grain int, body func(*Worker, int)) uint32 {
	t.body, t.lo, t.hi, t.grain = body, lo, hi, grain
	return t.seq + 1
}

// rearmExec aligns t's execution-claim word with its current generation
// so claimExec's CAS from seq has exactly one winner for this
// incarnation. The forking worker calls it before publication under
// MultFree (see forkRange); ordered before any claimant's CAS by the
// deque's publication protocol.
//
//lcws:noalloc
func (t *Task) rearmExec() { t.execSeq.Store(t.seq) }

// claimExec arbitrates a MultFree execution claim on the range task t:
// the CAS from seq to seq+1 admits exactly one executor per incarnation,
// so a duplicate obtained through the relaxed steal path (or through the
// owner reclaiming a task whose claim it could not yet see) is absorbed
// here instead of double-counting completion. The plain seq read is safe
// because no claimant can hold a never-exposed descriptor — the relaxed
// lane's stamp validation rejects slot reads that alias onto private
// tasks, and the recycling gate (freeTask) never recycles a range task
// that was ever exposed — so for every task that reaches a claimant, seq
// is frozen after publication. (Never-exposed range tasks DO recycle;
// they just never reach this function.) Counted per the model's
// MultFreeExecCAS.
//
//lcws:noalloc
func (w *Worker) claimExec(t *Task) bool {
	s := t.seq
	w.ctr.Add(counters.CAS, counters.MultFreeExecCAS)
	if t.execSeq.CompareAndSwap(s, s+1) {
		return true
	}
	w.ctr.Inc(counters.TaskDuplicated)
	if w.rec != nil {
		w.rec.Duplicate()
	}
	return false
}

// reuse detaches t from the freelist linkage when it is popped for
// reallocation.
//
//lcws:noalloc
func (t *Task) reuse() {
	t.next = nil
	t.recycled = false
}

// link points t's list link at next; unlink clears it. The overflow and
// recycle-shard chains are threaded through these instead of writing
// t.next in place so every plain write to the link stays inside Task's
// own methods (the atomicfield discipline), mirroring reuse/recycle.
//
//lcws:noalloc
func (t *Task) link(next *Task) { t.next = next }

//lcws:noalloc
func (t *Task) unlink() { t.next = nil }

// recycle resets t's payload, advances its generation stamp, and links
// it in front of the freelist node head. Called only by freeTask on the
// owning worker.
//
//lcws:noalloc
func (t *Task) recycle(head *Task) {
	t.recycled = true
	t.seq++
	t.fn = nil
	t.body = nil
	t.job = nil
	t.next = head
}

// newTask returns a task from the worker's freelist, falling back to
// the global recycle shards and finally to a heap allocation only while
// the freelist is cold (it warms up to the live-fork high-water mark of
// this worker, bounded by freelistBound, after which the fork path
// allocates nothing). Owner-only: must be called on the worker's own
// goroutine. No atomic reset is needed — completion is
// generation-stamped, see Task.
//
//lcws:noalloc
func (w *Worker) newTask() *Task {
	t := w.freelist
	if t == nil {
		// Cold path: refill from the recycle shards or heap-allocate.
		return w.newTaskSlow()
	}
	w.freelist = t.next
	w.freelistLen--
	t.reuse()
	return t
}

// newTaskSlow is newTask's freelist-miss path: refill a batch from the
// global recycle shards, or heap-allocate while the whole pool is cold.
func (w *Worker) newTaskSlow() *Task {
	if w.refillFreelist() {
		t := w.freelist
		w.freelist = t.next
		w.freelistLen--
		t.reuse()
		return t
	}
	return &Task{}
}

// freeTask returns t to the worker's freelist and advances its
// generation. Only the worker that allocated t may free it, and only
// once its join observed completion — at that point no thief holds a
// live reference (the doneSeq store is a thief's final access). Double
// frees panic via the recycled flag. The freelist is bounded: past
// freelistBound the cold half is donated to the worker's global recycle
// shard (or released to the GC when the shard is full), so a worker
// that once ran a very wide job does not pin that high-water mark of
// tasks forever.
//
//lcws:noalloc
func (w *Worker) freeTask(t *Task) {
	if t.recycled {
		panic("core: double free of a scheduler task (recycling discipline violated)")
	}
	if w.relaxed && !w.split.NeverExposed(t.pushStamp.Load()) {
		// MultFree: a task that was ever exposed may still be referenced
		// by a stale relaxed claimant — a thief that loaded the slot and
		// is reading the task (its stamp, and fn for the idempotence
		// check; a function task then falls back to the exclusive CAS)
		// or has not yet lost the execution arbitration. Re-arming the
		// descriptor would race those reads, so once-exposed tasks are
		// never recycled — the GC reclaims them when the last claimant
		// drops its reference. Never-exposed tasks (the no-steal common
		// case) recycle as usual, which is what keeps the steady-state
		// fork path allocation-free under MultFree too.
		return
	}
	t.recycle(w.freelist)
	w.freelist = t
	w.freelistLen++
	if w.freelistLen > w.freelistBound {
		w.donateFreelist()
	}
}

// defaultFreelistBound caps each worker's task freelist
// (Options.FreelistBound when non-positive). 4096 tasks ≈ 512 KiB per
// worker of retained recycling capital — deep enough that steady
// fork-join spines never miss, small enough that a one-off very wide
// job does not pin its high-water mark of Tasks for the pool's
// lifetime.
const defaultFreelistBound = 4096

// refillBatch is how many tasks one refillFreelist call moves from a
// recycle shard onto the caller's freelist: large enough to amortize
// the shard lock over many forks, small enough not to strip a shard
// bare for the other workers.
const refillBatch = 32

// recycleShard is one slot of the scheduler's global task-recycling
// pool: a mutex-guarded chain of recycled Tasks. Each worker donates
// freelist overflow to its OWN shard (so donors never contend with each
// other) and refills from any shard on a freelist miss; both are cold
// paths, entered at most once per freelistBound/2 frees or once per
// refillBatch allocations. The trailing pad keeps neighbouring shards
// off each other's cache lines — shards sit in one contiguous slice and
// the mutex word would otherwise false-share between a donor and a
// refiller.
//
//lcws:manifest
type recycleShard struct {
	mu   sync.Mutex //lcws:field atomic — internally synchronized
	head *Task      //lcws:field guarded(mu)
	n    int        //lcws:field guarded(mu)
	_    [recycleShardPad]byte
}

const recycleShardSize = unsafe.Sizeof(sync.Mutex{}) + unsafe.Sizeof((*Task)(nil)) + unsafe.Sizeof(int(0))
const recycleShardPad = (cacheLineSize - recycleShardSize%cacheLineSize) % cacheLineSize

// donateFreelist moves the cold (oldest) half of this worker's freelist
// to its global recycle shard, keeping the hot half local. If the shard
// already holds 2×freelistBound tasks the chain is dropped for the GC
// instead — the pool-wide retained-task population stays bounded by
// 3×freelistBound×P no matter how wide past jobs were. Owner-only; the
// shard chain is spliced under the shard mutex. Cold path of freeTask.
func (w *Worker) donateFreelist() {
	keep := w.freelistBound / 2
	if keep < 1 {
		keep = 1
	}
	cut := w.freelist
	for i := 1; i < keep; i++ {
		cut = cut.next
	}
	chain := cut.next
	cut.unlink()
	n := w.freelistLen - keep
	w.freelistLen = keep
	if chain == nil {
		return
	}
	w.ctr.Add(counters.FreelistReturn, uint64(n))
	sh := &w.sched.recycle[w.id]
	sh.mu.Lock()
	if sh.n >= 2*w.freelistBound {
		sh.mu.Unlock()
		return // shard full: release the chain to the GC
	}
	tail := chain
	for tail.next != nil {
		tail = tail.next
	}
	tail.link(sh.head)
	sh.head = chain
	sh.n += n
	sh.mu.Unlock()
}

// refillFreelist moves up to refillBatch recycled tasks from the global
// recycle shards onto this worker's freelist, scanning round-robin from
// the worker's own shard. It reports whether any task was obtained.
// Owner-only; cold path of newTask.
func (w *Worker) refillFreelist() bool {
	shards := w.sched.recycle
	for i := 0; i < len(shards); i++ {
		sh := &shards[(w.id+i)%len(shards)]
		sh.mu.Lock()
		head := sh.head
		if head == nil {
			sh.mu.Unlock()
			continue
		}
		tail := head
		n := 1
		for n < refillBatch && tail.next != nil {
			tail = tail.next
			n++
		}
		sh.head = tail.next
		sh.n -= n
		sh.mu.Unlock()
		tail.unlink()
		w.freelist = head
		w.freelistLen = n
		w.ctr.Add(counters.FreelistRefill, uint64(n))
		return true
	}
	return false
}

// taskDeque is what a worker needs from its deque under every policy:
// the owner's push, pop and spill, the thieves' single and batched
// claims, and the emptiness probes. Both deque types implement it
// directly. The split deque's extra operations (exposure, public-part
// reclaim, MultFree's relaxed claims and push stamps) are reached
// through Worker.split, which is nil under WS.
type taskDeque interface {
	// TryPushBottom pushes, growing the array as needed, but returns
	// false instead of panicking when the deque is at its maximum
	// capacity; the worker then spills via SpillOldest.
	TryPushBottom(*Task, *counters.Worker) bool
	// SpillOldest removes up to len(out) of the OLDEST tasks (the
	// steal-side end) into out, returning how many were taken. Owner-only.
	SpillOldest([]*Task, *counters.Worker) int
	// Capacity is the current (grown) task-array capacity in slots.
	Capacity() int
	PopBottom(*counters.Worker) *Task
	PopTop(*counters.Worker) (*Task, deque.StealResult)
	PopTopHalf([]*Task, *counters.Worker) (int, deque.StealResult)
	HasPublicWork() bool
	IsEmpty() bool
	// Teardown releases a grown task array back to the initial capacity,
	// preserving indices/age/epoch so stale thief state (sticky victims,
	// MultFree relaxed-claim cursors) stays sound. Epoch-guarded: called
	// only on an empty deque whose owner goroutine has exited and whose
	// epoch has quiesced (see core.reclaimSlot).
	Teardown()
}

var (
	_ taskDeque = (*deque.ChaseLev[Task])(nil)
	_ taskDeque = (*deque.SplitDeque[Task])(nil)
)
