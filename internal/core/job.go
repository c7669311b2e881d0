package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lcws/internal/counters"
)

// Errors surfaced through Job.Err / Run.
var (
	// ErrSchedulerClosed is returned for jobs submitted after Close.
	ErrSchedulerClosed = errors.New("lcws: scheduler closed")
	// ErrQueueFull is returned for jobs submitted with AdmitFail whose
	// class admission queue (Options.ClassCapacity) was at capacity;
	// the job never entered the queue.
	ErrQueueFull = errors.New("lcws: submission queue full")
	// ErrJobInvariant wraps a post-job scheduler invariant violation
	// (e.g. a healthy job that left tasks behind). It indicates a
	// scheduler bug, not a user error; it is an error rather than a
	// panic so one suspect job does not take down the pool.
	ErrJobInvariant = errors.New("lcws: scheduler invariant violated")
)

// errJobAborted is the sentinel panic used to unwind a worker out of an
// aborted job's task spine (context cancellation or a task panic
// elsewhere in the job). It never escapes the worker loop: taskDone
// swallows it at the task boundary after the usual bookkeeping.
var errJobAborted = errors.New("lcws: job aborted (internal unwind sentinel)")

// jobShard is one worker's slice of a job's task accounting, padded so
// two workers never contend on one cache line. created counts tasks
// this worker pushed for the job (plus 1 on the worker that ran the
// root); completed counts tasks of the job this worker executed or
// discarded. Each shard is owner-written, unsynchronized; the sums are
// read only at job finalization, after every worker has left the job
// (see Job.settle for why that read is race-free on the healthy path).
//
//lcws:manifest
type jobShard struct {
	created   uint64 //lcws:field thief-shared — owner-written; read at settlement under fork-join transitive happens-before
	completed uint64 //lcws:field thief-shared — same settlement protocol as created
	_         [48]byte
}

// JobStats describes one finished job.
type JobStats struct {
	// Tasks is the number of tasks the job created (root included).
	Tasks uint64
	// Discarded is how many of those were drained unexecuted because
	// the job failed or was cancelled.
	Discarded uint64
	// Duration is the wall-clock time from submission to settlement
	// (queueing included).
	Duration time.Duration
	// Class is the job's priority class.
	Class JobClass
}

// Job is a unit of submission to a Scheduler: one root task plus
// everything it transitively forks. Obtain one from Submit;
// Wait for it with Wait (or the Done channel), then inspect Err and
// Stats. A Job is settled exactly once; all accessors are safe from
// any goroutine after Wait/Done.
//
//lcws:manifest
type Job struct {
	id    uint64     //lcws:field immutable
	sched *Scheduler //lcws:field immutable

	// root is the job's root task, embedded rather than drawn from a
	// worker freelist: the submitting goroutine is no worker, and the
	// drain path must never recycle it into a freelist either.
	root Task //lcws:field thief-shared — the Task manifest and the publication presyncs govern it

	// aborted flips once when the job fails (task panic, cancellation);
	// workers then discard the job's remaining tasks instead of running
	// them, and Poll checkpoints unwind out of its running tasks.
	aborted atomic.Bool //lcws:field atomic

	// firstErr records the job's first failure cause; settle reads it.
	errOnce sync.Once //lcws:field atomic
	failErr error     //lcws:field guarded(errOnce)

	// drained counts tasks of this job discarded unexecuted.
	drained atomic.Uint64 //lcws:field atomic

	done       chan struct{} //lcws:field immutable — closed exactly once by settle
	settleOnce sync.Once     //lcws:field atomic
	err        error         //lcws:field thief-shared — written in settle, read after Done's close edge
	stats      JobStats      //lcws:field thief-shared — same done-channel protocol as err

	// shards is the per-worker task accounting, indexed by worker id.
	shards []jobShard //lcws:field thief-shared — set at submit (presync), shard words owner-written

	// stop detaches the context watcher (context.AfterFunc); nil when
	// the job was submitted without a context.
	stop func() bool //lcws:field guarded(settleOnce)

	start time.Time //lcws:field immutable

	// QoS placement: the job's priority class and within-class weight,
	// fixed at submission; enqueued is stamped just before the injector
	// push and read by the picking worker for the class's injector-wait
	// histogram.
	class    JobClass  //lcws:field immutable
	weight   int       //lcws:field immutable
	enqueued time.Time //lcws:field thief-shared — written before inj.Push publishes the job; read by the picking worker after the locked pop
}

// Class returns the job's priority class.
func (j *Job) Class() JobClass { return j.class }

// Weight returns the job's within-class weight.
func (j *Job) Weight() int { return j.weight }

// fail records cause as the job's failure and flips it to aborted.
// First caller wins; safe from any goroutine.
func (j *Job) fail(cause error) {
	j.errOnce.Do(func() { j.failErr = cause })
	j.aborted.Store(true)
}

// Done returns a channel closed when the job has settled.
func (j *Job) Done() <-chan struct{} { return j.done }

// Err returns the job's outcome: nil on success, a *TaskPanic-wrapped
// error if a task panicked, the context's error if cancelled, or an
// ErrJobInvariant-wrapped error if the job violated scheduler
// invariants. Valid only after Wait/Done.
func (j *Job) Err() error { return j.err }

// Stats returns the job's task accounting and duration. Valid only
// after Wait/Done. When several jobs overlap in time the scheduler-wide
// Stats deltas mix their work; per-job task counts here stay exact for
// successful jobs. For failed jobs Discarded reflects the drains
// observed so far: orphans can trail settlement, so Stats quiesces the
// pool first (complete on an otherwise-idle scheduler).
func (j *Job) Stats() JobStats {
	st := j.stats
	if j.err != nil {
		j.sched.quiesce()
		if d := j.drained.Load(); d > st.Discarded {
			st.Discarded = d
		}
	}
	return st
}

// Wait blocks until the job settles and returns Err. Workers still
// leaving their busy phase do not delay it: Scheduler.Stats/Counters
// wait for them instead (see quiesce), so they stay exact after Wait.
func (j *Job) Wait() error {
	<-j.done
	return j.err
}

// settle finalizes the job exactly once: it verifies the job's
// accounting invariants (healthy jobs only), computes stats, releases
// the context watcher, and wakes the pool so idle workers re-evaluate
// the executor state. Called by the worker that ran the job's root to
// completion (or discarded it), or by submit when rejecting a job.
//
// The shard reads below are race-free on the healthy path: every shard
// write happened on a worker that subsequently stamped a task of this
// job complete (a release store some join of the job observed with an
// acquire load); the chain of those fork-join edges ends at the root's
// return on the settling worker. On the aborted path concurrent
// discards of orphaned tasks can still be in flight, so settle does
// not read the shards at all — failed jobs report approximate stats
// from the atomic drain counter only.
func (j *Job) settle() {
	j.settleOnce.Do(func() {
		j.errOnce.Do(func() {}) // acquire failErr (memory-model Do edge)
		err := j.failErr
		st := JobStats{Duration: time.Since(j.start), Class: j.class}
		if err == nil {
			var created, completed uint64
			for i := range j.shards {
				created += j.shards[i].created
				completed += j.shards[i].completed
			}
			discarded := j.drained.Load()
			// The former "deque non-empty after Run" panic, scoped to
			// this job and surfaced as an error: every task the job
			// created must have been executed, and none discarded.
			if completed != created || discarded != 0 {
				err = fmt.Errorf("%w: job %d created %d tasks, completed %d, discarded %d",
					ErrJobInvariant, j.id, created, completed, discarded)
			}
			st.Tasks = created
			st.Discarded = discarded
		} else {
			st.Discarded = j.drained.Load()
		}
		j.stats = st
		j.err = err
		if j.stop != nil {
			j.stop()
			j.stop = nil
		}
		s := j.sched
		if err == nil {
			s.jobsCompleted.Add(1)
		} else {
			s.jobsFailed.Add(1)
		}
		s.recordJobSpan(j, err != nil)
		// Drop the executor's reference count before waking waiters:
		// quiesce spins only while activeJobs is zero, so if done were
		// closed first a Stats after Wait could observe this settled job
		// still counted active, skip quiescing, and read counters while
		// workers are mid-steal. The settling worker is still inside
		// busyPhase (busy > 0), so quiesce waits for every worker anyway.
		s.activeJobs.Add(-1)
		close(j.done)
		s.wakeAll()
	})
}

// discard drains one orphaned task of an aborted job without executing
// it: the completion stamp is still stored (an in-flight join of the
// dead job may spin on it) and the discard is accounted. The task is
// deliberately not freelisted here — if its forking worker's join is
// still alive it will observe the stamp and recycle the task under the
// normal single-owner discipline; orphans whose joins were unwound are
// left to the garbage collector.
func (w *Worker) discard(t *Task) {
	if w.relaxed && t.fn == nil && !w.claimExec(t) {
		// MultFree: another claimant of this range task won the
		// execution arbitration — it either ran the task or is
		// discarding it itself, and will account the completion. Our
		// copy is a duplicate (already counted by claimExec).
		return
	}
	j := t.job
	if j != nil {
		j.drained.Add(1)
		if sh := w.shardOf(j); sh != nil {
			sh.completed++
		}
	}
	w.ctr.Inc(counters.TaskDiscarded)
	t.complete()
	if j != nil && t == &j.root { //lcws:presync address identity check only; root is embedded, nothing is written
		// Discarding the root settles the job: nothing of it ran or
		// will run (roots are never in a deque; this happens only when
		// a job was cancelled before a worker picked it up).
		j.settle()
	}
}

// shardOf returns this worker's accounting shard of job j.
func (w *Worker) shardOf(j *Job) *jobShard {
	if j == nil || w.id >= len(j.shards) {
		return nil
	}
	return &j.shards[w.id]
}

// jobID returns j's id for trace tagging (0 = no job).
func jobID(j *Job) uint64 {
	if j == nil {
		return 0
	}
	return j.id
}
