// Package core is a miniature stand-in for lcws/internal/core with
// seeded owneronly violations. The import path (via the testdata/src
// overlay) matches the real package, so the analyzer's field
// identification applies unchanged.
package core

import "unsafe"

type taskDeque interface {
	PushBottom(int)
	PopBottom() int
	PopTop() int
	PopTopHalf([]int) int
	HasPublicWork() bool
	IsEmpty() bool
	Teardown()
	Mystery()
}

// SplitDeque stands in for the split deque the split field reaches:
// the split-only owner and thief operations.
type SplitDeque struct{}

func (d *SplitDeque) PopPublicBottom() int    { return 0 }
func (d *SplitDeque) Expose() int             { return 0 }
func (d *SplitDeque) UnexposeAll() int        { return 0 }
func (d *SplitDeque) PushStamp() uint64       { return 0 }
func (d *SplitDeque) HasTwoTasks() bool       { return false }
func (d *SplitDeque) TakeTopRelaxed() int     { return 0 }
func (d *SplitDeque) TakeTopHalfRelaxed() int { return 0 }
func (d *SplitDeque) Enigma()                 {}

type Task struct {
	next *Task
}

// Recorder stands in for internal/trace.Recorder: owner-path recording
// methods plus the thief-safe snapshot readers.
type Recorder struct{}

func (r *Recorder) Fork()                               {}
func (r *Recorder) TaskEnd()                            {}
func (r *Recorder) JobSwitch(id uint32)                 {}
func (r *Recorder) Tail(n int) []int                    { return nil }
func (r *Recorder) Snapshot(worker int) ([]int, uint64) { return nil, 0 }
func (r *Recorder) Hist(which int) int                  { return 0 }
func (r *Recorder) ResetHists()                         {}
func (r *Recorder) ReleaseRing()                        {}
func (r *Recorder) EnsureRing()                         {}
func (r *Recorder) Mystery()                            {}

type Job struct{ id uint64 }
type jobShard struct{ created, completed uint64 }

type Worker struct {
	id       int
	dq       taskDeque
	split    *SplitDeque
	freelist *Task
	rec      *Recorder
	curJob   *Job
	curShard *jobShard
}

func NewWorker(dq taskDeque, sd *SplitDeque) *Worker {
	w := &Worker{}
	w.dq = dq           // ok: initialization write before the owner goroutine starts
	w.split = sd        // ok: initialization write
	w.rec = &Recorder{} // ok: initialization write
	return w
}

func (w *Worker) ownerLoop() int {
	w.dq.PushBottom(1)
	if w.dq.IsEmpty() {
		return 0
	}
	return w.dq.PopBottom()
}

func (w *Worker) steal(v *Worker) int {
	if v.split.HasTwoTasks() { // ok: thief-safe on a victim
		return v.dq.PopTop()
	}
	return v.split.TakeTopRelaxed() // ok: the relaxed claim is thief-safe
}

func (w *Worker) exposeOwn() int {
	w.split.PushStamp() // ok: owner-only on the receiver
	return w.split.Expose()
}

func (w *Worker) badSplitVictim(v *Worker) int {
	return v.split.Expose() // want `owner-only deque method Expose called on v, which is not the owning receiver w`
}

func (w *Worker) badSplitAlias() {
	d := w.split // want `split field must not be aliased`
	_ = d
}

func (w *Worker) unclassifiedSplit() {
	w.split.Enigma() // want `deque method Enigma is not classified as owner-only, thief-safe, or epoch-guarded`
}

func (w *Worker) stealBatch(v *Worker, buf []int) int {
	if !v.dq.HasPublicWork() { // ok: thief-safe parking-lot pre-check on a victim
		return 0
	}
	n := v.dq.PopTopHalf(buf)         // ok: the batched claim is thief-safe (single CAS)
	n += v.split.TakeTopHalfRelaxed() // ok: the batched relaxed claim is thief-safe
	for i := 1; i < n; i++ {
		w.dq.PushBottom(buf[i]) // ok: the remnant lands in the thief's own deque
	}
	return n
}

func (w *Worker) badVictim(v *Worker) int {
	return v.dq.PopBottom() // want `owner-only deque method PopBottom called on v, which is not the owning receiver w`
}

func (w *Worker) badBatchLanding(v *Worker, task int) {
	v.dq.PushBottom(task) // want `owner-only deque method PushBottom called on v, which is not the owning receiver w`
}

func (w *Worker) badClosure() func() {
	return func() {
		w.split.Expose() // want `owner-only deque method Expose called inside a function literal`
	}
}

func (w *Worker) badAlias() {
	d := w.dq // want `dq field must not be aliased`
	_ = d
}

func (w *Worker) badMethodValue() func() int {
	return w.split.PopPublicBottom // want `must be called directly, not bound as a method value`
}

func (w *Worker) unclassified() {
	w.dq.Mystery() // want `not classified as owner-only, thief-safe, or epoch-guarded`
}

func (w *Worker) newTask() *Task { // ok: owner-local freelist pop on the receiver
	t := w.freelist
	if t == nil {
		return &Task{}
	}
	w.freelist = t.next
	t.next = nil
	return t
}

func (w *Worker) layoutQuery() uintptr {
	return unsafe.Offsetof(w.dq) + unsafe.Offsetof(w.freelist) // ok: Offsetof does not evaluate its operand
}

func (w *Worker) badFreelistVictim(v *Worker) *Task {
	return v.freelist // want `owner-only field freelist accessed on v, which is not the owning receiver w`
}

func (w *Worker) badFreelistClosure() func() {
	return func() {
		w.freelist = nil // want `owner-only field freelist accessed inside a function literal`
	}
}

func (w *Worker) badFreelistAddr() **Task {
	return &w.freelist // want `freelist field must not have its address taken`
}

func badFreelistFree(w *Worker, t *Task) {
	t.next = w.freelist // want `owner-only field freelist accessed outside a Worker method`
	w.freelist = t      // want `owner-only field freelist accessed outside a Worker method`
}

func (w *Worker) setJob(j *Job, sh *jobShard) { // ok: owner-local job-context switch
	w.curJob = j
	w.curShard = sh
	if w.rec != nil {
		w.rec.JobSwitch(0) // ok: owner-path recording on the receiver
	}
}

func (w *Worker) pushTag() *Job { // ok: owner-local reads on the receiver
	if sh := w.curShard; sh != nil {
		sh.created++
	}
	return w.curJob
}

func (w *Worker) badJobVictim(v *Worker) *Job {
	return v.curJob // want `owner-only field curJob accessed on v, which is not the owning receiver w`
}

func (w *Worker) badShardClosure() func() {
	return func() {
		w.curShard = nil // want `owner-only field curShard accessed inside a function literal`
	}
}

func (w *Worker) badJobAddr() **Job {
	return &w.curJob // want `curJob field must not have its address taken`
}

func badJobFreeFunction(w *Worker) {
	w.curShard = nil // want `owner-only field curShard accessed outside a Worker method`
}

func (w *Worker) badRecJobVictim(v *Worker) {
	v.rec.JobSwitch(1) // want `owner-only recorder method JobSwitch called on v, which is not the owning receiver w`
}

func (w *Worker) traceFork() {
	if w.rec != nil { // ok: nil comparison is the disabled-tracing fast path
		w.rec.Fork() // ok: owner-path recording on the receiver
	}
}

func (w *Worker) taskDone() {
	w.rec.TaskEnd()   // ok: named deferred method, still the receiver
	_ = w.rec.Tail(4) // ok: owner-side tail read for a panic report
}

func (w *Worker) badRecVictim(v *Worker) {
	v.rec.Fork() // want `owner-only recorder method Fork called on v, which is not the owning receiver w`
}

func (w *Worker) badRecClosure() func() {
	return func() {
		w.rec.TaskEnd() // want `owner-only recorder method TaskEnd called inside a function literal`
	}
}

func (w *Worker) badRecAlias() {
	r := w.rec // want `rec field must not be aliased, passed, or compared`
	_ = r
}

func (w *Worker) badRecMethodValue() func() {
	return w.rec.Fork // want `owner-only recorder method Fork must be called directly, not bound as a method value`
}

func (w *Worker) unclassifiedRec() {
	w.rec.Mystery() // want `recorder method Mystery is not classified as owner-only, thief-safe, or epoch-guarded`
}

type Scheduler struct{ workers []*Worker }

func (s *Scheduler) badFromScheduler() {
	s.workers[0].split.UnexposeAll() // want `owner-only deque method UnexposeAll called outside a Worker method`
}

func (s *Scheduler) goodSnapshotFromScheduler() ([]int, uint64) {
	if s.workers[0].rec == nil { // ok: nil comparison from any goroutine
		return nil, 0
	}
	s.workers[0].rec.ResetHists()       // ok: thief-safe
	_ = s.workers[0].rec.Hist(0)        // ok: thief-safe
	return s.workers[0].rec.Snapshot(0) // ok: freeze-protocol reader is thief-safe
}

func badRecFreeFunction(w *Worker) {
	w.rec.TaskEnd() // want `owner-only recorder method TaskEnd called outside a Worker method`
}

// reclaimSlot mimics the elastic pool's reclamation path: epoch-guarded
// calls are licensed by the directive below, from any goroutine.
//
//lcws:epoch-guarded — quiescence proved by the caller (test stand-in)
func (s *Scheduler) reclaimSlot(w *Worker) {
	w.dq.Teardown()     // ok: epoch-guarded call under the directive
	w.rec.ReleaseRing() // ok: epoch-guarded call under the directive
	w.rec.EnsureRing()  // ok: epoch-guarded call under the directive
}

func (s *Scheduler) badReclaimNoDirective(w *Worker) {
	w.dq.Teardown()     // want `epoch-guarded deque method Teardown called outside a function carrying the //lcws:epoch-guarded quiescence directive`
	w.rec.ReleaseRing() // want `epoch-guarded recorder method ReleaseRing called outside a function carrying the //lcws:epoch-guarded quiescence directive`
}

//lcws:epoch-guarded — the directive does not reach into closures
func (s *Scheduler) badReclaimClosure(w *Worker) func() {
	return func() {
		w.dq.Teardown() // want `epoch-guarded deque method Teardown called inside a function literal`
	}
}

func badFreeFunction(w *Worker) {
	w.dq.PushBottom(2) // want `owner-only deque method PushBottom called outside a Worker method`
}
