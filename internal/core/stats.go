package core

import (
	"lcws/internal/counters"
	"lcws/internal/trace"
)

// Stats aggregates the instrumentation of a scheduler: the
// synchronization operations the reference C++ implementation would
// execute (Fences, CAS — see internal/counters/model.go for the
// counting model), scheduler-level event counts, and — when the
// scheduler traces — the four derived latency histograms. The paper's
// profiles (Figures 3 and 8) are ratios of the counter fields between
// schedulers.
//
// Obtain one with Scheduler.Stats; interval deltas with Stats.Sub.
type Stats struct {
	// Fences counts memory fences per the counting model.
	Fences uint64
	// CAS counts compare-and-swap instructions per the counting model.
	CAS uint64
	// StealAttempts counts pop_top calls on victims.
	StealAttempts uint64
	// StealSuccesses counts steals that obtained a task.
	StealSuccesses uint64
	// StealPrivateWork counts steal attempts that found only private
	// work and so notified the victim.
	StealPrivateWork uint64
	// StealAborts counts steal attempts that lost a CAS race.
	StealAborts uint64
	// Exposures counts tasks moved from private to public parts.
	Exposures uint64
	// ExposedNotStolen counts exposed tasks taken back by their owner.
	ExposedNotStolen uint64
	// SignalsSent counts emulated pthread_kill notifications.
	SignalsSent uint64
	// SignalsHandled counts exposure requests handled by owners.
	SignalsHandled uint64
	// IdleIterations counts scheduler iterations that found no work.
	IdleIterations uint64
	// ParkedNanos is the total time (ns) workers spent sleeping in the
	// idle backoff, separating parked idle cost from busy idle spinning.
	ParkedNanos uint64
	// TasksExecuted counts tasks run to completion.
	TasksExecuted uint64
	// TasksPushed counts deque pushes.
	TasksPushed uint64
	// StealBatchTasks counts tasks transferred by batched steals
	// (StealBatch mode); StealBatchTasks / StealSuccesses is the average
	// claimed batch size.
	StealBatchTasks uint64
	// WakeupsSent counts parked thieves woken by work-producing events
	// (StealBatch mode).
	WakeupsSent uint64
	// ParkCount counts semaphore parks in the idle parking lot
	// (StealBatch mode); the time spent parked is in ParkedNanos.
	ParkCount uint64
	// TraceDrops counts flight-recorder events lost to ring wrap-around
	// or snapshot freeze windows; always zero when tracing is off.
	TraceDrops uint64
	// TasksDiscarded counts orphaned tasks drained unexecuted because
	// their job failed or was cancelled; zero while every job succeeds.
	TasksDiscarded uint64
	// DequeGrows counts deque array doublings (one per published
	// generation); zero while no live window outgrew the initial
	// capacity.
	DequeGrows uint64
	// TasksSpilled counts tasks moved from a deque at its maximum
	// capacity onto the owner's overflow list.
	TasksSpilled uint64
	// FreelistRefills counts recycled tasks adopted from the global
	// recycle shards on freelist misses.
	FreelistRefills uint64
	// FreelistReturns counts tasks evicted from over-full per-worker
	// freelists (donated to the recycle shards or released to the GC).
	FreelistReturns uint64
	// RelaxedSteals counts tasks claimed through the MultFree relaxed
	// (fence- and CAS-free) steal path; zero outside MultFree.
	RelaxedSteals uint64
	// TasksDuplicated counts duplicate task executions absorbed by the
	// MultFree generation-stamp arbitration (the bounded-multiplicity
	// cost); completion accounting excludes them, so TasksExecuted stays
	// exact. Zero outside MultFree.
	TasksDuplicated uint64

	// Executor-level job accounting (scheduler atomics, not per-worker
	// counters): jobs submitted / settled successfully / settled failed
	// since the scheduler's creation or the last ResetStats.
	JobsSubmitted uint64
	JobsCompleted uint64
	JobsFailed    uint64

	// Multi-tenant QoS accounting. JobsEnqueued counts jobs that
	// entered the injector, per class; AdmissionRejects counts
	// submissions refused with ErrQueueFull (AdmitFail against a class
	// at its ClassCapacity); JobYields counts queued jobs picked up at
	// a checkpoint of a running less-urgent job (the preemption point).
	JobsEnqueuedHigh   uint64
	JobsEnqueuedNormal uint64
	JobsEnqueuedLow    uint64
	AdmissionRejects   uint64
	JobYields          uint64

	// Elastic pool accounting (scheduler atomics). PoolGrows counts
	// demand-driven grows (injector backlog outran unparked workers);
	// WorkersRetired counts workers that completed retirement after
	// being shrunk out of the live set; Resizes counts installed
	// worker-set snapshots (SetWorkers and elastic triggers alike);
	// EpochReclaims counts retired slots whose heap resources were
	// reclaimed after epoch quiescence.
	PoolGrows      uint64
	WorkersRetired uint64
	Resizes        uint64
	EpochReclaims  uint64

	// The derived latency histograms, populated only on schedulers built
	// with tracing (zero-valued otherwise). Like the counters they are
	// exact only while no Run is in progress.

	// StealToHit is the time from a thief's first fruitless steal
	// attempt to its next successful steal.
	StealToHit trace.Histogram
	// FlagToExposure is the time from a thief setting a victim's
	// targeted flag to the victim exposing work.
	FlagToExposure trace.Histogram
	// SignalToHandle is the time from an emulated signal send to the
	// victim's handler running.
	SignalToHandle trace.Histogram
	// ParkDuration is the length of workers' idle-blocking episodes.
	ParkDuration trace.Histogram

	// The per-class injector-wait histograms: queue-to-pickup latency
	// of each job, by class. Unlike the trace histograms above they are
	// populated on every scheduler (pickup is a per-job event, off the
	// task hot path), so the QoS fairness and starvation bounds can be
	// stated without tracing.
	InjectorWaitHigh   trace.Histogram
	InjectorWaitNormal trace.Histogram
	InjectorWaitLow    trace.Histogram
}

func statsFromSnapshot(sn counters.Snapshot) Stats {
	return Stats{
		Fences:           sn.Get(counters.Fence),
		CAS:              sn.Get(counters.CAS),
		StealAttempts:    sn.Get(counters.StealAttempt),
		StealSuccesses:   sn.Get(counters.StealSuccess),
		StealPrivateWork: sn.Get(counters.StealPrivate),
		StealAborts:      sn.Get(counters.StealAbort),
		Exposures:        sn.Get(counters.Exposure),
		ExposedNotStolen: sn.Get(counters.ExposedNotStolen),
		SignalsSent:      sn.Get(counters.SignalSent),
		SignalsHandled:   sn.Get(counters.SignalHandled),
		IdleIterations:   sn.Get(counters.IdleIteration),
		ParkedNanos:      sn.Get(counters.ParkedNanos),
		TasksExecuted:    sn.Get(counters.TaskExecuted),
		TasksPushed:      sn.Get(counters.TaskPushed),
		StealBatchTasks:  sn.Get(counters.StealBatchTasks),
		WakeupsSent:      sn.Get(counters.WakeupsSent),
		ParkCount:        sn.Get(counters.ParkCount),
		TraceDrops:       sn.Get(counters.TraceDrop),
		TasksDiscarded:   sn.Get(counters.TaskDiscarded),
		DequeGrows:       sn.Get(counters.DequeGrow),
		TasksSpilled:     sn.Get(counters.TaskSpilled),
		FreelistRefills:  sn.Get(counters.FreelistRefill),
		FreelistReturns:  sn.Get(counters.FreelistReturn),
		RelaxedSteals:    sn.Get(counters.RelaxedSteal),
		TasksDuplicated:  sn.Get(counters.TaskDuplicated),
		JobYields:        sn.Get(counters.JobYield),
	}
}

// Stats returns the counters — and, when tracing, the latency
// histograms — accumulated since the scheduler's creation or the last
// ResetStats. It quiesces first (see Scheduler.quiesce), so it is exact
// after Job.Wait on an otherwise-idle scheduler; while jobs run it is
// approximate (per-worker counters are owner-written, unsynchronized).
func (s *Scheduler) Stats() Stats {
	s.quiesce()
	st := statsFromSnapshot(s.ctrs.Snapshot())
	st.JobsSubmitted = s.jobsSubmitted.Load()
	st.JobsCompleted = s.jobsCompleted.Load()
	st.JobsFailed = s.jobsFailed.Load()
	st.JobsEnqueuedHigh = s.jobsEnqueued[High].Load()
	st.JobsEnqueuedNormal = s.jobsEnqueued[Normal].Load()
	st.JobsEnqueuedLow = s.jobsEnqueued[Low].Load()
	st.AdmissionRejects = s.admissionRejects.Load()
	st.PoolGrows = s.poolGrows.Load()
	st.WorkersRetired = s.workersRetired.Load()
	st.Resizes = s.resizes.Load()
	st.EpochReclaims = s.epochReclaims.Load()
	st.InjectorWaitHigh = s.InjectorWait(High)
	st.InjectorWaitNormal = s.InjectorWait(Normal)
	st.InjectorWaitLow = s.InjectorWait(Low)
	if s.opts.Trace != nil {
		// Aggregate over the current snapshot's live slots: the
		// acquire load orders a grown slot's recorder construction
		// before our reads, and retired slots (whose hists persist
		// until regrow) rejoin the sum when re-admitted.
		set := s.set.Load()
		for i := range set.slots {
			st.StealToHit = st.StealToHit.Add(s.worker(i).rec.Hist(trace.LatStealToHit))
			st.FlagToExposure = st.FlagToExposure.Add(s.worker(i).rec.Hist(trace.LatFlagToExpose))
			st.SignalToHandle = st.SignalToHandle.Add(s.worker(i).rec.Hist(trace.LatSignalToHandle))
			st.ParkDuration = st.ParkDuration.Add(s.worker(i).rec.Hist(trace.LatPark))
		}
	}
	return st
}

// ResetStats zeroes the scheduler's counters and latency histograms
// (the flight-recorder rings are untouched; they age out on their own).
func (s *Scheduler) ResetStats() {
	s.quiesce()
	s.ctrs.Reset()
	s.jobsSubmitted.Store(0)
	s.jobsCompleted.Store(0)
	s.jobsFailed.Store(0)
	for c := range s.jobsEnqueued {
		s.jobsEnqueued[c].Store(0)
	}
	s.admissionRejects.Store(0)
	s.poolGrows.Store(0)
	s.workersRetired.Store(0)
	s.resizes.Store(0)
	s.epochReclaims.Store(0)
	s.waitMu.Lock()
	s.waitHist = [NumJobClasses]trace.Histogram{}
	s.waitMu.Unlock()
	if s.opts.Trace != nil {
		// Under resizeMu so no slot's recorder is being constructed
		// concurrently; the full slab is walked (nil recorders are
		// never-initialized slots) so retired workers' frozen hists
		// cannot leak back into a later interval on regrow.
		s.resizeMu.Lock()
		for i := range s.workers {
			if s.worker(i).rec != nil {
				s.worker(i).rec.ResetHists()
			}
		}
		s.resizeMu.Unlock()
	}
}

// Sub returns the interval delta st - prev: counter fields are
// subtracted (clamped at zero, so a reset between the two snapshots
// cannot wrap), histograms via Histogram.Sub. Use it to profile one
// phase of a long-lived scheduler:
//
//	before := s.Stats()
//	s.Run(phase)
//	delta := s.Stats().Sub(before)
func (st Stats) Sub(prev Stats) Stats {
	return Stats{
		Fences:           clampSub(st.Fences, prev.Fences),
		CAS:              clampSub(st.CAS, prev.CAS),
		StealAttempts:    clampSub(st.StealAttempts, prev.StealAttempts),
		StealSuccesses:   clampSub(st.StealSuccesses, prev.StealSuccesses),
		StealPrivateWork: clampSub(st.StealPrivateWork, prev.StealPrivateWork),
		StealAborts:      clampSub(st.StealAborts, prev.StealAborts),
		Exposures:        clampSub(st.Exposures, prev.Exposures),
		ExposedNotStolen: clampSub(st.ExposedNotStolen, prev.ExposedNotStolen),
		SignalsSent:      clampSub(st.SignalsSent, prev.SignalsSent),
		SignalsHandled:   clampSub(st.SignalsHandled, prev.SignalsHandled),
		IdleIterations:   clampSub(st.IdleIterations, prev.IdleIterations),
		ParkedNanos:      clampSub(st.ParkedNanos, prev.ParkedNanos),
		TasksExecuted:    clampSub(st.TasksExecuted, prev.TasksExecuted),
		TasksPushed:      clampSub(st.TasksPushed, prev.TasksPushed),
		StealBatchTasks:  clampSub(st.StealBatchTasks, prev.StealBatchTasks),
		WakeupsSent:      clampSub(st.WakeupsSent, prev.WakeupsSent),
		ParkCount:        clampSub(st.ParkCount, prev.ParkCount),
		TraceDrops:       clampSub(st.TraceDrops, prev.TraceDrops),
		TasksDiscarded:   clampSub(st.TasksDiscarded, prev.TasksDiscarded),
		DequeGrows:       clampSub(st.DequeGrows, prev.DequeGrows),
		TasksSpilled:     clampSub(st.TasksSpilled, prev.TasksSpilled),
		FreelistRefills:  clampSub(st.FreelistRefills, prev.FreelistRefills),
		FreelistReturns:  clampSub(st.FreelistReturns, prev.FreelistReturns),
		RelaxedSteals:    clampSub(st.RelaxedSteals, prev.RelaxedSteals),
		TasksDuplicated:  clampSub(st.TasksDuplicated, prev.TasksDuplicated),
		JobsSubmitted:    clampSub(st.JobsSubmitted, prev.JobsSubmitted),
		JobsCompleted:    clampSub(st.JobsCompleted, prev.JobsCompleted),
		JobsFailed:       clampSub(st.JobsFailed, prev.JobsFailed),

		JobsEnqueuedHigh:   clampSub(st.JobsEnqueuedHigh, prev.JobsEnqueuedHigh),
		JobsEnqueuedNormal: clampSub(st.JobsEnqueuedNormal, prev.JobsEnqueuedNormal),
		JobsEnqueuedLow:    clampSub(st.JobsEnqueuedLow, prev.JobsEnqueuedLow),
		AdmissionRejects:   clampSub(st.AdmissionRejects, prev.AdmissionRejects),
		JobYields:          clampSub(st.JobYields, prev.JobYields),

		PoolGrows:      clampSub(st.PoolGrows, prev.PoolGrows),
		WorkersRetired: clampSub(st.WorkersRetired, prev.WorkersRetired),
		Resizes:        clampSub(st.Resizes, prev.Resizes),
		EpochReclaims:  clampSub(st.EpochReclaims, prev.EpochReclaims),

		StealToHit:     st.StealToHit.Sub(prev.StealToHit),
		FlagToExposure: st.FlagToExposure.Sub(prev.FlagToExposure),
		SignalToHandle: st.SignalToHandle.Sub(prev.SignalToHandle),
		ParkDuration:   st.ParkDuration.Sub(prev.ParkDuration),

		InjectorWaitHigh:   st.InjectorWaitHigh.Sub(prev.InjectorWaitHigh),
		InjectorWaitNormal: st.InjectorWaitNormal.Sub(prev.InjectorWaitNormal),
		InjectorWaitLow:    st.InjectorWaitLow.Sub(prev.InjectorWaitLow),
	}
}

func clampSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// UnstolenFraction returns the fraction of exposed tasks that were not
// stolen (Figures 3d and 8d), or 0 when nothing was exposed.
func (st Stats) UnstolenFraction() float64 {
	if st.Exposures == 0 {
		return 0
	}
	return float64(st.ExposedNotStolen) / float64(st.Exposures)
}
