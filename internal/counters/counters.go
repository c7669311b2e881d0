// Package counters provides cache-padded per-worker instrumentation counters
// for the scheduler implementations.
//
// The counters record the synchronization operations that the C++ reference
// implementations of the schedulers would execute (memory fences and
// compare-and-swap instructions) together with scheduler-level events
// (steal attempts, successful steals, work exposures, exposed-but-unstolen
// tasks, signals, idle iterations). Figures 3 and 8 of the paper are ratios
// of these counters between schedulers; see model.go for the exact counting
// model.
//
// All increment methods are owner-local and unsynchronized: each worker owns
// one Worker record and is the only goroutine that writes to it. Snapshots
// taken while workers run are therefore approximate; snapshots taken after a
// computation quiesces (the only use in this repository) are exact.
package counters

import "fmt"

// Event identifies one instrumented counter.
type Event int

// The instrumented events. Fence and CAS follow the counting model in
// model.go; the remaining events are scheduler-level statistics used by the
// paper's profiles (Figures 3 and 8).
const (
	// Fence counts memory fences the reference C++ algorithm executes.
	Fence Event = iota
	// CAS counts compare-and-swap instructions.
	CAS
	// StealAttempt counts calls to popTop on a victim deque.
	StealAttempt
	// StealSuccess counts popTop calls that returned a task.
	StealSuccess
	// StealPrivate counts popTop calls that found only private work
	// (the PRIVATE_WORK result that triggers a notification).
	StealPrivate
	// StealEmpty counts popTop calls that found an entirely empty deque.
	StealEmpty
	// StealAbort counts popTop calls that lost a CAS race.
	StealAbort
	// Exposure counts tasks transferred from the private to the public
	// part of a split deque (per task, not per updatePublicBottom call).
	Exposure
	// ExposedNotStolen counts exposed tasks that the owner later took
	// back via popPublicBottom instead of being stolen.
	ExposedNotStolen
	// SignalSent counts emulated pthread_kill notifications.
	SignalSent
	// SignalHandled counts exposure requests handled by the owner.
	SignalHandled
	// IdleIteration counts scheduler-loop iterations in which a worker
	// found no work anywhere.
	IdleIteration
	// ParkedNanos accumulates the nanoseconds workers spent sleeping in
	// the idle backoff (accumulated with Add, unlike the event counters),
	// so parked idle time is visible in profiles separately from busy
	// idle iterations.
	ParkedNanos
	// TaskExecuted counts tasks run to completion.
	TaskExecuted
	// TaskPushed counts pushBottom calls.
	TaskPushed
	// StealBatchTasks counts tasks transferred by batched steal
	// operations (PopTopHalf on either deque): a batched steal claiming n
	// tasks adds n here and 1 to StealSuccess, so the ratio of the two
	// is the average claimed batch size. Zero in single-steal mode.
	StealBatchTasks
	// WakeupsSent counts parked thieves woken by work-producing
	// operations (exposure handler, push onto an empty deque, reclaim).
	WakeupsSent
	// ParkCount counts times a worker parked on its semaphore in the
	// event-driven idle parking lot (StealBatch mode); the time spent
	// parked accumulates in ParkedNanos as with the sleep ladder.
	ParkCount
	// TraceDrop counts flight-recorder events lost to ring wrap-around
	// or to a concurrent snapshot's freeze window. Zero when tracing is
	// off or the per-worker ring never filled.
	TraceDrop
	// TaskDiscarded counts orphaned tasks drained and dropped (not
	// executed) because their job had already failed or been cancelled;
	// each discard still stores the task's completion stamp so in-flight
	// joins of the dead job cannot hang. Zero while every job succeeds.
	TaskDiscarded
	// DequeGrow counts owner-side deque array doublings (one per
	// published generation, not per task copied). Zero while the live
	// window never outgrows the initial capacity.
	DequeGrow
	// TaskSpilled counts tasks the owner moved from a deque at its
	// maximum capacity onto its unbounded overflow list (per task).
	// Zero unless a spawn tree outgrew Options.MaxDequeCapacity.
	TaskSpilled
	// FreelistRefill counts recycled tasks adopted from the global
	// recycle shards into a worker's freelist on an allocation miss
	// (per task, not per batched refill).
	FreelistRefill
	// FreelistReturn counts recycled tasks a worker donated from its
	// over-full freelist to its global recycle shard (per task; tasks
	// dropped for GC because the shard was also full are included —
	// they left the freelist either way).
	FreelistReturn
	// RelaxedSteal counts tasks claimed through the MultFree relaxed
	// (fence- and CAS-free) steal path, per task: TakeTopRelaxed adds 1,
	// a relaxed batch claim adds its batch size. Zero outside MultFree.
	RelaxedSteal
	// TaskDuplicated counts task executions absorbed as duplicates under
	// MultFree's bounded multiplicity: a claimant that lost the
	// generation-stamp arbitration (or found the task already completed)
	// counts here instead of TaskExecuted, so completion accounting
	// stays exact. Zero outside MultFree.
	TaskDuplicated
	// JobYield counts queued jobs picked up at a Poll checkpoint of a
	// running less-urgent job — the QoS preemption point — rather than
	// in the worker's top-level loop. Zero while every submission uses
	// one class.
	JobYield

	numEvents
)

// NumEvents is the number of distinct counter events.
const NumEvents = int(numEvents)

var eventNames = [...]string{
	Fence:            "fences",
	CAS:              "cas",
	StealAttempt:     "steal_attempts",
	StealSuccess:     "steal_success",
	StealPrivate:     "steal_private",
	StealEmpty:       "steal_empty",
	StealAbort:       "steal_abort",
	Exposure:         "exposures",
	ExposedNotStolen: "exposed_not_stolen",
	SignalSent:       "signals_sent",
	SignalHandled:    "signals_handled",
	IdleIteration:    "idle_iterations",
	ParkedNanos:      "parked_nanos",
	TaskExecuted:     "tasks_executed",
	TaskPushed:       "tasks_pushed",
	StealBatchTasks:  "steal_batch_tasks",
	WakeupsSent:      "wakeups_sent",
	ParkCount:        "park_count",
	TraceDrop:        "trace_drops",
	TaskDiscarded:    "tasks_discarded",
	DequeGrow:        "deque_grows",
	TaskSpilled:      "tasks_spilled",
	FreelistRefill:   "freelist_refills",
	FreelistReturn:   "freelist_returns",
	RelaxedSteal:     "relaxed_steals",
	TaskDuplicated:   "tasks_duplicated",
	JobYield:         "job_yields",
}

// String returns the snake_case name of the event.
func (e Event) String() string {
	if e < 0 || int(e) >= NumEvents {
		return fmt.Sprintf("event(%d)", int(e))
	}
	return eventNames[e]
}

// cacheLine is the assumed cache-line size, used to pad per-worker counters
// so that two workers never write to the same line (false sharing would not
// affect correctness, only measurement overhead).
const cacheLine = 64

// Worker holds the counters of a single worker. It is padded to a multiple
// of the cache line size.
type Worker struct {
	v [NumEvents]uint64
	_ [pad]byte
}

// pad rounds the Worker struct up to a cache-line multiple.
const pad = (cacheLine - (NumEvents*8)%cacheLine) % cacheLine

// Inc adds 1 to event e.
func (w *Worker) Inc(e Event) { w.v[e]++ }

// Add adds n to event e.
func (w *Worker) Add(e Event, n uint64) { w.v[e] += n }

// Get returns the current value of event e.
func (w *Worker) Get(e Event) uint64 { return w.v[e] }

// Reset zeroes all counters of the worker.
func (w *Worker) Reset() { w.v = [NumEvents]uint64{} }

// Set is a collection of per-worker counters for a P-worker scheduler.
type Set struct {
	workers []Worker
}

// NewSet returns a Set with room for p workers.
func NewSet(p int) *Set {
	if p <= 0 {
		panic(fmt.Sprintf("counters: non-positive worker count %d", p))
	}
	return &Set{workers: make([]Worker, p)}
}

// Worker returns the counter record of worker id.
func (s *Set) Worker(id int) *Worker { return &s.workers[id] }

// Workers returns the number of per-worker records.
func (s *Set) Workers() int { return len(s.workers) }

// Reset zeroes every worker's counters.
func (s *Set) Reset() {
	for i := range s.workers {
		s.workers[i].Reset()
	}
}

// Snapshot returns the sum of all workers' counters. It is exact only when
// no worker is concurrently running.
func (s *Set) Snapshot() Snapshot {
	var out Snapshot
	for i := range s.workers {
		for e := 0; e < NumEvents; e++ {
			out[e] += s.workers[i].v[e]
		}
	}
	return out
}

// Snapshot is an aggregated view of the counters of a whole scheduler run.
type Snapshot [NumEvents]uint64

// Get returns the value of event e.
func (sn Snapshot) Get(e Event) uint64 { return sn[e] }

// Sub returns the element-wise difference sn - old. Values are clamped at
// zero so that a reset between snapshots cannot produce wrapped counts.
func (sn Snapshot) Sub(old Snapshot) Snapshot {
	var out Snapshot
	for i := range sn {
		if sn[i] >= old[i] {
			out[i] = sn[i] - old[i]
		}
	}
	return out
}

// Add returns the element-wise sum sn + other.
func (sn Snapshot) Add(other Snapshot) Snapshot {
	var out Snapshot
	for i := range sn {
		out[i] = sn[i] + other[i]
	}
	return out
}

// Ratio returns sn[e] / other[e], or def when other[e] is zero.
func (sn Snapshot) Ratio(e Event, other Snapshot, def float64) float64 {
	if other[e] == 0 {
		return def
	}
	return float64(sn[e]) / float64(other[e])
}

// UnstolenFraction returns the fraction of exposed tasks that were not
// stolen, or 0 when nothing was exposed. This is the quantity plotted in
// Figures 3d and 8d of the paper.
func (sn Snapshot) UnstolenFraction() float64 {
	if sn[Exposure] == 0 {
		return 0
	}
	return float64(sn[ExposedNotStolen]) / float64(sn[Exposure])
}

// StealSuccessRate returns successful steals / steal attempts, or 0 when no
// attempts were made.
func (sn Snapshot) StealSuccessRate() float64 {
	if sn[StealAttempt] == 0 {
		return 0
	}
	return float64(sn[StealSuccess]) / float64(sn[StealAttempt])
}

// AvgStealBatchSize returns the average number of tasks claimed per
// successful steal in batch mode (StealBatchTasks / StealSuccess), or 0
// when nothing was stolen. In single-steal mode StealBatchTasks stays
// zero and so does this ratio.
func (sn Snapshot) AvgStealBatchSize() float64 {
	if sn[StealSuccess] == 0 {
		return 0
	}
	return float64(sn[StealBatchTasks]) / float64(sn[StealSuccess])
}

// WakeupsPerPark returns wakeups sent per park (WakeupsSent / ParkCount),
// or 0 when no worker ever parked. Values near 1 mean parked thieves are
// woken almost exclusively by work events; values well below 1 mean most
// parks ended on the fallback timer.
func (sn Snapshot) WakeupsPerPark() float64 {
	if sn[ParkCount] == 0 {
		return 0
	}
	return float64(sn[WakeupsSent]) / float64(sn[ParkCount])
}

// String renders the snapshot as a single line of name=value pairs.
func (sn Snapshot) String() string {
	out := ""
	for e := 0; e < NumEvents; e++ {
		if e > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", Event(e), sn[e])
	}
	return out
}
