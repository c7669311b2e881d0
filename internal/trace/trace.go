// Package trace is the scheduler's flight recorder: a per-worker,
// fixed-capacity ring buffer of typed, timestamped events, written by the
// owning worker with plain stores and snapshotted by readers without
// locks or stop-the-world.
//
// # Owner path
//
// Recording an event costs one plain load (the freeze word), one clock
// read, two plain stores into the ring slot, and one atomic store that
// publishes the new write cursor. No fences or CAS are added to the
// scheduler's counting model: the recorder observes the algorithm, it
// does not participate in it. When tracing is disabled the scheduler
// holds no Recorder at all and every hook is a single nil check.
//
// # Snapshot protocol
//
// The write cursor is published with an atomic store after the slot's
// plain stores, so a reader that loads the cursor observes every slot
// below it fully written (release/acquire via the cursor). Wrap-around
// is the one hazard: the slot of event c (the in-flight event) aliases
// the slot of event c-cap. Snapshot therefore (1) sets the ring's freeze
// word, which makes the owner drop — not write — subsequent events,
// (2) loads the cursor c, and (3) reads events [c-cap+1, c), skipping
// the aliased oldest slot. Because the owner is sequential, at most one
// event can be mid-write when the freeze lands, and it writes exactly
// the skipped slot; every slot the reader touches is therefore stable
// and happens-before ordered, making concurrent snapshots race-detector
// clean. Events dropped by wrap-around or by the freeze window are
// counted, never silently lost.
package trace

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lcws/internal/counters"
)

// EventType identifies one kind of flight-recorder event.
type EventType uint8

// The recorded event types. Arg/Arg2 meanings are noted per type.
const (
	// EvNone marks an unused slot; it never appears in a snapshot.
	EvNone EventType = iota
	// EvTaskBegin opens a task-run span on the recording worker. Arg is
	// the task kind: 0 = function task, 1 = range task.
	EvTaskBegin
	// EvTaskEnd closes the innermost task-run span.
	EvTaskEnd
	// EvFork marks a Fork2/ParFor split: the recording worker pushed a
	// forked task onto its own deque.
	EvFork
	// EvStealAttempt is a pop_top attempt against victim Arg.
	EvStealAttempt
	// EvStealHit is a successful steal from victim Arg; Arg2 is the
	// number of tasks claimed (1 for single steals, the batch size for
	// PopTopHalf claims).
	EvStealHit
	// EvExposeReq records that the recording thief set victim Arg's
	// targeted flag, asking it to expose work.
	EvExposeReq
	// EvSignalSend records an emulated pthread_kill to victim Arg.
	EvSignalSend
	// EvSignalHandle records the owner running the exposure handler;
	// Arg is the number of tasks exposed.
	EvSignalHandle
	// EvExpose records a task-boundary (flag-based) exposure by the
	// owner; Arg is the number of tasks exposed.
	EvExpose
	// EvPark opens an idle-blocking span: Arg 0 = blind backoff sleep,
	// 1 = parking-lot semaphore wait.
	EvPark
	// EvUnpark closes the idle-blocking span opened by EvPark.
	EvUnpark
	// EvDequeEmpty records the first fruitless local pop of an idle
	// episode (the transition from working to searching).
	EvDequeEmpty
	// EvRepair records an UnexposeAll reclaim; Arg is the number of
	// tasks pulled back from the public part.
	EvRepair
	// EvJobSwitch records the worker switching job context; Arg is the
	// new job id (0 = none). Events after a switch belong to that job
	// until the next switch; TraceSnapshot uses these markers to fill
	// the Job field of every event in between.
	EvJobSwitch
	// EvGrow records the owner doubling its deque's task array; Arg is
	// the new capacity in slots.
	EvGrow
	// EvSpill records the owner spilling tasks past its deque's maximum
	// capacity to the per-worker overflow list; Arg is the number of
	// tasks spilled.
	EvSpill
	// EvDuplicate records a duplicate execution claim absorbed by the
	// MultFree generation-stamp arbitration: the recording worker held a
	// relaxed-obtained task another claimant already won.
	EvDuplicate
	// EvResize records the recording worker adopting a new worker-set
	// snapshot (SetWorkers, demand growth, or idle retirement installed
	// it); Arg is the new live worker count.
	EvResize
	// EvRetire records the recording worker completing retirement: it was
	// shrunk out of the live set, drained, and is about to tear down its
	// slot's resources and exit.
	EvRetire

	numEventTypes
)

// NumEventTypes is the number of distinct event types.
const NumEventTypes = int(numEventTypes)

var eventTypeNames = [NumEventTypes]string{
	EvNone:         "none",
	EvTaskBegin:    "task.begin",
	EvTaskEnd:      "task.end",
	EvFork:         "fork",
	EvStealAttempt: "steal.attempt",
	EvStealHit:     "steal.hit",
	EvExposeReq:    "expose.request",
	EvSignalSend:   "signal.send",
	EvSignalHandle: "signal.handle",
	EvExpose:       "expose",
	EvPark:         "park",
	EvUnpark:       "unpark",
	EvDequeEmpty:   "deque.empty",
	EvRepair:       "repair",
	EvJobSwitch:    "job.switch",
	EvGrow:         "deque.grow",
	EvSpill:        "spill",
	EvDuplicate:    "duplicate",
	EvResize:       "pool.resize",
	EvRetire:       "pool.retire",
}

// String returns the dotted lowercase name of the event type.
func (t EventType) String() string {
	if int(t) >= NumEventTypes {
		return fmt.Sprintf("eventtype(%d)", uint8(t))
	}
	return eventTypeNames[t]
}

// Event is one decoded flight-recorder event.
type Event struct {
	// Ts is the event time in nanoseconds since the scheduler's trace
	// epoch (the moment the traced scheduler was created).
	Ts int64 `json:"ts"`
	// Worker is the id of the worker whose ring recorded the event.
	Worker int `json:"worker"`
	// Type is the event type.
	Type EventType `json:"type"`
	// Arg and Arg2 are the type-specific payloads (see the EventType
	// constants).
	Arg  uint32 `json:"arg"`
	Arg2 uint32 `json:"arg2,omitempty"`
	// Job is the id of the job the worker was serving when the event was
	// recorded (0 = none). It is not stored in the ring slot; snapshots
	// derive it from the surrounding EvJobSwitch markers.
	Job uint64 `json:"job,omitempty"`
}

// JobSpan is the submission-to-settlement interval of one job, for the
// Chrome export's per-job async spans. Start/End are trace times
// (nanoseconds since the scheduler's epoch).
type JobSpan struct {
	ID     uint64 `json:"id"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Failed bool   `json:"failed,omitempty"`
	// Class is the job's QoS priority class index (0 = most urgent),
	// mirroring core.JobClass; rendered in the Chrome export's span
	// args so a starved tenant is visible in the viewer.
	Class uint8 `json:"class,omitempty"`
}

// Config configures the flight recorder of a scheduler.
type Config struct {
	// BufPerWorker is the per-worker ring capacity in events; it is
	// rounded up to a power of two. Non-positive selects
	// DefaultBufPerWorker. Each slot is 16 bytes.
	BufPerWorker int
}

// DefaultBufPerWorker is the default per-worker ring capacity (8192
// events = 128 KiB per worker).
const DefaultBufPerWorker = 8192

// normalized returns c with defaults applied and the capacity rounded up
// to a power of two.
func (c Config) normalized() Config {
	n := c.BufPerWorker
	if n <= 0 {
		n = DefaultBufPerWorker
	}
	p := 1
	for p < n {
		p <<= 1
	}
	c.BufPerWorker = p
	return c
}

// slot is one ring entry: a timestamp and a packed meta word
// (type in bits 56–63, arg2 in bits 32–55, arg in bits 0–31).
//
//lcws:manifest
type slot struct {
	ts   int64  //lcws:field thief-shared — owner plain-writes, published by the ring's wcur store
	meta uint64 //lcws:field thief-shared — same wcur publication protocol as ts
}

func packMeta(typ EventType, arg uint32, arg2 uint32) uint64 {
	return uint64(typ)<<56 | uint64(arg2&0xffffff)<<32 | uint64(arg)
}

func unpack(ts int64, meta uint64, worker int) Event {
	return Event{
		Ts:     ts,
		Worker: worker,
		Type:   EventType(meta >> 56),
		Arg:    uint32(meta),
		Arg2:   uint32(meta>>32) & 0xffffff,
	}
}

// ring is the owner-write event buffer of one worker.
//
//lcws:manifest
type ring struct {
	// buf/mask are fixed for the life of a worker-set epoch; only the
	// elastic pool's retire/regrow path (ReleaseRing, EnsureRing)
	// replaces them, under snapMu with the owner goroutine provably
	// exited — the epoch-guarded discipline (see core.workerSet).
	buf  []slot //lcws:field epoch-guarded — slots follow the slot manifest
	mask uint64 //lcws:field epoch-guarded
	// wcur is the next event index. The owner publishes it with an
	// atomic store after the slot's plain stores; a reader that loads
	// wcur therefore observes every event below it fully written.
	//
	//lcws:field atomic
	wcur atomic.Uint64
	// frozen gates the owner out of the ring while a snapshot reads it;
	// events arriving during the window are dropped and counted in
	// lostFrozen.
	//
	//lcws:field atomic
	frozen atomic.Bool
	//lcws:field atomic
	lostFrozen atomic.Uint64
	// snapMu serializes concurrent snapshots (readers only; the owner
	// never takes it).
	//
	//lcws:field atomic
	snapMu sync.Mutex
}

// Recorder is the per-worker flight recorder handle: the event ring,
// the online latency histograms, and the scratch state the latency
// derivations need. All methods except Snapshot are owner-only — they
// must be called from the owning worker's goroutine.
//
//lcws:manifest
type Recorder struct {
	ring      ring             //lcws:field thief-shared — the ring's own manifest governs each word
	epoch     time.Time        //lcws:field immutable
	ctr       *counters.Worker //lcws:field immutable
	capEvents int              //lcws:field immutable — configured ring capacity; EnsureRing restores to it

	hists [NumLatencies]atomicHist //lcws:field thief-shared — the atomicHist manifest governs each word

	// searchStart is the trace time at which the current steal search
	// began (0 = not searching); it anchors the steal-to-hit histogram.
	//
	//lcws:field owner
	searchStart int64
}

// NewRecorder returns a recorder with the given configuration. epoch is
// the shared trace epoch of the scheduler (all workers' timestamps are
// relative to it); ctr receives the TraceDrop counter increments.
func NewRecorder(cfg Config, epoch time.Time, ctr *counters.Worker) *Recorder {
	cfg = cfg.normalized()
	r := &Recorder{epoch: epoch, ctr: ctr, capEvents: cfg.BufPerWorker}
	//lcws:presync constructor: the recorder has not been published yet
	r.ring.buf = make([]slot, cfg.BufPerWorker)
	//lcws:presync constructor: the recorder has not been published yet
	r.ring.mask = uint64(cfg.BufPerWorker - 1)
	return r
}

// ReleaseRing shrinks the event ring to a single slot, releasing the
// buffer of a retired worker to the GC. The latency histograms are
// kept — they rejoin the scheduler's aggregates when the slot is
// re-admitted. The write cursor is reset so a regrown ring (EnsureRing)
// starts empty instead of decoding capacity-1 garbage slots; snapMu
// excludes a concurrent Snapshot for the swap.
//
// Epoch-guarded: callable only with the owner goroutine exited and the
// worker-set epoch quiesced (core.reclaimSlot).
//
//lcws:epoch-guarded
func (r *Recorder) ReleaseRing() {
	rg := &r.ring
	rg.snapMu.Lock()
	defer rg.snapMu.Unlock()
	if len(rg.buf) == 1 {
		return
	}
	// One slot, not zero: Snapshot's lo arithmetic divides by capacity
	// shape (c >= capacity), so an empty buffer would be a special case
	// everywhere; a single dead slot costs 16 bytes.
	rg.buf = make([]slot, 1)
	rg.mask = 0
	rg.wcur.Store(0)
}

// EnsureRing restores a released ring to its configured capacity; a
// no-op when the ring was never released. Called by the resizer before
// it re-admits (or first admits) the slot into a published worker set,
// so the owner goroutine only ever records into a full-size ring.
//
// Epoch-guarded: callable only while the slot is outside every
// published worker set (core.resizeLocked, under resizeMu).
//
//lcws:epoch-guarded
func (r *Recorder) EnsureRing() {
	rg := &r.ring
	rg.snapMu.Lock()
	defer rg.snapMu.Unlock()
	if len(rg.buf) == r.capEvents {
		return
	}
	rg.buf = make([]slot, r.capEvents)
	rg.mask = uint64(r.capEvents - 1)
	rg.wcur.Store(0)
}

// Cap returns the ring capacity in events.
func (r *Recorder) Cap() int { return len(r.ring.buf) }

// Now returns the current trace time: nanoseconds since the epoch.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

// recordAt appends one event with a caller-supplied timestamp. Owner
// path: one plain load, two plain stores, one atomic cursor store. An
// event that overwrites a live slot (ring wrapped) or arrives while a
// snapshot has the ring frozen is accounted as a drop.
//
//lcws:noalloc
func (r *Recorder) recordAt(ts int64, typ EventType, arg uint32, arg2 uint32) {
	rg := &r.ring
	if rg.frozen.Load() {
		rg.lostFrozen.Add(1)
		r.ctr.Inc(counters.TraceDrop)
		return
	}
	w := rg.wcur.Load() // owner's own cursor: an uncontended load
	s := &rg.buf[w&rg.mask]
	s.ts = ts
	s.meta = packMeta(typ, arg, arg2)
	rg.wcur.Store(w + 1)
	if w >= uint64(len(rg.buf)) {
		// The slot held a live event that is now unrecoverable.
		r.ctr.Inc(counters.TraceDrop)
	}
}

// record appends one event stamped with the current trace time.
//
//lcws:noalloc
func (r *Recorder) record(typ EventType, arg uint32, arg2 uint32) {
	r.recordAt(r.Now(), typ, arg, arg2)
}

// ResetRun clears the per-run scratch state (not the ring or the
// histograms, which accumulate across runs like the counters). The
// scheduler calls it before each Run starts.
func (r *Recorder) ResetRun() { r.searchStart = 0 }

// TaskBegin opens a task-run span. kind is 0 for a function task, 1 for
// a range task.
func (r *Recorder) TaskBegin(kind uint32) { r.record(EvTaskBegin, kind, 0) }

// TaskEnd closes the innermost task-run span.
func (r *Recorder) TaskEnd() { r.record(EvTaskEnd, 0, 0) }

// Fork records a Fork2/ParFor split on the recording worker.
func (r *Recorder) Fork() { r.record(EvFork, 0, 0) }

// StealAttempt records a pop_top attempt against victim vid and starts
// the steal-to-hit clock if this is the first attempt of a search.
func (r *Recorder) StealAttempt(vid int) {
	ts := r.Now()
	if r.searchStart == 0 {
		r.searchStart = ts
	}
	r.recordAt(ts, EvStealAttempt, uint32(vid), 0)
}

// StealHit records a successful steal of n tasks from victim vid and
// closes the steal-to-hit clock into the LatStealToHit histogram.
func (r *Recorder) StealHit(vid, n int) {
	ts := r.Now()
	if r.searchStart != 0 {
		r.hists[LatStealToHit].observe(ts - r.searchStart)
		r.searchStart = 0
	}
	r.recordAt(ts, EvStealHit, uint32(vid), uint32(n))
}

// LocalWork notes that the worker obtained work from its own deque,
// ending any in-progress steal search without a hit.
func (r *Recorder) LocalWork() { r.searchStart = 0 }

// ExposeRequest records that the recording thief set victim vid's
// targeted flag; the returned trace time is what the thief stamps into
// the victim's request word so the victim can derive the
// flag-set-to-exposure latency.
func (r *Recorder) ExposeRequest(vid int) int64 {
	ts := r.Now()
	r.recordAt(ts, EvExposeReq, uint32(vid), 0)
	return ts
}

// SignalSend records an emulated signal to victim vid; the returned
// trace time is what the thief stamps into the victim's signal word.
func (r *Recorder) SignalSend(vid int) int64 {
	ts := r.Now()
	r.recordAt(ts, EvSignalSend, uint32(vid), 0)
	return ts
}

// SignalHandle records the owner's exposure handler running: n is the
// number of tasks exposed, sentTs the thief's SignalSend stamp (0 =
// none observed) and reqTs the thief's ExposeRequest stamp (0 = none).
// The send-to-handle latency is observed always; the
// flag-set-to-exposure latency only when the handler actually exposed
// work.
func (r *Recorder) SignalHandle(n int, sentTs, reqTs int64) {
	ts := r.Now()
	if sentTs > 0 {
		r.hists[LatSignalToHandle].observe(ts - sentTs)
	}
	if reqTs > 0 && n > 0 {
		r.hists[LatFlagToExpose].observe(ts - reqTs)
	}
	r.recordAt(ts, EvSignalHandle, uint32(n), 0)
}

// Exposed records a task-boundary (flag-based) exposure of n tasks.
// reqTs is the requesting thief's ExposeRequest stamp (0 = none).
func (r *Recorder) Exposed(n int, reqTs int64) {
	ts := r.Now()
	if reqTs > 0 && n > 0 {
		r.hists[LatFlagToExpose].observe(ts - reqTs)
	}
	r.recordAt(ts, EvExpose, uint32(n), 0)
}

// ParkStart opens an idle-blocking span (kind 0 = backoff sleep, 1 =
// semaphore park) and returns its start time for ParkEnd.
func (r *Recorder) ParkStart(kind uint32) int64 {
	ts := r.Now()
	r.recordAt(ts, EvPark, kind, 0)
	return ts
}

// ParkEnd closes the idle-blocking span opened at startTs and observes
// its duration into the LatPark histogram.
func (r *Recorder) ParkEnd(kind uint32, startTs int64) {
	ts := r.Now()
	r.hists[LatPark].observe(ts - startTs)
	r.recordAt(ts, EvUnpark, kind, 0)
}

// DequeEmpty records the working-to-searching transition.
func (r *Recorder) DequeEmpty() { r.record(EvDequeEmpty, 0, 0) }

// Repair records an UnexposeAll reclaim of n tasks.
func (r *Recorder) Repair(n int) { r.record(EvRepair, uint32(n), 0) }

// Grow records a deque growth to a new capacity of n slots.
func (r *Recorder) Grow(n int) { r.record(EvGrow, uint32(n), 0) }

// Spill records n tasks spilled to the worker's overflow list.
func (r *Recorder) Spill(n int) { r.record(EvSpill, uint32(n), 0) }

// Duplicate records an absorbed duplicate execution claim (MultFree).
func (r *Recorder) Duplicate() { r.record(EvDuplicate, 0, 0) }

// Resize records the worker adopting a worker-set snapshot with n live
// workers.
func (r *Recorder) Resize(n int) { r.record(EvResize, uint32(n), 0) }

// Retire records the worker completing its retirement (last event the
// worker records before its ring is released).
func (r *Recorder) Retire() { r.record(EvRetire, 0, 0) }

// JobSwitch records the worker switching to job id (0 = leaving job
// context). Owner-only, like every recording method.
func (r *Recorder) JobSwitch(id uint32) { r.record(EvJobSwitch, id, 0) }

// Hist returns a copy of latency histogram which (a Lat* index).
func (r *Recorder) Hist(which int) Histogram { return r.hists[which].snapshot() }

// ResetHists zeroes the latency histograms. Like counter resets it is
// exact only while the owning worker is not running.
func (r *Recorder) ResetHists() {
	for i := range r.hists {
		r.hists[i].reset()
	}
}

// Tail returns up to n most recent events of the ring, oldest first.
// Owner-only: it reads the ring with plain loads from the owning
// goroutine (the panic path uses it to attach recent history to the
// crash report).
func (r *Recorder) Tail(n int) []Event {
	c := r.ring.wcur.Load()
	lo := uint64(0)
	if c > uint64(len(r.ring.buf)) {
		lo = c - uint64(len(r.ring.buf))
	}
	if c-lo > uint64(n) {
		lo = c - uint64(n)
	}
	out := make([]Event, 0, c-lo)
	for i := lo; i < c; i++ {
		s := &r.ring.buf[i&r.ring.mask]
		out = append(out, unpack(s.ts, s.meta, -1))
	}
	return out
}

// Snapshot decodes the ring's events, oldest first, tagging each with
// worker id. It is safe to call from any goroutine, concurrently with
// the owner recording: the ring is frozen for the duration (the owner
// drops events instead of writing, and those drops are counted), the
// cursor load orders every returned slot's plain stores before the
// reads, and the one slot the in-flight event may alias is skipped.
// dropped is the total number of events lost to wrap-around and freeze
// windows since the recorder was created.
func (r *Recorder) Snapshot(worker int) (events []Event, dropped uint64) {
	rg := &r.ring
	rg.snapMu.Lock()
	defer rg.snapMu.Unlock()

	rg.frozen.Store(true)
	c := rg.wcur.Load()
	capacity := uint64(len(rg.buf))
	lo := uint64(0)
	if c >= capacity {
		// The owner may be mid-write of event c, whose slot aliases
		// event c-cap: skip it. Everything older was overwritten.
		lo = c - capacity + 1
	}
	events = make([]Event, 0, c-lo)
	for i := lo; i < c; i++ {
		s := &rg.buf[i&rg.mask]
		events = append(events, unpack(s.ts, s.meta, worker))
	}
	dropped = lo + rg.lostFrozen.Load()
	rg.frozen.Store(false)
	return events, dropped
}
