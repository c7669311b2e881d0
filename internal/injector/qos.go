// Package injector provides QoS, the MPMC submission queue that carries
// externally submitted jobs into the resident worker pool: NumClasses
// mutex-sharded per-class queues with stride (weighted-fair) pickup
// between and within classes, plus per-class bounded admission.
// Submission is an off-hot-path operation (once per job, not once per
// task), so the deque-style lock-free machinery in internal/deque would
// buy nothing and cost a second verification surface.
//
// What the executor needs from the queue is a cheap, *atomic* emptiness
// probe that idle workers can poll without taking a lock and —
// crucially — that participates in the parking lot's Dekker-style
// no-lost-wakeup protocol: a submitter publishes (Push updates the
// aggregate atomic length under a shard lock) and then scans the park
// bitset, while a parking worker sets its park bit and then re-checks
// Empty. One of the two must observe the other, regardless of which
// class shard the job landed in.
package injector

import (
	"sync"
	"sync/atomic"
)

// NumClasses is the number of priority classes the QoS queue serves.
// Index 0 is the most urgent; larger indices are less urgent. The core
// package's JobClass values map one-to-one onto these indices.
const NumClasses = 3

// strideScale is the numerator of all stride arithmetic: a flow of
// weight w advances its virtual time by strideScale/w per item, so
// larger weights receive proportionally more service. 1<<20 keeps the
// integer division exact enough for any sane weight while leaving
// headroom before a uint64 virtual clock could wrap (2^44 pops).
const strideScale = 1 << 20

// QoS is the class-aware MPMC submission queue: NumClasses mutex-
// sharded per-class queues with stride (weighted-fair) pickup order at
// two levels. Between classes, each pop advances the popped class's
// pass by strideScale/classWeight and the next pop serves the ready
// class with the minimum pass, so backlogged classes split pickups in
// proportion to their configured weights. Within a class, items carry
// a virtual finish time chained per weight value (items of equal
// weight form one FIFO flow; distinct weights share the class's
// pickups in proportion to their weights), and a min-heap serves the
// smallest finish time first.
//
// QoS keeps a single aggregate size word so the parking lot's
// Dekker-style no-lost-wakeup protocol needs only one atomic emptiness
// probe (see the package comment).
//
// Bounded admission rides on the shards: a class constructed with a
// capacity holds a semaphore channel of that many slots, each queued
// item holds one slot from TryAcquire (or a blocking receive from
// SlotChan) until the pop that removes it returns the slot.
//
//lcws:manifest
type QoS[T any] struct {
	shards [NumClasses]classShard[T] //lcws:field thief-shared — each element is internally synchronized per the classShard manifest

	// size is the aggregate element count across all shards — the single
	// atomic word of the Dekker handshake (see Empty).
	size atomic.Int64 //lcws:field atomic

	// ready is the bitmask of classes with queued items (bit c set =
	// shard c non-empty). Push sets a shard's bit under its lock before
	// publishing size; pops clear it when they empty the shard. Pickers
	// read it lock-free to find candidate classes and to answer the
	// checkpoint-yield probe ReadyAbove without touching any lock.
	ready atomic.Uint32 //lcws:field atomic

	// clock is the global virtual time: the largest pass any pop has
	// *served* (the chosen class's pass before its stride advance — the
	// minimum ready pass at that moment). A class going empty→non-empty
	// catches its pass up to clock so an idle class cannot bank credit
	// and then monopolize pickups when it wakes, yet a backlogged heavy
	// class keeps its earned advantage over lighter ones.
	clock atomic.Uint64 //lcws:field atomic
}

// classShard is one class's queue: a pass-ordered min-heap under a
// mutex, plus the class-level stride state and the admission semaphore.
//
//lcws:manifest
type classShard[T any] struct {
	mu    sync.Mutex    //lcws:field atomic
	heap  []entry[T]    //lcws:field guarded(mu) — min-heap on (pass, seq)
	flows []flowTail    //lcws:field guarded(mu) — per-weight virtual-finish chains
	vt    uint64        //lcws:field guarded(mu) — class-local virtual time (largest popped pass)
	seq   uint64        //lcws:field guarded(mu) — FIFO tie-break allocator
	pass  atomic.Uint64 //lcws:field atomic — class-level stride pass, read lock-free by pickers
	// stride is strideScale/classWeight; slots is the admission
	// semaphore (nil = unbounded), pre-filled with the class capacity.
	stride uint64        //lcws:field immutable
	slots  chan struct{} //lcws:field immutable — channel ops are internally synchronized
	_      [24]byte
}

// entry is one queued item: its payload, its within-class virtual
// finish time, and the FIFO tie-break sequence number.
type entry[T any] struct {
	v    T
	pass uint64
	seq  uint64
}

// flowTail remembers the last virtual finish time handed out to items
// of one weight value, so a burst from one flow is spaced stride apart
// instead of all landing at the same pass.
type flowTail struct {
	weight int
	last   uint64
}

// NewQoS returns a QoS queue with the given per-class weights and
// admission capacities. A non-positive weight defaults to 1; a
// non-positive capacity means unbounded (no admission semaphore).
func NewQoS[T any](weights, caps [NumClasses]int) *QoS[T] {
	q := &QoS[T]{}
	for c := 0; c < NumClasses; c++ {
		w := weights[c]
		if w < 1 {
			w = 1
		}
		q.shards[c].stride = strideScale / uint64(w)
		if caps[c] > 0 {
			sem := make(chan struct{}, caps[c])
			for i := 0; i < caps[c]; i++ {
				sem <- struct{}{}
			}
			q.shards[c].slots = sem
		}
	}
	return q
}

// TryAcquire takes one admission slot of class c without blocking,
// reporting success. Unbounded classes always succeed. Each queued
// item must hold one slot; the pop that removes it returns the slot.
func (q *QoS[T]) TryAcquire(c int) bool {
	sem := q.shards[c].slots
	if sem == nil {
		return true
	}
	select {
	case <-sem:
		return true
	default:
		return false
	}
}

// SlotChan returns class c's admission semaphore for a blocking
// acquire (receive one token = one slot), or nil when the class is
// unbounded — a nil channel blocks forever in a select, so callers
// must TryAcquire first and only select when it failed, which cannot
// happen for unbounded classes.
func (q *QoS[T]) SlotChan(c int) <-chan struct{} { return q.shards[c].slots }

// Release returns an admission slot of class c without pushing; used
// by a submitter that acquired a slot and then rejected the job.
func (q *QoS[T]) Release(c int) {
	if sem := q.shards[c].slots; sem != nil {
		sem <- struct{}{}
	}
}

// Push enqueues v under class c with the given flow weight (values < 1
// are treated as 1). The caller of a bounded class must already hold
// one admission slot for the item. Safe from any goroutine.
func (q *QoS[T]) Push(v T, c, weight int) {
	if weight < 1 {
		weight = 1
	}
	sh := &q.shards[c]
	sh.mu.Lock()
	// Within-class virtual finish time: chain off this weight flow's
	// previous finish (so bursts space out stride apart) but never
	// behind the class virtual time (so an idle flow gets no credit).
	start := sh.vt
	fi := -1
	for i := range sh.flows {
		if sh.flows[i].weight == weight {
			fi = i
			if sh.flows[i].last > start {
				start = sh.flows[i].last
			}
			break
		}
	}
	finish := start + strideScale/uint64(weight)
	if fi >= 0 {
		sh.flows[fi].last = finish
	} else {
		sh.flows = append(sh.flows, flowTail{weight: weight, last: finish})
	}
	sh.heap = heapPush(sh.heap, entry[T]{v: v, pass: finish, seq: sh.seq})
	sh.seq++
	if len(sh.heap) == 1 {
		// Empty→non-empty: catch the class pass up to the global clock
		// (no banked credit), then publish the ready bit *before* the
		// size increment so any picker that observes size > 0 for this
		// item also observes its class bit.
		if clk := q.clock.Load(); clk > sh.pass.Load() {
			sh.pass.Store(clk)
		}
		q.setReady(uint32(1) << uint(c))
	}
	// The size increment is the Dekker publication read by Empty: it
	// must happen before the caller scans the park bitset, and it does —
	// it is sequenced before Push returns.
	q.size.Add(1)
	sh.mu.Unlock()
}

// TryPop removes and returns the item the stride order serves next, or
// (zero, false) when the queue is empty. The empty fast path is a
// single atomic load so busy workers can poll the injector without
// contending on any lock.
func (q *QoS[T]) TryPop() (T, bool) {
	var zero T
	if q.size.Load() == 0 {
		return zero, false
	}
	return q.popMask((1 << NumClasses) - 1)
}

// TryPopAbove pops the next item only if the stride order's next class
// is strictly more urgent than class c (a smaller index): it is the
// checkpoint-yield pickup, which accelerates a more urgent class's
// turn without granting it any pickup the weighted-fair order would
// not have given it anyway.
func (q *QoS[T]) TryPopAbove(c int) (T, bool) {
	var zero T
	above := uint32(1)<<uint(c) - 1
	if q.ready.Load()&above == 0 {
		return zero, false
	}
	// Recompute the full stride choice: yield only when a class above c
	// also holds the minimum pass among all ready classes.
	avail := q.ready.Load() & ((1 << NumClasses) - 1)
	if best := q.bestOf(avail); best < 0 || best >= c {
		return zero, false
	}
	return q.popMask(above)
}

// ReadyAbove reports, with one atomic load, whether any class strictly
// more urgent than c has queued items — the cheap probe a checkpoint
// runs before considering a yield.
func (q *QoS[T]) ReadyAbove(c int) bool {
	return q.ready.Load()&(uint32(1)<<uint(c)-1) != 0
}

// bestOf returns the ready class in mask with the minimum class pass
// (ties to the more urgent class), or -1 when mask is empty.
func (q *QoS[T]) bestOf(mask uint32) int {
	best, bestPass := -1, uint64(0)
	for c := 0; c < NumClasses; c++ {
		if mask&(uint32(1)<<uint(c)) == 0 {
			continue
		}
		if p := q.shards[c].pass.Load(); best < 0 || p < bestPass {
			best, bestPass = c, p
		}
	}
	return best
}

// popMask pops the stride order's next item among the classes in
// allowed, or (zero, false) when none of them holds one.
func (q *QoS[T]) popMask(allowed uint32) (T, bool) {
	var zero T
	for {
		avail := q.ready.Load() & allowed
		if avail == 0 {
			// The lock-free mask can lag pushes and pops by an instant;
			// one locked pass over the allowed shards settles the answer.
			for c := 0; c < NumClasses; c++ {
				if allowed&(uint32(1)<<uint(c)) == 0 {
					continue
				}
				if v, ok := q.popClass(c); ok {
					return v, true
				}
			}
			return zero, false
		}
		if v, ok := q.popClass(q.bestOf(avail)); ok {
			return v, true
		}
		// Raced with another picker that emptied the chosen class;
		// re-read the mask and choose again.
	}
}

// popClass pops class c's minimum-pass item, advances the class-level
// stride state, and releases the item's admission slot. Returns
// (zero, false) when the shard is empty.
func (q *QoS[T]) popClass(c int) (T, bool) {
	var zero T
	sh := &q.shards[c]
	sh.mu.Lock()
	if len(sh.heap) == 0 {
		sh.mu.Unlock()
		return zero, false
	}
	var e entry[T]
	sh.heap, e = heapPopMin(sh.heap)
	if e.pass > sh.vt {
		sh.vt = e.pass
	}
	// served is the virtual time this pop runs at — the class's pass
	// before the stride advance, which the picker chose as the minimum
	// among ready classes. The global clock tracks served, NOT the
	// advanced pass: advancing the clock to pass+stride would let the
	// lightest-weight class (largest stride) drag the clock ahead of
	// everyone, and the empty→non-empty catch-up would then erase the
	// heavy classes' weight advantage every time a closed-loop tenant
	// briefly drained its class.
	served := sh.pass.Load()
	sh.pass.Store(served + sh.stride)
	if len(sh.heap) == 0 {
		q.clearReady(uint32(1) << uint(c))
	}
	q.size.Add(-1)
	sh.mu.Unlock()
	// Advance the global clock to the served time (monotone max) so
	// waking classes catch up to the present rather than the past.
	for {
		old := q.clock.Load()
		if served <= old || q.clock.CompareAndSwap(old, served) {
			break
		}
	}
	if sh.slots != nil {
		// Return the popped item's admission slot. Sends never exceed
		// the channel capacity: every queued item acquired exactly one.
		sh.slots <- struct{}{}
	}
	return e.v, true
}

// Len reports the total number of queued items across all classes.
func (q *QoS[T]) Len() int { return int(q.size.Load()) }

// ClassLen reports the number of queued items of class c.
func (q *QoS[T]) ClassLen(c int) int {
	sh := &q.shards[c]
	sh.mu.Lock()
	n := len(sh.heap)
	sh.mu.Unlock()
	return n
}

// Empty reports whether every shard is empty. It is a single atomic
// load, ordered after Push's aggregate-size publication, so it is safe
// to use in the park/submit Dekker handshake.
func (q *QoS[T]) Empty() bool { return q.size.Load() == 0 }

// setReady ors bit into the ready mask (Go 1.22 has no atomic Or on
// Uint32).
func (q *QoS[T]) setReady(bit uint32) {
	for {
		old := q.ready.Load()
		if old&bit == bit || q.ready.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// clearReady clears bit in the ready mask.
func (q *QoS[T]) clearReady(bit uint32) {
	for {
		old := q.ready.Load()
		if old&bit == 0 || q.ready.CompareAndSwap(old, old&^bit) {
			return
		}
	}
}

// heapPush inserts e into the (pass, seq) min-heap h.
func heapPush[T any](h []entry[T], e entry[T]) []entry[T] {
	h = append(h, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !entryLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

// heapPopMin removes and returns the minimum entry of h.
func heapPopMin[T any](h []entry[T]) ([]entry[T], entry[T]) {
	min := h[0]
	n := len(h) - 1
	h[0] = h[n]
	var zero entry[T]
	h[n] = zero // release the payload reference for GC
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && entryLess(h[l], h[small]) {
			small = l
		}
		if r < n && entryLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return h, min
}

func entryLess[T any](a, b entry[T]) bool {
	if a.pass != b.pass {
		return a.pass < b.pass
	}
	return a.seq < b.seq
}
