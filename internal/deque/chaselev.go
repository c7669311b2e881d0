package deque

import (
	"fmt"
	"sync/atomic"

	"lcws/internal/counters"
)

// clBuf is one backing-array generation of a ChaseLev deque; see splitBuf
// for the generation protocol (owner-side copy at unchanged absolute
// indices, single atomic publish, superseded generations never written).
//
//lcws:manifest
type clBuf[T any] struct {
	slots []atomic.Pointer[T] //lcws:field immutable — set before the generation is published; slots are atomic
	mask  int64               //lcws:field immutable — len(slots)-1; len(slots) is a power of two
}

// ChaseLev is a fully concurrent Chase-Lev/ABP style work-stealing deque,
// standing in for Parlay's stock Work Stealing deque (the paper's
// baseline). Every task in it can be taken by any processor at any time,
// which is exactly why the owner's own pop_bottom needs a memory fence
// (Attiya et al., "Laws of Order") and a CAS when racing for the last
// element.
//
// The buffer is circular; indices are absolute and monotonic, so the
// capacity bounds the live window bot - top. Like the split deque the
// array grows by owner-side doubling up to the maximum capacity — this is
// exactly the dynamic circular array of Chase & Lev's original paper:
// growth preserves absolute indices and touches neither top nor the age
// word, so a thief that raced onto the old generation either validates
// its claim with its usual CAS (the slot content for a live index is
// identical in both generations) or fails it because top moved. At the
// ceiling TryPushBottom reports failure and the scheduler core spills.
//
//lcws:manifest
type ChaseLev[T any] struct {
	top     atomic.Int64  //lcws:field atomic — stock mode: next index to steal from
	bot     atomic.Int64  //lcws:field atomic — next index to push at
	age     atomic.Uint64 //lcws:field atomic — batch mode: packed (tag, top); unused in stock mode
	batched bool          //lcws:field immutable
	maxCap  int64         //lcws:field immutable — growth ceiling; TryPushBottom fails beyond it
	initCap int64         //lcws:field immutable — construction-time capacity; Teardown shrinks back to it

	// buf is the current array generation; grow publishes a doubled one.
	// Thieves load it after their top/age load; see splitBuf.
	buf atomic.Pointer[clBuf[T]] //lcws:field atomic

	// ownerSlots/ownerMask cache the current generation for the owner's
	// push/pop paths (see SplitDeque: only owner-side grow replaces the
	// generation, so the cache is coherent for the owner; thieves must
	// load buf).
	ownerSlots []atomic.Pointer[T] //lcws:field owner — same backing array buf points at
	ownerMask  int64               //lcws:field owner — copy of the current generation's mask

	// [dirtyLo, dirtyHi) spans every absolute index pushed since the
	// last sweep: only their slots can still hold a task pointer. See
	// sweep.
	dirtyLo int64 //lcws:field owner — index the last sweep drained the deque at
	dirtyHi int64 //lcws:field owner — one past the highest index pushed since
}

// NewChaseLev returns a ChaseLev deque whose initial capacity is the
// smallest power of two >= capacity (DefaultCapacity if capacity <= 0),
// with the default growth ceiling.
func NewChaseLev[T any](capacity int) *ChaseLev[T] {
	return NewChaseLevMax[T](capacity, 0)
}

// NewChaseLevMax is NewChaseLev with an explicit growth ceiling
// (DefaultMaxCapacity if <= 0; rounded up to a power of two and floored
// at the initial capacity).
func NewChaseLevMax[T any](capacity, maxCapacity int) *ChaseLev[T] {
	n := uint64(normalizeCapacity(capacity))
	d := &ChaseLev[T]{maxCap: int64(normalizeMaxCapacity(maxCapacity, n)), initCap: int64(n)}
	bb := &clBuf[T]{slots: make([]atomic.Pointer[T], n), mask: int64(n) - 1}
	//lcws:presync constructor: the deque has not been published yet
	d.buf.Store(bb)
	//lcws:presync constructor: the deque has not been published yet
	d.ownerSlots = bb.slots
	//lcws:presync constructor: the deque has not been published yet
	d.ownerMask = bb.mask
	return d
}

// NewChaseLevBatch returns a ChaseLev deque that supports multi-task
// steals through PopTopN (Options.StealBatch mode).
//
// A plain int64 top cannot support batched claims: the stock owner pop
// only CASes top when racing for the last element, so a stalled thief
// whose CAS claims [top, top+n) with n >= 2 could re-claim slots the
// owner plain-took from the bottom. The batch variant therefore replaces
// top with a packed (tag, top) age word and makes *every* owner pop bump
// the tag with a CAS (see the batch extension in counters/model.go), so
// a successful steal CAS proves no owner pop intervened since the thief
// read the word. The tag is 16 bits wide and top 48; an ABA false match
// would need a thief stalled across exactly a multiple of 2^16 owner
// pops with no intervening steal, the same vanishing-probability class
// as the split deque's 32-bit tag.
func NewChaseLevBatch[T any](capacity int) *ChaseLev[T] {
	return NewChaseLevBatchMax[T](capacity, 0)
}

// NewChaseLevBatchMax is NewChaseLevBatch with an explicit growth
// ceiling.
func NewChaseLevBatchMax[T any](capacity, maxCapacity int) *ChaseLev[T] {
	d := NewChaseLevMax[T](capacity, maxCapacity)
	//lcws:presync constructor: the deque has not been published yet
	d.batched = true
	return d
}

// Batched reports whether the deque was built by NewChaseLevBatch.
func (d *ChaseLev[T]) Batched() bool { return d.batched }

// batchAge packs the batch-mode top index (low 48 bits) and owner-pop tag
// (high 16 bits) into the word that both owner pops and steals CAS.
func packBatchAge(top int64, tag uint16) uint64 {
	return uint64(tag)<<48 | uint64(top)&batchTopMask
}

func unpackBatchAge(a uint64) (top int64, tag uint16) {
	return int64(a & batchTopMask), uint16(a >> 48)
}

const batchTopMask = 1<<48 - 1

// topIndex returns the current steal index in either mode.
func (d *ChaseLev[T]) topIndex() int64 {
	if d.batched {
		t, _ := unpackBatchAge(d.age.Load())
		return t
	}
	return d.top.Load()
}

// Capacity returns the current size of the backing circular buffer.
func (d *ChaseLev[T]) Capacity() int { return len(d.buf.Load().slots) }

// MaxCapacity returns the growth ceiling.
func (d *ChaseLev[T]) MaxCapacity() int { return int(d.maxCap) }

// PushBottom appends t at the bottom, growing the array if the live
// window is full. Per the counting model a WS push costs one fence (the
// release ordering on bot that makes the new task visible to thieves).
// It panics when the deque is full at its maximum capacity; schedulers
// use TryPushBottom and spill instead.
//
//lcws:noalloc
func (d *ChaseLev[T]) PushBottom(t *T, c *counters.Worker) {
	if !d.TryPushBottom(t, c) {
		panic(fmt.Sprintf("deque: chase-lev deque at its maximum capacity (%d live tasks); spill via SpillOldest or raise Options.MaxDequeCapacity", d.maxCap))
	}
}

// TryPushBottom is PushBottom that reports failure instead of panicking
// when the deque is full at its maximum capacity. Owner-only.
//
//lcws:noalloc
func (d *ChaseLev[T]) TryPushBottom(t *T, c *counters.Worker) bool {
	b := d.bot.Load()
	if top := d.topIndex(); b-top > d.ownerMask {
		if 2*(d.ownerMask+1) > d.maxCap {
			return false
		}
		d.grow(top, b, c)
	}
	d.ownerSlots[b&d.ownerMask].Store(t)
	d.bot.Store(b + 1)
	d.dirtyHi = max(d.dirtyHi, b+1)
	c.Inc(counters.TaskPushed)
	c.Add(counters.Fence, counters.WSPushFences)
	return true
}

// grow publishes a doubled array generation preserving absolute indices
// (Chase & Lev's dynamic circular array): every live slot in [top, b) is
// copied to the same absolute index under the new mask, then the
// generation is published with one atomic pointer store. Neither top nor
// the age word is touched, so an in-flight steal validates against
// either generation — the content of a live absolute index is identical
// in both, the old generation is never written again, and any slot whose
// content could differ has had top move past it, failing the thief's
// CAS. (A thief advancing top during the copy merely makes some copied
// slots dead.) Owner-only; the owner cache is refreshed before the
// publish (same goroutine for the owner, thieves only ever see buf).
// The allocation is why growth lives outside the //lcws:noalloc push
// path.
func (d *ChaseLev[T]) grow(top, b int64, c *counters.Worker) {
	size := 2 * (d.ownerMask + 1)
	nb := &clBuf[T]{slots: make([]atomic.Pointer[T], size), mask: size - 1}
	for i := top; i < b; i++ {
		nb.slots[i&nb.mask].Store(d.ownerSlots[i&d.ownerMask].Load())
	}
	d.ownerSlots = nb.slots
	d.ownerMask = nb.mask
	d.buf.Store(nb)
	c.Inc(counters.DequeGrow)
}

// Teardown releases a grown array generation back to the initial
// capacity: grow in reverse — a fresh initial-capacity generation is
// published with one pointer store, no index moves, top/bot/age
// untouched. The deque is empty (no live slots to copy) and a stale
// thief's claim CAS fails against the unmoved indices exactly as it
// would across a grow.
//
// Epoch-guarded: the caller (core.reclaimSlot) proves the owner
// goroutine has exited and the worker-set epoch has quiesced before
// calling. A no-op when the deque never grew.
//
//lcws:epoch-guarded
func (d *ChaseLev[T]) Teardown() {
	if int64(len(d.ownerSlots)) <= d.initCap {
		return
	}
	nb := &clBuf[T]{slots: make([]atomic.Pointer[T], d.initCap), mask: d.initCap - 1}
	d.ownerSlots = nb.slots
	d.ownerMask = nb.mask
	d.buf.Store(nb)
}

// SpillOldest removes up to len(out) of the deque's oldest tasks,
// writing them into out oldest-first, and returns how many were removed.
// Owner-only by convention (the scheduler calls it when TryPushBottom
// fails at the maximum capacity), but implemented as owner self-steal
// through the thief-safe PopTop path, so it is trivially correct against
// concurrent thieves: an Abort means a thief took the task instead,
// which is progress too. The self-steals execute PopTop's fence/CAS
// accounting; spilling is an off-model emergency path, so runs that
// spill deviate from the paper's exact WS counting identities (runs
// that never hit the capacity ceiling are unaffected).
//
//lcws:noalloc
func (d *ChaseLev[T]) SpillOldest(out []*T, c *counters.Worker) int {
	n := 0
	for n < len(out) {
		t, res := d.PopTop(c)
		switch res {
		case Stolen:
			out[n] = t
			n++
		case Abort:
			continue
		default:
			return n
		}
	}
	return n
}

// PopBottom removes and returns the bottom-most task, or nil when the
// deque is empty. Per the counting model it always costs one fence and an
// additional CAS when racing thieves for the last element.
//
//lcws:noalloc
func (d *ChaseLev[T]) PopBottom(c *counters.Worker) *T {
	if d.batched {
		return d.popBottomBatch(c)
	}
	b := d.bot.Load() - 1
	d.bot.Store(b)
	c.Add(counters.Fence, counters.WSPopFences) // the unavoidable store-load fence
	t := d.top.Load()
	if t > b {
		// Deque was empty; restore bot.
		d.bot.Store(t)
		d.sweep(t)
		return nil
	}
	task := d.ownerSlots[b&d.ownerMask].Load()
	if t < b {
		// More than one element: no race possible.
		return task
	}
	// Exactly one element: race thieves with a CAS on top.
	c.Add(counters.CAS, counters.WSPopRaceCAS)
	if !d.top.CompareAndSwap(t, t+1) {
		task = nil
	}
	d.bot.Store(t + 1)
	d.sweep(t + 1) // won or lost, the deque is now empty
	return task
}

// sweep clears every slot the owner's pops and the thieves' steals left
// pointing at a dead task, so the deque does not keep recycled task
// descriptors reachable. Without it a popped or stolen slot keeps its
// pointer until a later push lands on the same slot, and since indices
// are absolute, steals walk the live window around the whole ring until
// every slot pins a task the freelists had already handed to the GC.
//
// The owner calls it only where the deque has just become empty at
// index at (top == bot == at): the last-element pop and the empty pop.
// Every fork-join owner reaches one of the two whenever its deque
// drains — through its own pops, or at the join that finds its sibling
// stolen — so retention is bounded by the pushes since the last drain.
// At that point no index is live: an index below top can never be
// claimed again (top only grows, so a thief still holding one fails its
// CAS) and one at or above bot was popped. All slots of
// [dirtyLo, dirtyHi) are therefore dead and are cleared, clamped to one
// ring's worth; every other slot is already nil.
//
// Clearing here rather than on every pop keeps the fork fast path at
// its two accounted fences: on amd64 each atomic store is an XCHG, and
// a per-pop clear made owner push/pop pairs ~25% slower on a 2-core
// x86-64 host, while this sweep leaves them unchanged. The stores order
// nothing (a thief can only read a cleared slot for an index whose
// claim CAS must fail), so they are outside the counting model.
//
//lcws:noalloc
func (d *ChaseLev[T]) sweep(at int64) {
	lo, hi := d.dirtyLo, d.dirtyHi
	if n := d.ownerMask + 1; hi-lo > n {
		lo = hi - n
	}
	for i := lo; i < hi; i++ {
		d.ownerSlots[i&d.ownerMask].Store(nil)
	}
	d.dirtyLo, d.dirtyHi = at, at
}

// popBottomBatch is the batch-mode owner pop: bot is taken back with the
// usual store-load fence, but the claim itself is a tag-bump CAS on the
// age word (WSBatchPopCAS) on every pop, not just for the last element —
// see NewChaseLevBatch for why batched steals require this.
//
//lcws:noalloc
func (d *ChaseLev[T]) popBottomBatch(c *counters.Worker) *T {
	b := d.bot.Load() - 1
	d.bot.Store(b)
	c.Add(counters.Fence, counters.WSPopFences)
	for {
		a := d.age.Load()
		t, tag := unpackBatchAge(a)
		if t > b {
			// Deque empty (possibly emptied by thieves since the bot
			// store); restore bot.
			d.bot.Store(t)
			d.sweep(t)
			return nil
		}
		task := d.ownerSlots[b&d.ownerMask].Load()
		c.Add(counters.CAS, counters.WSBatchPopCAS)
		if d.age.CompareAndSwap(a, packBatchAge(t, tag+1)) {
			if t == b {
				d.sweep(b) // took the last task: the deque is empty
			}
			return task
		}
		// A thief advanced top concurrently; retry against the new word.
	}
}

// PopTop attempts to steal the top-most task. Per the counting model an
// attempt costs one fence, plus one CAS when the deque was non-empty and
// the head CAS was reached. It never returns PrivateWork: the fully
// concurrent deque has no private part.
//
//lcws:noalloc
func (d *ChaseLev[T]) PopTop(c *counters.Worker) (*T, StealResult) {
	if d.batched {
		var buf [1]*T
		n, res := d.PopTopN(buf[:], c)
		if n > 0 {
			return buf[0], res
		}
		return nil, res
	}
	t := d.top.Load()
	c.Add(counters.Fence, counters.WSStealFences)
	b := d.bot.Load()
	if t >= b {
		return nil, Empty
	}
	bb := d.buf.Load() // after the top load; see clBuf
	task := bb.slots[t&bb.mask].Load()
	c.Add(counters.CAS, counters.WSStealCAS)
	if d.top.CompareAndSwap(t, t+1) {
		return task, Stolen
	}
	return nil, Abort
}

// PopTopN attempts to steal up to half of the deque (rounded up, capped
// at len(buf)) with one CAS on the age word, writing the stolen tasks
// into buf top-first and returning how many were claimed. It requires a
// deque built by NewChaseLevBatch; on a stock deque it degrades to a
// single-task PopTop, because with a plain top word a multi-task claim
// can race the owner's fence-only pop (see NewChaseLevBatch).
// Accounting per attempt matches the stock steal: one fence, plus one
// CAS when the deque was non-empty.
//
//lcws:noalloc
func (d *ChaseLev[T]) PopTopN(buf []*T, c *counters.Worker) (int, StealResult) {
	if len(buf) == 0 {
		panic("deque: PopTopN requires a non-empty batch buffer")
	}
	if !d.batched {
		t, res := d.PopTop(c)
		if t != nil {
			buf[0] = t
			return 1, res
		}
		return 0, res
	}
	a := d.age.Load()
	t, tag := unpackBatchAge(a)
	c.Add(counters.Fence, counters.WSStealFences)
	b := d.bot.Load()
	s := b - t
	if s <= 0 {
		return 0, Empty
	}
	n := (s + 1) / 2 // round(size/2), at least 1
	if n > int64(len(buf)) {
		n = int64(len(buf))
	}
	bb := d.buf.Load() // after the age load; see clBuf
	for i := int64(0); i < n; i++ {
		buf[i] = bb.slots[(t+i)&bb.mask].Load()
	}
	c.Add(counters.CAS, counters.WSStealCAS)
	if d.age.CompareAndSwap(a, packBatchAge(t+n, tag)) {
		return int(n), Stolen
	}
	return 0, Abort
}

// Size returns the current number of tasks. The value is racy under
// concurrency and is meant for assertions and tests.
func (d *ChaseLev[T]) Size() int {
	n := d.bot.Load() - d.topIndex()
	if n < 0 {
		return 0
	}
	return int(n)
}

// IsEmpty reports whether the deque is (racily) empty.
func (d *ChaseLev[T]) IsEmpty() bool { return d.Size() == 0 }

// HasPublicWork reports whether the deque (racily) holds stealable work;
// for the fully concurrent deque that is any work at all. Thieves use it
// in the parking lot's pre-park check.
func (d *ChaseLev[T]) HasPublicWork() bool { return d.Size() > 0 }
