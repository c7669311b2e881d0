package deque

import (
	"fmt"
	"sync/atomic"

	"lcws/internal/counters"
)

// splitBuf is one backing-array generation of a SplitDeque. Growth
// allocates a doubled splitBuf, copies the live window slot-for-slot at
// the same absolute indices, and publishes the new generation with a
// single atomic pointer store. A superseded generation is never written
// again, so a thief that raced onto the old array still reads the
// correct task for any absolute index its age CAS can validate.
//
//lcws:manifest
type splitBuf[T any] struct {
	slots []atomic.Pointer[T] //lcws:field immutable — set before the generation is published; slots are atomic
	mask  uint64              //lcws:field immutable — len(slots)-1; len(slots) is a power of two
}

// SplitDeque is the LCWS split deque of Listing 2. The task array is split
// at publicBot into a public part [top, publicBot) that thieves may steal
// from, and a private part [publicBot, bot) that only the owner touches.
//
// Index invariants (indices only reset to zero when the deque fully
// empties through PopPublicBottom, or — on a relaxed deque — through the
// owner's explicit index reset, see resetIndices):
//
//	top <= publicBot <= bot   (top from the age word)
//
// Indices are absolute and the backing array is circular (mask indexing),
// so the capacity bounds the live *window* bot - top, not the absolute
// position. The array grows by owner-side doubling up to the maximum
// capacity; at the ceiling TryPushBottom reports failure and the caller
// spills (see SpillOldest). Growth preserves absolute indices and touches
// neither the age word nor publicBot — re-verified exhaustively by the
// Grow op model in internal/verify, together with a negative model
// showing why a compacting grow that rewrites indices is unsound.
//
// Index width: top lives in 32 bits of the age word. A non-relaxed deque
// resets all indices to zero whenever it fully empties through
// PopPublicBottom, so top only outruns 2^32 after four billion steals
// without the deque ever draining. A RELAXED deque never takes that
// reset (its owner reclaims exclusively through tag-bumping UnexposeAll,
// which the monotone claim memory depends on), so instead it performs an
// explicit index reset: when Expose finds top at or above
// relaxedResetThreshold (2^31 — far below the wrap, and indices stay
// under threshold+maxCap between Expose calls because only Expose
// advances publicBot), the owner rebases the live window to index zero
// in a FRESH array generation, bumps the ABA tag, and advances the index
// epoch (see resetIndices). Thieves detect the epoch change and re-arm
// their claim memories; stamps from the old epoch fail the relaxed
// claim's validation, so stale claims straddling a reset fall back to
// the exclusive CAS or abort. The multiplicity bound of the relaxed
// protocol is therefore per-epoch: at most thieves+1 returns of one task
// within an epoch (an epoch spans at least 2^31 consumed tasks).
//
// In the C++ reference, bot and publicBot are plain unsigned ints and the
// algorithm's correctness rests on two explicit seq-cst fences. In Go both
// fields must be atomics because thieves read them (PopTop reads bot to
// distinguish Empty from PrivateWork, and reads publicBot to find the split
// point); Go atomics are seq-cst, which subsumes the fences. The fence and
// CAS accounting below records what the C++ implementation would execute.
//
//lcws:manifest
type SplitDeque[T any] struct {
	bot       atomic.Uint64 //lcws:field atomic — index of the empty slot below the bottom-most task
	publicBot atomic.Uint64 //lcws:field atomic — index below the bottom-most public task
	age       atomic.Uint64 //lcws:field atomic — packed (top, tag)
	raceFix   bool          //lcws:field immutable — use the §4 signal-safe pop_bottom
	relaxed   bool          //lcws:field immutable — enable the MultFree relaxed-claim lane (TakeTopRelaxed + owner repair)
	maxCap    uint64        //lcws:field immutable — growth ceiling; TryPushBottom fails beyond it
	initCap   uint64        //lcws:field immutable — construction-time capacity; Teardown shrinks back to it
	cachedTop uint64        //lcws:field owner — lower bound of top for the push window check; refreshed from age only when the window looks full
	maxPub    uint64        //lcws:field owner — high-water mark of publicBot (relaxed only): indices below it may have been observed by a relaxed thief

	// epoch counts the index resets of a relaxed deque (see resetIndices).
	// It only ever increments, and always as the LAST store of a reset, so
	// a thief that observes the new epoch is guaranteed to also observe
	// the fully rebased index state. Push stamps and thief claim memories
	// carry the epoch they were minted in; a stamp or claim from another
	// epoch is never honored by the relaxed lane.
	epoch atomic.Uint64 //lcws:field atomic

	// relNext is the relaxed-claim cursor of the MultFree steal protocol
	// (Castañeda & Piña, arXiv 2008.04424): packed (idx, tag) like age.
	// Thieves advance it with plain stores — no CAS, no fence on the
	// steal side — so it may transiently rewind (a stalled thief's store
	// landing late) or carry a stale tag (a store landing after an owner
	// reclaim bumped the tag). Every reader therefore treats it as a hint:
	// it is honored only when its tag matches the current age tag, and
	// only as a max against the authoritative top and the thief's own
	// monotone claim memory (RelClaim). The owner's repairRelaxed folds an
	// honored cursor into top, which is what keeps multiplicity bounded
	// across expose/unexpose epochs (see internal/verify).
	relNext atomic.Uint64 //lcws:field atomic

	// buf is the current array generation; grow publishes a doubled one.
	// Readers load it *after* loading the age word: the slot content for
	// a live absolute index is identical in every generation that was
	// current since that age value, so either load order validates.
	buf atomic.Pointer[splitBuf[T]] //lcws:field atomic

	// ownerSlots/ownerMask cache the current generation for the owner's
	// push/pop paths, so the per-fork fast path keeps the single-load
	// slot access it had before deques grew (no atomic pointer chase).
	// Only grow (owner-side) replaces the generation, so the cache is
	// trivially coherent for the owner; thieves must go through buf.
	ownerSlots []atomic.Pointer[T] //lcws:field owner — same backing array buf points at
	ownerMask  uint64              //lcws:field owner — copy of the current generation's mask

	// [dirtyLo, dirtyHi) spans every absolute index pushed since the
	// last sweep: only their slots can still hold a task pointer. See
	// sweep.
	dirtyLo uint64 //lcws:field owner — index the last sweep found the deque empty at
	dirtyHi uint64 //lcws:field owner — one past the highest index pushed since
}

// NewSplit returns a SplitDeque with the given initial capacity
// (DefaultCapacity if capacity <= 0, rounded up to a power of two) and
// the default growth ceiling. raceFix selects the §4 pop_bottom variant
// that is safe against an exposure request landing in the middle of
// pop_bottom; the Conservative Exposure policy (§4.1.1) instead keeps the
// original pop_bottom and avoids the race by never exposing the
// bottom-most task.
func NewSplit[T any](capacity int, raceFix bool) *SplitDeque[T] {
	return NewSplitMax[T](capacity, 0, raceFix)
}

// NewSplitMax is NewSplit with an explicit growth ceiling: the deque
// doubles its array on demand while the live window fits under
// maxCapacity (DefaultMaxCapacity if <= 0; rounded up to a power of two
// and floored at the initial capacity). At the ceiling TryPushBottom
// returns false instead of growing.
func NewSplitMax[T any](capacity, maxCapacity int, raceFix bool) *SplitDeque[T] {
	return newSplit[T](capacity, maxCapacity, raceFix, false)
}

// NewSplitRelaxed is NewSplitMax with the MultFree relaxed-claim lane
// enabled: thieves may steal through TakeTopRelaxed (plain read/write
// claims, bounded multiplicity) and the owner-side boundary operations
// (Expose, UnexposeAll) run the repairRelaxed cursor fold. The CAS steal
// path (PopTop, PopTopHalf) remains available for non-idempotent tasks.
func NewSplitRelaxed[T any](capacity, maxCapacity int, raceFix bool) *SplitDeque[T] {
	return newSplit[T](capacity, maxCapacity, raceFix, true)
}

func newSplit[T any](capacity, maxCapacity int, raceFix, relaxed bool) *SplitDeque[T] {
	n := uint64(normalizeCapacity(capacity))
	d := &SplitDeque[T]{
		raceFix: raceFix,
		relaxed: relaxed,
		maxCap:  normalizeMaxCapacity(maxCapacity, n),
		initCap: n,
	}
	bb := &splitBuf[T]{slots: make([]atomic.Pointer[T], n), mask: n - 1}
	//lcws:presync constructor: the deque has not been published yet
	d.buf.Store(bb)
	//lcws:presync constructor: the deque has not been published yet
	d.ownerSlots = bb.slots
	//lcws:presync constructor: the deque has not been published yet
	d.ownerMask = bb.mask
	return d
}

// Capacity returns the current size of the backing task array.
func (d *SplitDeque[T]) Capacity() int { return len(d.buf.Load().slots) }

// MaxCapacity returns the growth ceiling.
func (d *SplitDeque[T]) MaxCapacity() int { return int(d.maxCap) }

// loadSlot reads the task at absolute index i from the current array
// generation. Thief-path only: callers must load the age word first
// (see buf); owner paths use ownerSlot and skip the pointer load.
//
//lcws:noalloc
func (d *SplitDeque[T]) loadSlot(i uint64) *T {
	bb := d.buf.Load()
	return bb.slots[i&bb.mask].Load()
}

// ownerSlot is loadSlot for the owner's pop paths, reading through the
// owner-cached generation.
//
//lcws:noalloc
func (d *SplitDeque[T]) ownerSlot(i uint64) *T { return d.ownerSlots[i&d.ownerMask].Load() }

// PushBottom appends t to the private part, growing the array if the
// live window is full. Per the counting model it executes no
// synchronization operations (paper Lemma 1); the owner-cached top bound
// keeps even the fullness check off the shared age word except when the
// window genuinely looks full. It panics when the deque is at its
// maximum capacity; schedulers use TryPushBottom and spill instead.
//
//lcws:noalloc
func (d *SplitDeque[T]) PushBottom(t *T, c *counters.Worker) {
	if !d.TryPushBottom(t, c) {
		panic(fmt.Sprintf("deque: split deque at its maximum capacity (%d live tasks); spill via SpillOldest or raise Options.MaxDequeCapacity", d.maxCap))
	}
}

// TryPushBottom is PushBottom that reports failure instead of panicking
// when the deque is full at its maximum capacity. Owner-only.
//
//lcws:noalloc
func (d *SplitDeque[T]) TryPushBottom(t *T, c *counters.Worker) bool {
	b := d.bot.Load()
	if b-d.cachedTop > d.ownerMask {
		// The window looks full against the cached top bound; refresh the
		// bound from the age word (cold: at most once per capacity's
		// worth of pushes) and grow only if the window is genuinely full.
		top, _ := unpackAge(d.age.Load())
		d.cachedTop = uint64(top)
		if b-d.cachedTop > d.ownerMask {
			if 2*(d.ownerMask+1) > d.maxCap {
				return false
			}
			d.grow(d.cachedTop, b, c)
		}
	}
	d.ownerSlots[b&d.ownerMask].Store(t)
	d.bot.Store(b + 1)
	d.dirtyHi = max(d.dirtyHi, b+1)
	c.Inc(counters.TaskPushed)
	return true
}

// sweep clears every slot the owner's pops and the thieves' steals left
// pointing at a dead task, so the deque does not keep recycled task
// descriptors reachable — the split-deque twin of ChaseLev.sweep. The
// owner calls it only where it has just found the deque empty at index
// at (top, publicBot and bot all equal at): the two empty exits of
// PopPublicBottom (which reset the indices to zero) and UnexposeAll's
// all-stolen exit with an empty private part. A fork-join owner reaches
// one of them whenever its deque drains, so retention is bounded by the
// pushes since the last drain.
//
// At that point no index is live. An exclusive thief (PopTop,
// PopTopHalf) that read a slot before the sweep can only win its CAS if
// it won before the owner saw the deque empty; one that reads a cleared
// slot holds an age word the drain has already advanced or re-tagged,
// so its CAS fails. A relaxed thief treats a nil slot as a failed
// validation (TakeTopRelaxed) and aborts. The stores order nothing, so
// they are outside the counting model.
//
//lcws:noalloc
func (d *SplitDeque[T]) sweep(at uint64) {
	lo, hi := d.dirtyLo, d.dirtyHi
	if n := d.ownerMask + 1; hi-lo > n {
		lo = hi - n
	}
	for i := lo; i < hi; i++ {
		d.ownerSlots[i&d.ownerMask].Store(nil)
	}
	d.dirtyLo, d.dirtyHi = at, at
}

// grow publishes a doubled array generation preserving absolute indices:
// every live slot in [top, b) is copied to the same absolute index under
// the new mask, then the generation is published with one atomic pointer
// store. No index moves and neither the age word nor publicBot is
// touched — the content of a live absolute index is the same in both
// generations, and the old one is never written again, so a thief's
// steal CAS validates regardless of which generation its slot read hit.
// (A thief advancing top during the copy merely makes some copied slots
// dead; copying them is harmless.) Owner-only; called by TryPushBottom
// with the window genuinely full. The owner cache is refreshed before
// the publish; the order is irrelevant (same goroutine for the owner,
// and thieves only ever see buf). The allocation is why growth lives
// outside the //lcws:noalloc push path.
func (d *SplitDeque[T]) grow(top, b uint64, c *counters.Worker) {
	size := 2 * (d.ownerMask + 1)
	nb := &splitBuf[T]{slots: make([]atomic.Pointer[T], size), mask: size - 1}
	for i := top; i < b; i++ {
		nb.slots[i&nb.mask].Store(d.ownerSlots[i&d.ownerMask].Load())
	}
	d.ownerSlots = nb.slots
	d.ownerMask = nb.mask
	d.buf.Store(nb)
	c.Inc(counters.DequeGrow)
}

// Teardown releases a grown array generation back to the initial
// capacity — grow in reverse: a fresh initial-capacity generation is
// published with one pointer store, and no index moves (bot, publicBot,
// the age word, and the relaxed epoch are all untouched). The deque is
// empty, so there are no live slots to copy, and any stale thief state
// minted against the old generation — a sticky victim's cached pointer,
// a MultFree monotone claim cursor — revalidates against the new
// generation exactly as it would across a grow: the window is empty, so
// every claim fails validation harmlessly.
//
// Epoch-guarded: the caller (core.reclaimSlot) proves quiescence — the
// owner goroutine has exited through the retirement CAS and every
// worker pinned on an epoch that could reach this deque has drained —
// before calling. A no-op when the deque never grew.
//
//lcws:epoch-guarded
func (d *SplitDeque[T]) Teardown() {
	if uint64(len(d.ownerSlots)) <= d.initCap {
		return
	}
	nb := &splitBuf[T]{slots: make([]atomic.Pointer[T], d.initCap), mask: d.initCap - 1}
	d.ownerSlots = nb.slots
	d.ownerMask = nb.mask
	d.buf.Store(nb)
}

// SpillOldest removes up to len(out) of the deque's oldest tasks,
// writing them into out oldest-first, and returns how many were removed.
// Owner-only; the scheduler calls it when TryPushBottom fails at the
// maximum capacity, parking the extracted tasks on an overflow list.
//
// The protocol reclaims the public part first (UnexposeAll, which bumps
// the ABA tag), so no thief holds a validatable claim on any slot; the
// owner then reads the oldest k tasks and advances top past them with a
// plain tag-bumping age store. Between the age store and the publicBot
// store a thief can observe the transient top > publicBot, which every
// thief path treats as "nothing public" — the extracted slots are never
// observable as stealable.
//
//lcws:noalloc
func (d *SplitDeque[T]) SpillOldest(out []*T, c *counters.Worker) int {
	if len(out) == 0 {
		return 0
	}
	d.UnexposeAll(c)
	a := d.age.Load()
	top, tag := unpackAge(a)
	b := d.bot.Load()
	n := b - uint64(top) // the whole deque is private after UnexposeAll
	if n == 0 {
		return 0
	}
	k := uint64(len(out))
	if k > n {
		k = n
	}
	for i := uint64(0); i < k; i++ {
		out[i] = d.ownerSlot(uint64(top) + i)
	}
	// No thief CAS can target the current age value: after UnexposeAll
	// publicBot == top, and a thief only CASes when it read
	// publicBot > top — so any in-flight CAS holds a stale (pre-bump)
	// age and must fail. A plain store therefore cannot lose a race; the
	// extra tag bump invalidates the new value too, for symmetry with
	// every other owner-side reclaim.
	d.age.Store(packAge(top+uint32(k), tag+1))
	d.publicBot.Store(uint64(top) + k)
	d.cachedTop = uint64(top) + k
	c.Inc(counters.Fence) // ordering of the age store against the publicBot store
	return int(k)
}

// PopBottom removes and returns the bottom-most private task, or nil when
// the private part is empty. Per the counting model it executes no
// synchronization operations (paper Lemma 2).
//
// With raceFix enabled this is the §4 variant: bot is decremented before
// the comparison so that an exposure request arriving between the
// comparison and the decrement cannot make the owner read a task that has
// just become public. When the variant returns nil it leaves bot one below
// publicBot; the subsequent PopPublicBottom call (the only legal next deque
// operation in the scheduler loop) repairs bot on every path.
//
//lcws:noalloc
func (d *SplitDeque[T]) PopBottom(c *counters.Worker) *T {
	if d.raceFix {
		b := d.bot.Load()
		if b == 0 {
			// Deque completely empty and already reset; nothing to
			// decrement. (publicBot <= bot == 0.)
			return nil
		}
		b--
		d.bot.Store(b)
		if b < d.publicBot.Load() {
			return nil
		}
		return d.ownerSlot(b)
	}
	b := d.bot.Load()
	if b == d.publicBot.Load() {
		return nil
	}
	b--
	d.bot.Store(b)
	return d.ownerSlot(b)
}

// PopPublicBottom removes and returns the bottom-most public task, or nil
// when the deque is empty or the last public task was lost to a thief.
// Only the owner may call it, and only when the private part is empty —
// i.e. after PopBottom returned nil, exactly as in the scheduler loop of
// Listing 1 (the operation rewrites bot, so private tasks would be lost
// otherwise). Fence/CAS accounting follows Listing 2:
// one fence on the common path (line 12), a second fence on the emptying
// path (line 27), and one CAS attempt when racing thieves for the last
// element.
//
//lcws:noalloc
func (d *SplitDeque[T]) PopPublicBottom(c *counters.Worker) *T {
	pb := d.publicBot.Load()
	if pb == 0 {
		if d.raceFix {
			// §4: repair bot after a failed race-fix PopBottom.
			d.bot.Store(0)
		}
		d.sweep(0) // the private part is empty, and so is the public one
		return nil
	}
	pb--
	d.publicBot.Store(pb)
	c.Add(counters.Fence, counters.LCWSPopPublicFences) // line 12 fence
	task := d.ownerSlot(pb)
	oldAge := d.age.Load()
	top, tag := unpackAge(oldAge)
	if pb > uint64(top) {
		// More public tasks remain below top; no race possible.
		d.bot.Store(pb)
		c.Inc(counters.ExposedNotStolen)
		return task
	}
	// The deque is emptying: race thieves for the last element and reset
	// all indices to zero.
	d.bot.Store(0)
	newAge := packAge(0, tag+1)
	localBot := pb
	d.publicBot.Store(0)
	d.cachedTop = 0 // top resets with the age store/CAS below
	won := false
	if localBot == uint64(top) {
		c.Add(counters.CAS, counters.LCWSPopPublicRaceCAS)
		won = d.age.CompareAndSwap(oldAge, newAge)
	}
	if !won {
		d.age.Store(newAge)
		task = nil
	} else {
		c.Inc(counters.ExposedNotStolen)
	}
	c.Add(counters.Fence, counters.LCWSPopPublicEmptyFences-counters.LCWSPopPublicFences) // line 27 fence
	// Won or lost, the deque is now empty.
	d.sweep(0)
	return task
}

// PopTop attempts to steal the top-most public task. Any goroutine may
// call it; c must be the calling thief's counter record. Per the counting
// model a steal attempt that finds public work costs one CAS; attempts
// that find the public part empty cost nothing.
//
// Note: Listing 2 line 39 reads "(public_bot < bot) ? nullptr :
// PRIVATE_WORK", which contradicts the prose ("if only the public part is
// empty it returns PRIVATE_WORK"); public_bot < bot is precisely the
// private-part-non-empty condition, so we implement the prose semantics.
//
//lcws:noalloc
func (d *SplitDeque[T]) PopTop(c *counters.Worker) (*T, StealResult) {
	oldAge := d.age.Load()
	top, tag := unpackAge(oldAge)
	pb := d.publicBot.Load()
	if pb > uint64(top) {
		task := d.loadSlot(uint64(top))
		c.Add(counters.CAS, counters.LCWSStealCAS)
		if d.age.CompareAndSwap(oldAge, packAge(top+1, tag)) {
			return task, Stolen
		}
		return nil, Abort
	}
	if pb < d.bot.Load() {
		return nil, PrivateWork
	}
	return nil, Empty
}

// PopTopHalf attempts to steal up to half of the public part (rounded up,
// capped at len(buf)) with a single CAS on the age word, writing the
// stolen tasks into buf in top-first (oldest-first) order and returning
// how many were claimed. Accounting matches PopTop: one CAS per attempt
// that found public work (the batch rides on the same claim), nothing
// otherwise.
//
// OWNER DISCIPLINE (batch mode): PopTopHalf is safe against concurrent
// owner operations only when the owner reclaims public work exclusively
// through UnexposeAll and never calls PopPublicBottom. The single-steal
// PopTop is safe against PopPublicBottom because it claims exactly index
// top, which the owner's common (non-emptying) path never touches and the
// emptying path races with a CAS. A batch additionally claims indices
// above top, and the common path of PopPublicBottom plain-takes those
// without touching the age word — a stalled thief's CAS would still
// succeed and re-claim owner-consumed tasks. UnexposeAll instead bumps
// the ABA tag before any reclaimed slot is reused, so a successful batch
// CAS proves every claimed slot was untouched since it was read.
//
//lcws:noalloc
func (d *SplitDeque[T]) PopTopHalf(buf []*T, c *counters.Worker) (int, StealResult) {
	if len(buf) == 0 {
		panic("deque: PopTopHalf requires a non-empty batch buffer")
	}
	oldAge := d.age.Load()
	top, tag := unpackAge(oldAge)
	pb := d.publicBot.Load()
	if pb > uint64(top) {
		n := (pb - uint64(top) + 1) / 2 // round(avail/2), at least 1
		if n > uint64(len(buf)) {
			n = uint64(len(buf))
		}
		bb := d.buf.Load() // after the age load; see buf
		for i := uint64(0); i < n; i++ {
			buf[i] = bb.slots[(uint64(top)+i)&bb.mask].Load()
		}
		c.Add(counters.CAS, counters.LCWSStealCAS)
		if d.age.CompareAndSwap(oldAge, packAge(top+uint32(n), tag)) {
			return int(n), Stolen
		}
		return 0, Abort
	}
	if pb < d.bot.Load() {
		return 0, PrivateWork
	}
	return 0, Empty
}

// TakeTopRelaxed attempts to steal the top-most unclaimed public task
// with the MultFree relaxed-claim protocol: the claim is a plain store to
// the relNext cursor — per the counting model the steal side executes no
// fence and no CAS (the fully read/write steal of Castañeda & Piña). The
// price is bounded multiplicity: because the claim is not atomic with its
// validation, a task may be returned by more than one thief (at most once
// per thief; internal/verify proves the bound exhaustively for the
// modeled configurations). cl is this thief's private, monotone claim
// memory for this victim: a claim below it aborts (see sharedClaim), so
// the thief never returns the same claim index twice within an epoch,
// which together with the owner repair is what bounds a task's
// multiplicity by the number of thieves per epoch (the rare index reset
// moves to a fresh epoch whose stale claims are rejected by the stamp
// validation).
//
// stampOf must return the push stamp the owner wrote into the task
// (PushStamp at fork time; the read must be atomic, because stale slot
// pointers may reference descriptors the owner has recycled). The stamp
// is the relaxed lane's post-read validation: the claim is honored only
// when the loaded task was pushed at exactly the (epoch, index) claimed.
// Without it a thief that stalls between its publicBot load and the slot
// load while the victim's live window slides a full capacity would read
// the task pushed at claim+capacity — a private, possibly never-exposed
// task, unprotected by the owner's join arbitration — out of the slot
// the indices alias to (the backing array is circular). The exclusive
// CAS paths need no stamp: any such slide advances top past the claim
// (the window bound forces it) or bumps the tag, failing the CAS.
//
// idempotent gates eligibility per task: when the claimed slot fails the
// predicate (a non-idempotent Fork2 closure), the thief falls back to the
// exclusive CAS claim of PopTop — possible only when the claim is the
// authoritative top — so non-idempotent tasks are never duplicated.
//
//lcws:noalloc
func (d *SplitDeque[T]) TakeTopRelaxed(cl *RelClaim, idempotent func(*T) bool, stampOf func(*T) uint64, c *counters.Worker) (*T, StealResult) {
	epoch := d.epoch.Load()
	if cl.epoch != epoch {
		// The victim reset its indices since this memory was armed, so
		// its claims are about dead coordinates. Re-arm from zero: safe,
		// because the stamp validation below rejects every slot whose
		// content predates the epoch this claim was computed in.
		cl.epoch = epoch
		cl.next = 0
	}
	oldAge := d.age.Load()
	top, tag := unpackAge(oldAge)
	claim := d.sharedClaim(top, tag)
	pb := d.publicBot.Load()
	if claim >= pb {
		if pb < d.bot.Load() {
			return nil, PrivateWork
		}
		return nil, Empty
	}
	if cl.next > claim {
		// This thief already returned the index (see sharedClaim).
		return nil, Abort
	}
	task := d.loadSlot(claim)
	if task == nil {
		// A read below a grown generation's copy window, or mid-reset:
		// nothing claimable here.
		return nil, Abort
	}
	if stampOf(task)&^StampExposed != makeStamp(epoch, claim) {
		// The slot does not hold the task pushed at the claimed
		// (epoch, index): the read raced a window slide onto an aliased
		// slot, an index reset, or a re-push. Only the exclusive CAS can
		// settle such a race, and only at the authoritative top: CAS
		// success proves the age word — top and tag — never moved since
		// oldAge, which retroactively validates the slot read (any
		// overwrite of the claimed slot requires advancing top past the
		// claim or bumping the tag). This is also how tasks rebased by an
		// index reset, which keep their old-epoch stamps, get consumed.
		if claim != uint64(top) {
			return nil, Abort
		}
		c.Add(counters.CAS, counters.LCWSStealCAS)
		if d.age.CompareAndSwap(oldAge, packAge(top+1, tag)) {
			cl.next = claim + 1
			return task, Stolen
		}
		return nil, Abort
	}
	if !idempotent(task) {
		// Exclusive claim required; only the real top can be CASed.
		if claim != uint64(top) {
			return nil, Abort
		}
		c.Add(counters.CAS, counters.LCWSStealCAS)
		if d.age.CompareAndSwap(oldAge, packAge(top+1, tag)) {
			cl.next = claim + 1
			return task, Stolen
		}
		return nil, Abort
	}
	// The relaxed claim: one plain store, accounted at
	// MultFreeStealFences/MultFreeStealCAS (both zero). A store that lands
	// after an owner reclaim carries a stale tag and is ignored by every
	// reader, so it cannot corrupt the cursor; this thief still returns
	// the task it read, which is exactly the bounded-multiplicity window.
	d.relNext.Store(packAge(uint32(claim)+1, tag))
	cl.next = claim + 1
	c.Inc(counters.RelaxedSteal)
	return task, Stolen
}

// TakeTopHalfRelaxed is the batched composition of TakeTopRelaxed with
// PopTopHalf (WithStealBatch): it claims up to half of the unclaimed
// public part with a single plain cursor store, writing the claimed tasks
// into buf oldest-first and returning how many were claimed. The batch
// stops at the first task that fails the per-slot stamp validation (see
// TakeTopRelaxed) or the idempotent predicate; if the very first task
// fails either, the thief falls back to the exclusive batch CAS of
// PopTopHalf when the claim is the authoritative top — PopTopHalf
// re-reads its slots under its own age load, and its CAS retroactively
// validates every batched read (overwriting any claimed slot requires
// advancing top past it or bumping the tag). Multiplicity is bounded
// exactly as for TakeTopRelaxed — the batch rides on one cursor advance,
// and cl keeps the thief's claims monotone.
//
//lcws:noalloc
func (d *SplitDeque[T]) TakeTopHalfRelaxed(buf []*T, cl *RelClaim, idempotent func(*T) bool, stampOf func(*T) uint64, c *counters.Worker) (int, StealResult) {
	if len(buf) == 0 {
		panic("deque: TakeTopHalfRelaxed requires a non-empty batch buffer")
	}
	epoch := d.epoch.Load()
	if cl.epoch != epoch {
		// See TakeTopRelaxed: the memory belongs to a dead epoch.
		cl.epoch = epoch
		cl.next = 0
	}
	oldAge := d.age.Load()
	top, tag := unpackAge(oldAge)
	claim := d.sharedClaim(top, tag)
	pb := d.publicBot.Load()
	if claim >= pb {
		if pb < d.bot.Load() {
			return 0, PrivateWork
		}
		return 0, Empty
	}
	if cl.next > claim {
		// This thief already returned the index (see sharedClaim).
		return 0, Abort
	}
	n := (pb - claim + 1) / 2 // round(avail/2), at least 1
	if n > uint64(len(buf)) {
		n = uint64(len(buf))
	}
	bb := d.buf.Load() // after the age load; see buf
	k := uint64(0)
	for k < n {
		t := bb.slots[(claim+k)&bb.mask].Load()
		if t == nil || stampOf(t)&^StampExposed != makeStamp(epoch, claim+k) {
			// Stale, aliased or mid-reset read (see TakeTopRelaxed):
			// truncate the batch at the last validated slot.
			break
		}
		if !idempotent(t) {
			break
		}
		buf[k] = t
		k++
	}
	if k == 0 {
		// The oldest unclaimed task is non-idempotent or its slot read
		// failed validation: take the exclusive batch path when the claim
		// is the real top (the batch CAS settles both cases), otherwise
		// leave it for a CAS thief or the owner.
		if claim != uint64(top) {
			return 0, Abort
		}
		return d.PopTopHalf(buf, c)
	}
	d.relNext.Store(packAge(uint32(claim+k), tag))
	cl.next = claim + k
	c.Add(counters.RelaxedSteal, k)
	return int(k), Stolen
}

// sharedClaim is the next index a relaxed thief may claim: the larger
// of top and the relNext cursor, the cursor honored only under the
// current tag.
//
// A thief's own claim memory (RelClaim.next) can run ahead of it. When
// the thief's cursor store lands after an owner reclaim (stale tag,
// ignored), the owner takes those tasks back, may pop below them, push
// new tasks at the same absolute indices and expose them again — all
// within one epoch. Claiming from the memory there would be wrong both
// ways: storing the cursor past the re-exposed tasks lets the owner's
// repair fold top over them, so no one ever runs them; and a claim
// taken off the shared prefix is one the owner's repair and the
// recycling gate do not see. So the memory only vetoes: a thief whose
// memory is past the shared claim aborts, and never returns an index
// twice, which is what bounds multiplicity; the other claimants and the
// owner's reclaim take the work.
//
//lcws:noalloc
func (d *SplitDeque[T]) sharedClaim(top, tag uint32) uint64 {
	shared := uint64(top)
	if rIdx, rTag := unpackAge(d.relNext.Load()); rTag == tag && uint64(rIdx) > shared {
		shared = uint64(rIdx)
	}
	return shared
}

// repairRelaxed is the owner-side repair of the MultFree protocol
// ("put/take-back" in Castañeda & Piña's terms): it folds an honored
// relaxed-claim cursor into the authoritative top with a tag-preserving
// CAS, so that relaxed-claimed tasks are recognized as consumed before
// the owner reclaims or re-exposes public work. Without this fold a
// reclaim would return claimed tasks to the private part and a later
// Expose would offer them to thieves again, growing multiplicity with
// every expose/unexpose epoch — the negative model in internal/verify
// shows exactly that unbounded counterexample. The CAS races concurrent
// exclusive (fn-task) steals; on failure the fold retries against the
// advanced top. Stale-tagged or rewound cursors are simply not honored.
//
//lcws:noalloc
func (d *SplitDeque[T]) repairRelaxed(c *counters.Worker) {
	for {
		oldAge := d.age.Load()
		top, tag := unpackAge(oldAge)
		rIdx, rTag := unpackAge(d.relNext.Load())
		if rTag != tag || rIdx <= top {
			return
		}
		c.Add(counters.CAS, counters.MultFreeRepairCAS)
		if d.age.CompareAndSwap(oldAge, packAge(rIdx, tag)) {
			return
		}
	}
}

// HasPublicWork reports whether the public part (racily) holds at least
// one stealable task. Thieves use it in the parking lot's pre-park check.
func (d *SplitDeque[T]) HasPublicWork() bool { return d.PublicSize() > 0 }

// Expose transfers tasks from the private part to the public part
// according to mode and returns the number of tasks exposed. Only the
// owner may call it (in the signal-based schedulers it runs inside the
// emulated signal handler, which executes on the owner's goroutine). Per
// footnote 3 of the paper, exposure itself performs no synchronization
// operations; its cost materialises later as the fences of
// PopPublicBottom when exposed tasks are not stolen.
//
//lcws:noalloc
func (d *SplitDeque[T]) Expose(mode ExposeMode, c *counters.Worker) int {
	if d.relaxed {
		d.repairRelaxed(c)
		if top, _ := unpackAge(d.age.Load()); top >= relaxedResetThreshold {
			// Rebase the indices long before the 32-bit top could wrap.
			// The allocation is why the reset lives outside this
			// //lcws:noalloc boundary path, mirroring grow.
			d.resetIndices(c)
		}
	}
	pb := d.publicBot.Load()
	b := d.bot.Load()
	if b < pb {
		// Mid-pop_bottom state of the race-fix variant: the private
		// part is empty.
		return 0
	}
	r := b - pb // private task count
	var n uint64
	switch mode {
	case ExposeOne:
		if r >= 1 {
			n = 1
		}
	case ExposeConservative:
		if r >= 2 {
			n = 1
		}
	case ExposeHalf:
		if r >= 3 {
			n = (r + 1) / 2 // round(r/2)
		} else if r >= 1 {
			n = 1
		}
	default:
		panic(fmt.Sprintf("deque: unknown expose mode %d", mode))
	}
	if n == 0 {
		return 0
	}
	d.publicBot.Store(pb + n)
	if d.relaxed && pb+n > d.maxPub {
		// Record the exposure high-water mark: any task at an absolute
		// index below it may have been loaded by a relaxed thief whose
		// claim is still in flight, so NeverExposed must say false for it
		// forever (the owner core gates task recycling on this).
		d.maxPub = pb + n
	}
	c.Add(counters.Exposure, n)
	return int(n)
}

// relaxedResetThreshold is the top index at which Expose triggers a
// relaxed deque's index reset (resetIndices). 2^31 makes resets
// vanishingly rare — one per two billion consumed tasks — while leaving
// the 32-bit top field a full 2^31 of headroom: between the check and
// the next Expose, top can only advance to publicBot, and publicBot only
// advances in Expose, so indices stay below threshold + the window bound
// (maxCap, itself necessarily < 2^31 for the age word's arithmetic). A
// package variable so tests can lower it and exercise the reset without
// two billion pushes.
var relaxedResetThreshold uint32 = 1 << 31

// resetIndices rebases a relaxed deque's live window to absolute index
// zero and advances the index epoch. A non-relaxed deque resets its
// indices whenever it fully empties (PopPublicBottom), but a relaxed
// deque never takes that path — the monotone claim memories forbid it —
// so without this operation its indices would grow without bound and the
// 32-bit top in the age word would wrap after 2^32 cumulative advances,
// silently diverging from the uint64 bot/publicBot/RelClaim.next.
// Owner-only; called by Expose when top crosses relaxedResetThreshold.
//
// The sequence, in an order each step depends on:
//
//  1. UnexposeAll — reclaims the public part and bumps the ABA tag, so
//     no in-flight exclusive CAS can land on the rewritten age word and
//     no relaxed cursor store survives as honored (the repair inside
//     UnexposeAll folds live claims into top first; after the bump every
//     late cursor store is tag-mismatched and ignored by all readers).
//  2. Copy the live window [top, b) into a FRESH same-size generation at
//     [0, b-top) and publish it. A fresh generation, not an in-place
//     move: the source and destination ranges overlap in mask space, and
//     a superseded generation is never written again — the invariant
//     every stale reader relies on.
//  3. Rewrite bot, publicBot, age and relNext to rebased coordinates.
//     A thief reading a mix of old and new values sees either "nothing
//     public" (publicBot ends at zero, and nothing is exposed until this
//     Expose call proceeds) or a stamp-mismatched slot; both abort.
//  4. epoch advance LAST. The epoch is what re-arms thief claim
//     memories; a thief that observes the new epoch therefore observes
//     every rebased store above (Go atomics are seq-cst). Rebased tasks
//     keep their original old-epoch stamps, so relaxed claims on them
//     fail validation and they are consumed through the exclusive CAS
//     fallback or the owner's own pops — never duplicated across the
//     reset.
//
// The allocation is why the reset lives outside the //lcws:noalloc
// Expose path, exactly like grow under TryPushBottom.
func (d *SplitDeque[T]) resetIndices(c *counters.Worker) {
	d.UnexposeAll(c)
	top, tag := unpackAge(d.age.Load())
	b := d.bot.Load()
	n := b - uint64(top) // the whole deque is private after UnexposeAll
	size := d.ownerMask + 1
	nb := &splitBuf[T]{slots: make([]atomic.Pointer[T], size), mask: size - 1}
	for i := uint64(0); i < n; i++ {
		nb.slots[i&nb.mask].Store(d.ownerSlot(uint64(top) + i))
	}
	d.ownerSlots = nb.slots
	d.ownerMask = nb.mask
	d.buf.Store(nb)
	d.bot.Store(n)
	d.publicBot.Store(0)
	d.age.Store(packAge(0, tag+1))
	d.relNext.Store(packAge(0, tag+1))
	d.cachedTop = 0
	d.maxPub = 0
	d.dirtyLo, d.dirtyHi = 0, n // the fresh generation holds only the rebased window
	d.epoch.Add(1)
	c.Inc(counters.Fence) // ordering of the rebased stores against the epoch advance
}

// PushStamp returns the stamp — the packed (index epoch, absolute index)
// of makeStamp — that the next PushBottom will occupy. Owner-only; the
// MultFree core writes it into each forked task before pushing, so
// relaxed thieves can validate their fence-free slot reads against it
// (TakeTopRelaxed) and the recycling gate (NeverExposed) can be checked
// when the task is freed.
//
//lcws:noalloc
func (d *SplitDeque[T]) PushStamp() uint64 {
	return makeStamp(d.epoch.Load(), d.bot.Load())
}

// NeverExposed reports whether the task carrying stamp has never been
// inside the public window of this (relaxed) deque. Owner-only.
// Conservative on three fronts, each trading a GC-dropped descriptor for
// soundness, never the reverse: a stamp with the sticky StampExposed bit
// (a cross-deque restamp of a steal-batch remnant) reports false
// forever; a stamp minted in a previous index epoch reports false (its
// index means nothing in the current epoch, and a thief claim from
// before the reset may still be in flight on it); and an index once
// exposed reports false even for a later task reusing it privately.
//
//lcws:noalloc
func (d *SplitDeque[T]) NeverExposed(stamp uint64) bool {
	if stamp&StampExposed != 0 {
		return false
	}
	if stamp&stampEpochMask != d.epoch.Load()<<stampEpochShift&stampEpochMask {
		return false
	}
	return stamp&stampIdxMask >= d.maxPub
}

// UnexposeAll transfers every unstolen public task back to the private
// part and returns how many were reclaimed. Only the owner may call it.
// Unlike PopPublicBottom it is also legal with a non-empty private part
// (SpillOldest relies on this): the bot repairs below are conditional on
// bot actually sitting below publicBot — the §4 race-fix decrement —
// so a live private part is never truncated.
//
// This is the operation that distinguishes Lace (van Dijk & van de Pol)
// from LCWS: LCWS never un-exposes — its owner drains leftover public
// work through PopPublicBottom, paying fences per task — whereas Lace
// reclaims the whole public part in one synchronized step and then pops
// it fence-free. The reclaim races concurrent thieves: publicBot is first
// moved to top (hiding the work from new thieves), then the age word's
// tag is bumped with a CAS so that any thief still holding the old age
// fails its steal; if instead a thief advances top first, the owner's CAS
// fails and it retries against the new top.
//
//lcws:noalloc
func (d *SplitDeque[T]) UnexposeAll(c *counters.Worker) int {
	if d.relaxed {
		// Fold honored relaxed claims into top first, so claimed tasks are
		// treated as consumed and never reclaimed into the private part.
		d.repairRelaxed(c)
	}
	for {
		pb := d.publicBot.Load()
		if pb == 0 {
			// Nothing was ever exposed (or the deque reset). There is no
			// race-fix decrement to repair: bot < publicBot cannot hold
			// at publicBot == 0, so bot is left alone (it may hold a
			// non-empty private part when called from SpillOldest).
			if d.bot.Load() == 0 {
				d.sweep(0)
			}
			return 0
		}
		oldAge := d.age.Load()
		top, tag := unpackAge(oldAge)
		if pb <= uint64(top) {
			// Everything public was stolen; nothing to reclaim.
			if d.raceFix && d.bot.Load() < pb {
				d.bot.Store(pb) // repair after a failed race-fix PopBottom
			}
			if d.bot.Load() == pb {
				d.sweep(pb) // and the private part is empty too
			}
			return 0
		}
		d.publicBot.Store(uint64(top))
		c.Inc(counters.Fence) // ordering of the store against the CAS below
		c.Inc(counters.CAS)
		if d.age.CompareAndSwap(oldAge, packAge(top, tag+1)) {
			// [top, pb) is now private; restore bot above it only if a
			// failed race-fix PopBottom decremented it (a non-empty
			// private part keeps bot > pb and must not be truncated).
			if d.bot.Load() < pb {
				d.bot.Store(pb)
			}
			n := pb - uint64(top)
			c.Add(counters.ExposedNotStolen, n)
			return int(n)
		}
		// A thief advanced top concurrently; restore the split and
		// retry against the new state.
		d.publicBot.Store(pb)
	}
}

// PrivateSize returns the number of tasks in the private part. Thieves use
// it (via HasTwoTasks) for the Conservative Exposure notification
// condition; the value is naturally racy.
func (d *SplitDeque[T]) PrivateSize() int {
	b := d.bot.Load()
	pb := d.publicBot.Load()
	if b < pb {
		return 0
	}
	return int(b - pb)
}

// PublicSize returns the number of stealable tasks in the public part.
// On a relaxed deque it discounts tasks already claimed through the
// cursor (when the cursor's tag is current), so parked thieves and the
// notify predicates do not chase work that has already been taken.
func (d *SplitDeque[T]) PublicSize() int {
	top, tag := unpackAge(d.age.Load())
	eff := uint64(top)
	if d.relaxed {
		if rIdx, rTag := unpackAge(d.relNext.Load()); rTag == tag && uint64(rIdx) > eff {
			eff = uint64(rIdx)
		}
	}
	pb := d.publicBot.Load()
	if pb < eff {
		return 0
	}
	return int(pb - eff)
}

// HasTwoTasks reports whether the deque holds at least two tasks
// (method has_two_tasks of §4.1.1).
func (d *SplitDeque[T]) HasTwoTasks() bool {
	return d.PrivateSize()+d.PublicSize() >= 2
}

// IsEmpty reports whether the deque holds no tasks at all. The result is
// racy under concurrency and is meant for owner-side assertions and tests.
func (d *SplitDeque[T]) IsEmpty() bool {
	return d.PrivateSize() == 0 && d.PublicSize() == 0
}
