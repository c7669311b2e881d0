package core

import (
	"fmt"
)

// This file is the elastic worker-set substrate: the epoch-guarded
// snapshot that decouples "which workers exist" (the immutable slab,
// sized Options.MaxWorkers at construction) from "which workers are
// live" (the prefix published through Scheduler.set), plus the resize
// machinery built on it — SetWorkers hot reconfiguration, demand-driven
// growth, idle retirement, and epoch-based reclamation of retired
// slots' resources.
//
// # Snapshot protocol
//
// The scheduler publishes a *workerSet through an atomic pointer. A
// worker pins the current snapshot on busy-phase entry (and re-pins on
// every idle-backoff iteration and job pickup, so long busy phases
// adopt new epochs promptly):
//
//	for {
//	    set := s.set.Load()
//	    w.pinnedEpoch.Store(set.epoch)   // seq-cst
//	    if s.set.Load() == set { break } // validate: still current
//	}
//
// and releases the pin (pinnedEpoch.Store(0)) when it leaves the busy
// phase for the idle phase's deep park. The resizer installs a new
// snapshot with one release store and then scans every slot's
// pinnedEpoch: if it misses a concurrent pin of the old epoch, the
// seq-cst total order puts the pinner's store after the scan — and
// therefore after the new snapshot's publication — so the pinner's
// validating reload observes the new snapshot and retries. Either the
// resizer sees the pin, or the pinner sees the new epoch; a stale
// snapshot can never be adopted unobserved. Retired resources are
// reclaimed only once no worker holds a pin at or below the last epoch
// that contained them.
//
// # Why the slab never shrinks
//
// Workers must stay at a fixed stride in one contiguous allocation
// (victim selection walks a single slab; see workerSlot and
// layout_test.go), and worker goroutines hold *Worker pointers across
// resizes. So the slab is allocated once at MaxWorkers and never
// moves: a snapshot is just a shorter or longer prefix of it, and
// "reclaiming" a retired slot tears down the slot's heap resources in
// place (deque array, freelist chain, recycle-shard donations, trace
// ring) without freeing the slot itself. Growth back over a reclaimed
// slot reuses it: the deque teardown preserves absolute indices (see
// deque.SplitDeque.Teardown), so even MultFree thieves' per-victim
// monotone claim cursors stay sound across a retire/regrow cycle.

// workerSet is one immutable epoch of the elastic pool: the live
// prefix of the scheduler's worker slab. Resizing never mutates a
// published set — it installs a successor with a bumped epoch.
//
//lcws:manifest
type workerSet struct {
	// epoch numbers the snapshot (starting at 1; a worker's
	// pinnedEpoch of 0 means unpinned).
	epoch uint64 //lcws:field immutable
	// slots is the live prefix of Scheduler.workers. Index i of the
	// pool is &slots[i].w in every epoch that contains it.
	slots []workerSlot //lcws:field immutable — prefix of the scheduler's slab; the Worker manifests govern the elements
}

// Slot lifecycle states (Worker.state). The zero value is slotIdle so
// never-grown slab tails need no initialization.
const (
	// slotIdle: no goroutine runs the slot — never spawned, or retired
	// (its exit CAS stores slotIdle). Resources of a retired idle slot
	// may be reclaimed once no pin covers its last epoch.
	slotIdle int32 = iota
	// slotLive: the slot is in the published set (or about to be) and
	// its goroutine, if the pool is started, is running.
	slotLive
	// slotDraining: the slot left the published set; its goroutine
	// finishes its local work, refuses new jobs and steals, and exits
	// via Worker.tryRetire. A grow can re-admit it (CAS back to
	// slotLive) before it exits.
	slotDraining
)

// retiree is one graveyard entry: a slot that left the live set at the
// end of the given epoch and whose resources await reclamation.
type retiree struct {
	id    int
	epoch uint64
}

// pin makes w's current busy phase a member of the current epoch: it
// publishes the epoch in pinnedEpoch (blocking reclamation of every
// structure that epoch references) and caches the snapshot in curSet
// for the steal path. Cost on a stable epoch: two snapshot loads and
// one seq-cst store — nothing on the per-fork path, which never reads
// the set. See the file comment for the Dekker argument with the
// resizer.
//
//lcws:noalloc
func (w *Worker) pin() {
	for {
		set := w.sched.set.Load()
		w.pinnedEpoch.Store(set.epoch)
		if w.sched.set.Load() == set {
			if w.curSet != set {
				w.adoptSet(set)
			}
			return
		}
	}
}

// unpin releases w's epoch pin. curSet stays cached — it remains a
// valid (if stale) snapshot until the next pin, and reclamation is
// gated on pins, not on the cache.
//
//lcws:noalloc
func (w *Worker) unpin() { w.pinnedEpoch.Store(0) }

// adoptSet installs a newly observed snapshot as w's steal-path view:
// cold path of pin, entered once per epoch flip per worker. The sticky
// victim is dropped if the new epoch no longer contains it, and the
// flip is recorded on w's own ring (EvResize carries the new live
// count), preserving the owner-write trace discipline — each worker
// logs its own adoption rather than the resizer writing foreign rings.
func (w *Worker) adoptSet(set *workerSet) {
	w.curSet = set
	if int(w.sticky) >= len(set.slots) {
		w.sticky = -1
	}
	if w.rec != nil {
		w.rec.Resize(len(set.slots))
	}
}

// retiring reports whether this slot has been asked to drain.
//
//lcws:noalloc
func (w *Worker) retiring() bool { return w.state.Load() == slotDraining }

// tryRetire completes a draining worker's retirement: it donates the
// entire freelist to the global recycle shard (so cached tasks are not
// stranded on a dead slot), records the retirement on its own ring,
// and CASes the slot out of the draining state. It returns true when
// the worker goroutine must exit; false means a concurrent grow
// re-admitted the slot and the worker resumes as live (with a cold
// freelist, which is harmless).
func (w *Worker) tryRetire() bool {
	if w.rec != nil {
		w.rec.Retire()
	}
	w.retireFreelist()
	w.unpin()
	if !w.state.CompareAndSwap(slotDraining, slotIdle) {
		return false // re-admitted by a concurrent grow
	}
	s := w.sched
	s.workersRetired.Add(1)
	// Reclaim opportunistically on the way out: if no pin covers our
	// last epoch anymore, our own resources (and any earlier retirees')
	// are torn down right here instead of waiting for the next resize.
	s.resizeMu.Lock()
	s.tryReclaimLocked()
	s.resizeMu.Unlock()
	return true
}

// retireFreelist hands this worker's whole freelist to its global
// recycle shard (donateFreelist keeps a hot half back — retirement
// keeps nothing). Chains past the shard bound go to the GC, exactly as
// in donateFreelist. Owner-only; runs before the retirement CAS so a
// re-admitted worker simply continues with an empty freelist.
func (w *Worker) retireFreelist() {
	chain := w.freelist
	n := w.freelistLen
	w.freelist = nil
	w.freelistLen = 0
	if chain == nil {
		return
	}
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

// SetWorkers resizes the live pool to n workers, 1 <= n <= the
// MaxWorkers cap fixed at construction. It is safe to call at any time
// — including while jobs are running and concurrently with Submit,
// steals, and Close. Growth takes effect immediately (new workers
// spawn, or draining ones are re-admitted); shrinking is cooperative:
// surplus workers (the highest ids) finish their local work, refuse
// new work, and retire, after which their deque arrays, freelists,
// recycle-shard donations, and trace rings are reclaimed once no
// in-flight steal can still reference them (see the epoch protocol in
// workerset.go). Jobs never lose tasks across a shrink — per-job
// accounting shards are sized to MaxWorkers, and a draining worker
// drains its own deque before exiting.
//
// SetWorkers also sets the pool's resident target: demand-driven
// growth (toward MaxWorkers) above the target is undone by idle
// retirement back down to it.
func (s *Scheduler) SetWorkers(n int) error {
	if n < 1 || n > len(s.workers) {
		return fmt.Errorf("lcws: SetWorkers(%d) outside [1, %d] (MaxWorkers is fixed at construction)", n, len(s.workers))
	}
	s.resizeMu.Lock()
	defer s.resizeMu.Unlock()
	if s.closed.Load() {
		// A grow after Close would spawn goroutines the closer no
		// longer waits for; Close's resizeMu barrier makes this check
		// race-free against a concurrent closer.
		return ErrSchedulerClosed
	}
	s.target = n
	s.resizeLocked(n)
	s.tryReclaimLocked()
	return nil
}

// MaxWorkers returns the pool's growth ceiling (Options.MaxWorkers,
// fixed at construction): the bound of the worker-id space and the
// largest argument SetWorkers accepts.
func (s *Scheduler) MaxWorkers() int { return len(s.workers) }

// resizeLocked installs a new worker-set epoch with n live slots.
// Caller holds resizeMu.
//
// The EnsureRing call is epoch-guarded: it only swaps a ring that a
// past reclaim released, which implies the slot's goroutine exited and
// the slot is outside every published set — and it stays outside until
// this function publishes the grown set below.
//
//lcws:locked resizeMu
//lcws:epoch-guarded — rings are swapped only on slots outside every published set
func (s *Scheduler) resizeLocked(n int) {
	cur := s.set.Load()
	if n == len(cur.slots) {
		return
	}
	s.resizes.Add(1)
	next := &workerSet{epoch: cur.epoch + 1, slots: s.workers[:n]}
	if n > len(cur.slots) {
		s.poolGrows.Add(1)
		for i := len(cur.slots); i < n; i++ {
			w := s.worker(i)
			if w.sched == nil {
				s.initSlot(i) // first time this slab slot is grown into
			}
			if w.rec != nil {
				w.rec.EnsureRing() // restore a ring released by a past reclaim
			}
			if w.state.CompareAndSwap(slotDraining, slotLive) {
				continue // re-admitted: its goroutine is still running
			}
			w.state.Store(slotLive)
			if s.started {
				s.spawnWorker(w)
			}
		}
		// Entries for re-admitted ids are obsolete; drop them before
		// publishing so reclamation can never tear down a live slot.
		kept := s.graveyard[:0]
		for _, g := range s.graveyard {
			if g.id >= n {
				kept = append(kept, g)
			}
		}
		s.graveyard = kept
		s.set.Store(next)
		return
	}
	// Shrink: publish the smaller set first, then mark the surplus
	// slots draining — a worker that pins after the store already sees
	// the new epoch, and the draining flag only has to reach workers
	// pinned at the old one.
	s.set.Store(next)
	for i := n; i < len(cur.slots); i++ {
		w := s.worker(i)
		if !s.started {
			// No goroutine exists to drain; the slot is idle at once
			// (its deque is empty and its freelist cold — nothing to
			// reclaim, so no graveyard entry either).
			w.state.Store(slotIdle)
			continue
		}
		w.state.CompareAndSwap(slotLive, slotDraining)
		s.graveyard = append(s.graveyard, retiree{id: i, epoch: cur.epoch})
	}
	// Wake everyone: deep-parked surplus workers must observe the
	// draining flag and exit rather than sleep out their insurance
	// timers.
	s.wakeAll()
}

// initSlot builds the per-slot resources of a slab slot grown into for
// the first time: its deque (per the pool's policy) and the Worker
// fields init sets. Runs under resizeMu before the slot is published
// in any snapshot, so the plain writes are ordered by the set
// publication exactly as NewScheduler's are by the constructor.
func (s *Scheduler) initSlot(i int) {
	s.workers[i].w.init(i, s, s.opts)
}

// spawnWorker starts slot w's resident goroutine. Caller holds
// resizeMu with s.started true (or is ensureStarted itself).
func (s *Scheduler) spawnWorker(w *Worker) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		w.onSpawn()
		s.runResident(w)
	}()
}

// onSpawn clears the owner-side scraps a previous residency of this
// slot may have left behind: a stale park token, the sticky victim,
// and the idle ladder. Runs on the slot's new goroutine before its
// resident loop, so the writes are owner writes.
func (w *Worker) onSpawn() {
	w.dropWakeToken()
	w.sticky = -1
	w.resetIdle()
}

// maybeGrow is Submit's demand probe: if the injector backlog outruns
// the live workers not already busy (each non-busy worker — idle,
// waking, or parked-and-just-woken — absorbs at most one queued job),
// and the pool is below MaxWorkers, grow by one. A burst submitted
// into a parked pool therefore ratchets the pool up one worker per
// submission as the backlog deepens, until the backlog clears or the
// cap is hit — even before the first worker has woken. The probe is
// three atomic loads on the submit path; the resize itself is behind a
// TryLock, so submissions never serialize on the resize lock.
func (s *Scheduler) maybeGrow() {
	live := len(s.set.Load().slots)
	if live >= len(s.workers) || int64(s.inj.Len()) <= int64(live)-s.busy.Load() {
		return
	}
	if !s.resizeMu.TryLock() {
		return
	}
	if live := len(s.set.Load().slots); live < len(s.workers) &&
		int64(s.inj.Len()) > int64(live)-s.busy.Load() && !s.closed.Load() {
		s.resizeLocked(live + 1)
	}
	s.tryReclaimLocked()
	s.resizeMu.Unlock()
}

// maybeRetireIdle is the idle-phase shrink probe, reached only after a
// deep park ran its full insurance window (deepParkInsurance) with the
// pool still idle — the "sustained idleness" trigger. If demand growth
// left the pool above its resident target, it retires one surplus
// worker per window; at or below target it only attempts reclamation
// of already-retired slots. TryLock: an idle worker never blocks on a
// resize in flight.
func (s *Scheduler) maybeRetireIdle() {
	if !s.resizeMu.TryLock() {
		return
	}
	if live := len(s.set.Load().slots); live > s.target &&
		s.activeJobs.Load() == 0 && s.inj.Empty() && !s.closed.Load() {
		s.resizeLocked(live - 1)
	}
	s.tryReclaimLocked()
	s.resizeMu.Unlock()
}

// minPinnedEpoch returns the lowest epoch any worker currently pins
// (0 = no pins at all). The slab is scanned in full — draining and
// retired workers can hold pins too (a draining worker helping a join
// still steals through its pinned snapshot).
func (s *Scheduler) minPinnedEpoch() uint64 {
	min := uint64(0)
	for i := range s.workers {
		if e := s.workers[i].w.pinnedEpoch.Load(); e != 0 && (min == 0 || e < min) {
			min = e
		}
	}
	return min
}

// tryReclaimLocked tears down the resources of every graveyard slot
// whose retirement is complete (goroutine exited) and safe (no worker
// pins an epoch that could still reference it). Caller holds resizeMu.
//
//lcws:locked resizeMu
func (s *Scheduler) tryReclaimLocked() {
	if len(s.graveyard) == 0 {
		return
	}
	min := s.minPinnedEpoch()
	live := len(s.set.Load().slots)
	kept := s.graveyard[:0]
	for _, g := range s.graveyard {
		if g.id < live {
			continue // re-admitted since; entry obsolete
		}
		w := s.worker(g.id)
		if w.state.Load() != slotIdle || (min != 0 && min <= g.epoch) {
			kept = append(kept, g) // still draining, or still referenced
			continue
		}
		s.reclaimSlot(w)
	}
	s.graveyard = kept
}

// reclaimSlot releases a retired slot's heap resources in place: the
// deque's grown task array shrinks back to its initial capacity
// (index-preserving, so the deque stays valid for a future regrow and
// stale MultFree claim cursors stay sound), the slot's recycle-shard
// chain is dropped to the GC, and its trace ring is released. The slot
// itself is never freed — the slab is immutable (see the file
// comment). Caller holds resizeMu and has proved quiescence: the
// slot's goroutine exited (state == slotIdle, and its exit CAS ordered
// its last owner writes before our state load), and no worker pins an
// epoch that contained the slot.
//
//lcws:epoch-guarded — quiescence proved by tryReclaimLocked (exit CAS + epoch pin scan)
func (s *Scheduler) reclaimSlot(w *Worker) {
	w.dq.Teardown()
	sh := &s.recycle[w.id]
	sh.mu.Lock()
	sh.head = nil
	sh.n = 0
	sh.mu.Unlock()
	if w.rec != nil {
		w.rec.ReleaseRing()
	}
	s.epochReclaims.Add(1)
}
