package deque

import (
	"testing"

	"lcws/internal/counters"
)

// Tests for the MultFree relaxed claim protocol: TakeTopRelaxed /
// TakeTopHalfRelaxed, the owner-side repair fold, the post-read stamp
// validation, the index reset, and the recycling gate. These cover what
// is sequentially reachable through the public API — the claim
// arithmetic, the pinned fallback, the monotone claim memory, and the
// fence/CAS accounting against the MultFree counting model
// (internal/counters/model.go) — plus white-box corruptions of the slot
// array standing in for the stale reads only an adversarial scheduler
// can produce. The concurrency properties (the multiplicity bound under
// arbitrary interleavings, the necessity of the repair fold, the
// stale-read hazard of a circularly aliased slot) are proved
// exhaustively in internal/verify and exercised under -race by the
// scheduler-level stress tests.

func newRelaxed(t *testing.T) *SplitDeque[int] {
	t.Helper()
	return NewSplitRelaxed[int](16, 64, true)
}

// exposeAll publishes the entire private part.
func exposeAll(d *SplitDeque[int], c *counters.Worker) {
	for d.PrivateSize() > 0 {
		d.Expose(ExposeHalf, c)
	}
}

func alwaysIdempotent(*int) bool { return true }

func neverIdempotent(*int) bool { return false }

// stamps is the test-side stand-in for core.Task's pushStamp field: a
// side table from element to the stamp the owner minted at push time.
// Sequential tests only, so a plain map suffices where the scheduler
// needs an atomic field.
type stamps map[*int]uint64

func (s stamps) of(p *int) uint64 { return s[p] }

// pushStamped is splitdeque_test.go's push helper plus the owner-side
// stamping the MultFree core performs before every relaxed push.
func pushStamped(t *testing.T, d *SplitDeque[int], s stamps, c *counters.Worker, vals ...int) []*int {
	t.Helper()
	out := make([]*int, len(vals))
	for i, v := range vals {
		p := new(int)
		*p = v
		s[p] = d.PushStamp()
		d.PushBottom(p, c)
		out[i] = p
	}
	return out
}

func TestRelaxedStealDrainsOldestFirst(t *testing.T) {
	d := newRelaxed(t)
	owner, thief := newCtr(), newCtr()
	st := stamps{}
	pushStamped(t, d, st, owner, 1, 2, 3, 4)
	exposeAll(d, owner)
	var cl RelClaim
	for want := 1; want <= 4; want++ {
		got, res := d.TakeTopRelaxed(&cl, alwaysIdempotent, st.of, thief)
		if res != Stolen || got == nil || *got != want {
			t.Fatalf("relaxed steal %d = %v, %v; want %d, stolen", want, got, res, want)
		}
	}
	if _, res := d.TakeTopRelaxed(&cl, alwaysIdempotent, st.of, thief); res != Empty {
		t.Fatalf("steal from drained deque = %v, want empty", res)
	}
}

func TestRelaxedStealAccounting(t *testing.T) {
	// Model: a relaxed claim costs MultFreeStealFences fences and
	// MultFreeStealCAS CAS (both zero) and counts one relaxed steal per
	// task; the owner's reclaim pays MultFreeRepairCAS for the cursor
	// fold on top of its usual cost (here the all-stolen path, which
	// pays nothing further).
	d := newRelaxed(t)
	owner, thief := newCtr(), newCtr()
	st := stamps{}
	pushStamped(t, d, st, owner, 1, 2, 3, 4)
	exposeAll(d, owner)
	var cl RelClaim
	for i := 0; i < 4; i++ {
		if _, res := d.TakeTopRelaxed(&cl, alwaysIdempotent, st.of, thief); res != Stolen {
			t.Fatalf("steal %d = %v, want stolen", i, res)
		}
	}
	if f, cas := syncOf(thief); f != 4*counters.MultFreeStealFences || cas != 4*counters.MultFreeStealCAS {
		t.Errorf("4 relaxed steals cost (%d fences, %d CAS), want (0, 0)", f, cas)
	}
	if got := thief.Get(counters.RelaxedSteal); got != 4 {
		t.Errorf("relaxed_steals = %d, want 4", got)
	}
	of, ocas := syncOf(owner)
	if of != 0 || ocas != 0 {
		t.Fatalf("owner pre-reclaim sync (%d, %d), want (0, 0)", of, ocas)
	}
	if n := d.UnexposeAll(owner); n != 0 {
		t.Errorf("UnexposeAll reclaimed %d claimed tasks, want 0", n)
	}
	if f, cas := syncOf(owner); f != 0 || cas != counters.MultFreeRepairCAS {
		t.Errorf("reclaim after full drain cost (%d fences, %d CAS), want (0, %d)",
			f, cas, counters.MultFreeRepairCAS)
	}
}

func TestRelaxedPinnedFallbackCAS(t *testing.T) {
	// A non-idempotent task at the authoritative top is claimed through
	// the exclusive CAS (priced like any LCWS steal); above top the
	// thief must abort rather than claim it without exclusion.
	d := newRelaxed(t)
	owner, thief := newCtr(), newCtr()
	st := stamps{}
	pushStamped(t, d, st, owner, 1, 2)
	exposeAll(d, owner)
	var cl RelClaim
	got, res := d.TakeTopRelaxed(&cl, neverIdempotent, st.of, thief)
	if res != Stolen || got == nil || *got != 1 {
		t.Fatalf("pinned steal at top = %v, %v; want 1, stolen", got, res)
	}
	if f, cas := syncOf(thief); f != 0 || cas != counters.LCWSStealCAS {
		t.Errorf("pinned steal cost (%d fences, %d CAS), want (0, %d)", f, cas, counters.LCWSStealCAS)
	}
	if got := thief.Get(counters.RelaxedSteal); got != 0 {
		t.Errorf("pinned steal counted %d relaxed steals, want 0", got)
	}
	// Make the thief's claim run ahead of top: one relaxed claim bumps
	// cl past the authoritative top, so a subsequent non-idempotent
	// claim is above top and must abort.
	d2 := newRelaxed(t)
	owner2, thief2 := newCtr(), newCtr()
	st2 := stamps{}
	pushStamped(t, d2, st2, owner2, 1, 2)
	exposeAll(d2, owner2)
	var cl2 RelClaim
	if _, res := d2.TakeTopRelaxed(&cl2, alwaysIdempotent, st2.of, thief2); res != Stolen {
		t.Fatalf("relaxed warm-up steal = %v, want stolen", res)
	}
	if _, res := d2.TakeTopRelaxed(&cl2, neverIdempotent, st2.of, thief2); res != Abort {
		t.Errorf("pinned claim above top = %v, want abort", res)
	}
}

func TestRelaxedBatchClaim(t *testing.T) {
	// One cursor store claims up to half of the public part (capped at
	// the buffer), oldest-first, with zero fences and CAS.
	d := newRelaxed(t)
	owner, thief := newCtr(), newCtr()
	st := stamps{}
	pushStamped(t, d, st, owner, 1, 2, 3, 4, 5, 6, 7, 8)
	exposeAll(d, owner)
	buf := make([]*int, 4)
	var cl RelClaim
	n, res := d.TakeTopHalfRelaxed(buf, &cl, alwaysIdempotent, st.of, thief)
	if res != Stolen || n != 4 {
		t.Fatalf("batched relaxed claim = %d, %v; want 4, stolen", n, res)
	}
	for i := 0; i < n; i++ {
		if *buf[i] != i+1 {
			t.Errorf("batch[%d] = %d, want %d (oldest first)", i, *buf[i], i+1)
		}
	}
	if f, cas := syncOf(thief); f != 0 || cas != 0 {
		t.Errorf("batched relaxed claim cost (%d fences, %d CAS), want (0, 0)", f, cas)
	}
	if got := thief.Get(counters.RelaxedSteal); got != 4 {
		t.Errorf("relaxed_steals = %d, want 4 (one per claimed task)", got)
	}
}

func TestRelaxedBatchStopsAtPinned(t *testing.T) {
	// The batch must not claim past a non-idempotent task: claiming it
	// with a plain store would allow duplication of a task that cannot
	// tolerate it.
	d := newRelaxed(t)
	owner, thief := newCtr(), newCtr()
	st := stamps{}
	vals := pushStamped(t, d, st, owner, 1, 2, 3, 4, 5, 6, 7, 8)
	pinned := vals[2] // third-oldest task is non-idempotent
	idem := func(p *int) bool { return p != pinned }
	exposeAll(d, owner)
	buf := make([]*int, 8)
	var cl RelClaim
	n, res := d.TakeTopHalfRelaxed(buf, &cl, idem, st.of, thief)
	if res != Stolen || n != 2 {
		t.Fatalf("batch into pinned task = %d, %v; want 2, stolen", n, res)
	}
	if *buf[0] != 1 || *buf[1] != 2 {
		t.Errorf("batch claimed (%d, %d), want (1, 2)", *buf[0], *buf[1])
	}
	// The pinned task is now at the thief's claim == top? No: top is
	// still 0 (no repair ran), the claim is 2, so a retry falls back to
	// the exclusive path only at top — it must abort instead.
	n, res = d.TakeTopHalfRelaxed(buf, &cl, idem, st.of, thief)
	if res != Abort || n != 0 {
		t.Errorf("batch at pinned non-top claim = %d, %v; want 0, abort", n, res)
	}
}

func TestRelaxedUnexposeReclaimsOnlyUnclaimed(t *testing.T) {
	// The repair fold runs before the reclaim, so claimed tasks are
	// consumed and only the unclaimed suffix returns to the private
	// part, where the owner pops it LIFO.
	d := newRelaxed(t)
	owner, thief := newCtr(), newCtr()
	st := stamps{}
	pushStamped(t, d, st, owner, 1, 2, 3)
	exposeAll(d, owner)
	var cl RelClaim
	if got, res := d.TakeTopRelaxed(&cl, alwaysIdempotent, st.of, thief); res != Stolen || *got != 1 {
		t.Fatalf("relaxed steal = %v, %v; want 1, stolen", got, res)
	}
	if n := d.UnexposeAll(owner); n != 2 {
		t.Fatalf("UnexposeAll reclaimed %d, want 2 (the unclaimed tasks)", n)
	}
	for _, want := range []int{3, 2} {
		got := d.PopBottom(owner)
		if got == nil || *got != want {
			t.Fatalf("PopBottom after reclaim = %v, want %d", got, want)
		}
	}
	if got := d.PopBottom(owner); got != nil {
		t.Fatalf("deque should be empty, popped %d", *got)
	}
}

func TestRelaxedStaleCursorIgnoredAcrossEpochs(t *testing.T) {
	// After an owner reclaim bumps the tag, the old cursor is stale: a
	// later exposure must offer work from the authoritative top, not
	// from the dead cursor, and a fresh thief must receive the new task.
	d := newRelaxed(t)
	owner, thief := newCtr(), newCtr()
	st := stamps{}
	pushStamped(t, d, st, owner, 1)
	exposeAll(d, owner)
	var cl RelClaim
	if got, res := d.TakeTopRelaxed(&cl, alwaysIdempotent, st.of, thief); res != Stolen || *got != 1 {
		t.Fatalf("epoch-1 steal = %v, %v; want 1, stolen", got, res)
	}
	d.UnexposeAll(owner) // folds the claim; cursor is now stale-tagged
	pushStamped(t, d, st, owner, 2)
	exposeAll(d, owner)
	var fresh RelClaim
	got, res := d.TakeTopRelaxed(&fresh, alwaysIdempotent, st.of, thief)
	if res != Stolen || got == nil || *got != 2 {
		t.Fatalf("epoch-2 steal = %v, %v; want 2, stolen", got, res)
	}
}

func TestRelaxedClaimMemoryIsMonotone(t *testing.T) {
	// A thief's claim memory never re-claims an index it already
	// returned, even when the owner re-exposes the same absolute index
	// range... which a relaxed deque never does within an epoch: indices
	// only grow. The observable contract is that repeated drains see
	// strictly newer tasks.
	d := newRelaxed(t)
	owner, thief := newCtr(), newCtr()
	st := stamps{}
	var cl RelClaim
	seen := map[int]int{}
	for round := 0; round < 3; round++ {
		pushStamped(t, d, st, owner, 10*round+1, 10*round+2)
		exposeAll(d, owner)
		for {
			got, res := d.TakeTopRelaxed(&cl, alwaysIdempotent, st.of, thief)
			if res != Stolen {
				break
			}
			seen[*got]++
		}
		d.UnexposeAll(owner)
	}
	if len(seen) != 6 {
		t.Fatalf("thief saw %d distinct tasks, want 6: %v", len(seen), seen)
	}
	for v, n := range seen {
		if n != 1 {
			t.Errorf("task %d returned %d times in a sequential drain, want 1", v, n)
		}
	}
}

func TestRelaxedStaleSlotReadAborts(t *testing.T) {
	// The post-read validation: a slot whose content does not carry the
	// claimed (epoch, index) stamp must never be honored by the plain
	// relaxed claim. Concurrently this happens when the victim's live
	// window slides a full capacity past a stalled thief and the claimed
	// slot aliases to a younger (possibly never-exposed, recyclable)
	// task; sequentially we corrupt the slot by hand. At the
	// authoritative top the thief may settle the race with the exclusive
	// CAS — CAS success proves the slot was not overwritten, so here
	// (where it WAS overwritten but the age word is untouched) the CAS
	// legitimately claims the slot's current occupant. Above top there
	// is no CAS to lean on and the claim must abort.
	d := newRelaxed(t)
	owner, thief := newCtr(), newCtr()
	st := stamps{}
	vals := pushStamped(t, d, st, owner, 1, 2, 3)
	exposeAll(d, owner)
	var cl RelClaim
	if got, res := d.TakeTopRelaxed(&cl, alwaysIdempotent, st.of, thief); res != Stolen || *got != 1 {
		t.Fatalf("warm-up steal = %v, %v; want 1, stolen", got, res)
	}
	// Corrupt the slot of the thief's next claim (index 1, above the
	// untouched top 0) with a task stamped for another index.
	d.ownerSlots[1&d.ownerMask].Store(vals[2])
	if _, res := d.TakeTopRelaxed(&cl, alwaysIdempotent, st.of, thief); res != Abort {
		t.Fatalf("mis-stamped slot above top = %v, want abort", res)
	}
	if got := thief.Get(counters.RelaxedSteal); got != 1 {
		t.Errorf("relaxed_steals = %d after aborted validation, want 1 (the warm-up only)", got)
	}
	// A nil slot (readable below a grown generation's copy window, or
	// mid-reset) aborts even at the authoritative top: there is nothing
	// to validate or CAS over.
	d2 := newRelaxed(t)
	owner2, thief2 := newCtr(), newCtr()
	st2 := stamps{}
	pushStamped(t, d2, st2, owner2, 1)
	exposeAll(d2, owner2)
	d2.ownerSlots[0].Store(nil)
	var cl2 RelClaim
	if _, res := d2.TakeTopRelaxed(&cl2, alwaysIdempotent, st2.of, thief2); res != Abort {
		t.Fatalf("nil slot at top = %v, want abort", res)
	}
}

func TestRelaxedStaleSlotReadFallsBackToCASAtTop(t *testing.T) {
	// At claim == top a stamp mismatch downgrades to the exclusive CAS
	// instead of aborting: CAS success proves the age word never moved,
	// which retroactively validates the read — and it is also how tasks
	// rebased by an index reset (old-epoch stamps) get consumed. Here
	// the slot legitimately holds a differently-stamped task, so the
	// thief must claim it exclusively, pay the CAS, and not count a
	// relaxed steal.
	d := newRelaxed(t)
	owner, thief := newCtr(), newCtr()
	st := stamps{}
	vals := pushStamped(t, d, st, owner, 1, 2)
	exposeAll(d, owner)
	d.ownerSlots[0].Store(vals[1]) // slot 0 now carries the stamp of index 1
	var cl RelClaim
	got, res := d.TakeTopRelaxed(&cl, alwaysIdempotent, st.of, thief)
	if res != Stolen || got != vals[1] {
		t.Fatalf("mis-stamped slot at top = %v, %v; want occupant via CAS, stolen", got, res)
	}
	if f, cas := syncOf(thief); f != 0 || cas != counters.LCWSStealCAS {
		t.Errorf("validation fallback cost (%d fences, %d CAS), want (0, %d)", f, cas, counters.LCWSStealCAS)
	}
	if got := thief.Get(counters.RelaxedSteal); got != 0 {
		t.Errorf("validation fallback counted %d relaxed steals, want 0", got)
	}
}

func TestRelaxedBatchTruncatesAtStaleSlot(t *testing.T) {
	// The batched claim validates every slot and truncates at the first
	// mismatch, claiming only the validated prefix.
	d := newRelaxed(t)
	owner, thief := newCtr(), newCtr()
	st := stamps{}
	vals := pushStamped(t, d, st, owner, 1, 2, 3, 4, 5, 6, 7, 8)
	exposeAll(d, owner)
	d.ownerSlots[2&d.ownerMask].Store(vals[7]) // index 2 mis-stamped
	buf := make([]*int, 8)
	var cl RelClaim
	n, res := d.TakeTopHalfRelaxed(buf, &cl, alwaysIdempotent, st.of, thief)
	if res != Stolen || n != 2 {
		t.Fatalf("batch into mis-stamped slot = %d, %v; want 2, stolen", n, res)
	}
	if *buf[0] != 1 || *buf[1] != 2 {
		t.Errorf("batch claimed (%d, %d), want (1, 2)", *buf[0], *buf[1])
	}
}

func TestRelaxedIndexReset(t *testing.T) {
	// Lowering the reset threshold, a long-lived relaxed deque must
	// rebase its indices through Expose: the epoch advances, the live
	// window lands at index zero in a fresh generation, stale claim
	// memories re-arm, and no task is lost or double-returned across the
	// reset (rebased tasks keep their old-epoch stamps and are consumed
	// through the CAS fallback).
	old := relaxedResetThreshold
	relaxedResetThreshold = 8
	defer func() { relaxedResetThreshold = old }()

	d := newRelaxed(t)
	owner, thief := newCtr(), newCtr()
	st := stamps{}
	var cl RelClaim
	seen := map[int]int{}
	next := 1
	for round := 0; round < 12; round++ {
		pushStamped(t, d, st, owner, next, next+1)
		next += 2
		exposeAll(d, owner)
		for {
			got, res := d.TakeTopRelaxed(&cl, alwaysIdempotent, st.of, thief)
			if res != Stolen {
				if res != Empty {
					t.Fatalf("round %d: sequential drain ended with %v, want empty", round, res)
				}
				break
			}
			seen[*got]++
		}
	}
	if d.epoch.Load() == 0 {
		t.Fatal("top crossed the lowered threshold but no index reset happened")
	}
	if top, _ := unpackAge(d.age.Load()); top >= uint32(next) {
		t.Errorf("post-reset top = %d, want rebased below the %d tasks ever pushed", top, next)
	}
	if len(seen) != next-1 {
		t.Fatalf("thief saw %d distinct tasks, want %d", len(seen), next-1)
	}
	for v, n := range seen {
		if n != 1 {
			t.Errorf("task %d returned %d times across the reset, want 1", v, n)
		}
	}
}

func TestRelaxedIndexResetRebasesLiveWindow(t *testing.T) {
	// A reset with unconsumed tasks must carry them into the rebased
	// window: the owner still pops every one of them, and a thief with a
	// pre-reset claim memory re-arms instead of claiming dead indices.
	old := relaxedResetThreshold
	relaxedResetThreshold = 8
	defer func() { relaxedResetThreshold = old }()

	d := newRelaxed(t)
	owner, thief := newCtr(), newCtr()
	st := stamps{}
	var cl RelClaim
	// Advance top to the threshold by cycling claimed work, folding the
	// cursor through UnexposeAll (which repairs but never resets), so
	// the reset itself is staged to fire at the next Expose.
	for i := uint32(0); i < relaxedResetThreshold; i++ {
		pushStamped(t, d, st, owner, int(i))
		exposeAll(d, owner)
		if _, res := d.TakeTopRelaxed(&cl, alwaysIdempotent, st.of, thief); res != Stolen {
			t.Fatalf("cycle steal %d = %v, want stolen", i, res)
		}
		d.UnexposeAll(owner)
	}
	if top, _ := unpackAge(d.age.Load()); top < relaxedResetThreshold {
		t.Fatalf("staging left top = %d, want >= %d", top, relaxedResetThreshold)
	}
	// Push live tasks, then trigger the reset via Expose.
	pushStamped(t, d, st, owner, 101, 102, 103)
	preEpoch := d.epoch.Load()
	exposeAll(d, owner)
	if d.epoch.Load() == preEpoch {
		t.Fatal("Expose above the threshold did not reset the indices")
	}
	if top, _ := unpackAge(d.age.Load()); top != 0 {
		t.Errorf("post-reset top = %d, want 0", top)
	}
	// The stale claim memory re-arms on its next use; the rebased tasks
	// carry old-epoch stamps, so they are consumed via the CAS fallback
	// in index order.
	for _, want := range []int{101, 102, 103} {
		got, res := d.TakeTopRelaxed(&cl, alwaysIdempotent, st.of, thief)
		if res != Stolen || got == nil || *got != want {
			t.Fatalf("post-reset steal = %v, %v; want %d, stolen", got, res, want)
		}
	}
	if !d.IsEmpty() {
		t.Error("deque should be empty after draining the rebased window")
	}
}

func TestRelaxedRecyclingGate(t *testing.T) {
	// PushStamp/NeverExposed: a task whose stamp stayed private through
	// its whole life may be recycled; any stamp the high-water mark of
	// exposure has passed may not (a straggler's stale read could still
	// observe the slot). Stamps from another index epoch and stamps
	// carrying the sticky StampExposed bit (cross-deque batch-remnant
	// restamps) are conservatively unrecyclable too.
	d := newRelaxed(t)
	owner := newCtr()
	v := 1
	stamp := d.PushStamp()
	d.PushBottom(&v, owner)
	if !d.NeverExposed(stamp) {
		t.Fatalf("private-only stamp %#x reported as exposed", stamp)
	}
	if d.PopBottom(owner) == nil {
		t.Fatal("pop of private task failed")
	}
	if !d.NeverExposed(stamp) {
		t.Errorf("stamp %#x never exposed but gate rejects recycling", stamp)
	}
	stamp2 := d.PushStamp()
	d.PushBottom(&v, owner)
	exposeAll(d, owner)
	if d.NeverExposed(stamp2) {
		t.Errorf("exposed stamp %#x still reported never-exposed", stamp2)
	}
	d.UnexposeAll(owner)
	if d.NeverExposed(stamp2) {
		t.Errorf("reclaimed stamp %#x must stay unrecyclable (stale thief reads)", stamp2)
	}
	if d.NeverExposed(stamp | StampExposed) {
		t.Error("sticky StampExposed bit must make any stamp unrecyclable")
	}
	otherEpoch := makeStamp(d.epoch.Load()+1, 1<<20)
	if d.NeverExposed(otherEpoch) {
		t.Error("stamp from another index epoch must be unrecyclable")
	}
}

// TestRelaxedClaimMemoryDoesNotSkipReexposedWork pins the lost-task bug
// of the relaxed lane. A thief's claim memory can run ahead of the
// shared cursor: its cursor store for index 0 lands only after the
// owner's UnexposeAll has bumped the tag, so the owner reclaims (and
// runs) the task too. The owner then pops back below that index, pushes
// new tasks at the same absolute indices and exposes them. A claim from
// the thief's memory would take index 1 and advance the cursor to 2, so
// the owner's repair fold would move top past the unclaimed task at
// index 0 and no one would ever run it. The thief aborts instead, and
// the owner's reclaim gets both tasks.
func TestRelaxedClaimMemoryDoesNotSkipReexposedWork(t *testing.T) {
	d := newRelaxed(t)
	owner, thief := newCtr(), newCtr()
	st := stamps{}
	pushStamped(t, d, st, owner, 1, 2)
	d.Expose(ExposeOne, owner)
	var cl RelClaim
	got, res := d.TakeTopRelaxed(&cl, alwaysIdempotent, st.of, thief)
	if res != Stolen || *got != 1 {
		t.Fatalf("first relaxed steal = %v, %v; want 1, stolen", got, res)
	}
	// Rewind the cursor as if the thief's store had not landed yet, let
	// the owner reclaim, then land the store with its now-stale tag.
	landed := d.relNext.Load()
	_, tag := unpackAge(d.age.Load())
	d.relNext.Store(packAge(0, tag))
	if n := d.UnexposeAll(owner); n != 1 {
		t.Fatalf("UnexposeAll reclaimed %d tasks, want 1", n)
	}
	d.relNext.Store(landed)
	for _, want := range []int{2, 1} { // the owner runs both, 1 as a duplicate
		if p := d.PopBottom(owner); p == nil || *p != want {
			t.Fatalf("owner pop = %v, want %d", p, want)
		}
	}
	pushStamped(t, d, st, owner, 3, 4) // at absolute indices 0 and 1 again
	exposeAll(d, owner)
	// The thief's memory is past the shared claim: it must abort rather
	// than claim index 1 and advance the cursor over index 0.
	if got, res = d.TakeTopRelaxed(&cl, alwaysIdempotent, st.of, thief); res != Abort {
		t.Fatalf("second relaxed steal = %v, %v; want abort", got, res)
	}
	seen := map[int]int{}
	d.UnexposeAll(owner)
	for p := d.PopBottom(owner); p != nil; p = d.PopBottom(owner) {
		seen[*p]++
	}
	for _, v := range []int{3, 4} {
		if seen[v] == 0 {
			t.Errorf("task %d was lost: the owner's reclaim did not get it (seen %v)", v, seen)
		}
	}
}
