package verify

import (
	"strings"
	"testing"

	"lcws/internal/deque"
)

// These tests are the MultFree half of the model checker's CI duty: the
// exhaustive multiplicity-bound proof for the relaxed (fence- and
// CAS-free) claim protocol of deque.TakeTopRelaxed, the exactly-once
// proof for pinned (non-idempotent) tasks, and the negative result that
// justifies the owner-side repairRelaxed fold.
//
// The division of labour the tests establish:
//
//   - The per-thief monotone claim memory (deque.RelClaim) carries the
//     worst-case bound: every task is returned at most Thieves+1 times
//     under the UNRESTRICTED adversary — even with the repair ablated.
//   - The owner repair fold carries exactly-once delivery for claims
//     that have landed: under the synchronous adversary (AtomicClaims)
//     it alone keeps even stateless thieves exactly-once, and ablating
//     it lets every unexpose/re-expose epoch re-offer claimed work —
//     multiplicity then grows with the number of epochs, which is the
//     unbounded counterexample truncated to the model's bounds.

// TestRelaxedDrainSingleThief is the basic positive result: a relaxed
// thief racing the batch-discipline owner over two tasks never loses a
// task, never exceeds the multiplicity bound, and the drain terminates
// with consistent indices.
func TestRelaxedDrainSingleThief(t *testing.T) {
	mustClean(t, Scenario{
		Name:          "relaxed-drain-single-thief",
		RaceFix:       true,
		Relaxed:       true,
		Owner:         []Op{Push(1), Push(2), UpdatePublicBottom(), DrainBatch()},
		Thieves:       1,
		StealAttempts: 2,
		Expose:        deque.ExposeOne,
		RequireDrain:  true,
	})
}

// TestRelaxedInFlightDuplicateIsBounded pins down the protocol's
// honest price: a relaxed claim suspended between its slot read and its
// cursor store is invisible to the owner's repair fold, so the owner
// can reclaim and re-execute the claimed task — the absorbed duplicate
// the scheduler's generation-stamp arbitration pays for. The bound is
// tight: the explorer must REACH multiplicity 2 (duplicates genuinely
// occur) and must never exceed Thieves+1 = 2.
func TestRelaxedInFlightDuplicateIsBounded(t *testing.T) {
	r := mustClean(t, Scenario{
		Name:          "relaxed-inflight-duplicate-bounded",
		RaceFix:       true,
		Relaxed:       true,
		Owner:         []Op{Push(1), UpdatePublicBottom(), DrainBatch()},
		Thieves:       1,
		StealAttempts: 2,
		Expose:        deque.ExposeOne,
		RequireDrain:  true,
	})
	if r.MaxMultiplicity != 2 {
		t.Errorf("MaxMultiplicity = %d, want 2: the in-flight claim window must make the owner "+
			"re-execute the claimed task in some schedule (bound tightness)", r.MaxMultiplicity)
	}
}

// TestRelaxedSignalProtocolTwoThieves runs the full signal regime —
// thieves notify on PRIVATE_WORK, the handler's Expose (with its repair
// fold) fires at every possible owner micro-step boundary — with two
// relaxed thieves over three tasks.
func TestRelaxedSignalProtocolTwoThieves(t *testing.T) {
	mustClean(t, Scenario{
		Name:          "relaxed-signal-two-thieves",
		RaceFix:       true,
		Relaxed:       true,
		Owner:         []Op{Push(1), Push(2), Push(3), DrainBatch()},
		Thieves:       2,
		StealAttempts: 2,
		Expose:        deque.ExposeHalf,
		AutoSignal:    true,
		SignalBudget:  2,
		RequireDrain:  true,
	})
}

// TestRelaxedPinnedNeverDuplicated checks the idempotence gate: pinned
// tasks (the model's Fork2-closure stand-ins) must be returned exactly
// once in every schedule. Relaxed thieves may take them only through
// the exclusive CAS fallback, and only when the claim is the
// authoritative top; the recordReturn oracle keeps the exactly-once
// rule for them even though the surrounding scenario is relaxed.
func TestRelaxedPinnedNeverDuplicated(t *testing.T) {
	mustClean(t, Scenario{
		Name:          "relaxed-pinned-exactly-once",
		RaceFix:       true,
		Relaxed:       true,
		Pinned:        Pin(1),
		Owner:         []Op{Push(1), Push(2), UpdatePublicBottom(), UpdatePublicBottom(), DrainBatch()},
		Thieves:       2,
		StealAttempts: 2,
		Expose:        deque.ExposeOne,
		RequireDrain:  true,
	})
}

// TestRelaxedClaimMemoryCarriesTheBound is the completeness half of the
// protocol's correctness argument: under the UNRESTRICTED adversary
// (claims suspended at any micro-step) and with the owner repair
// ABLATED, the per-thief monotone claim memory alone still enforces
// the Thieves+1 bound across three expose/unexpose epochs — the thief
// never re-claims an index it already returned, because a relaxed
// deque's absolute indices never reset.
func TestRelaxedClaimMemoryCarriesTheBound(t *testing.T) {
	mustClean(t, Scenario{
		Name:            "relaxed-claim-memory-carries-bound",
		RaceFix:         true,
		Relaxed:         true,
		RelaxedNoRepair: true,
		Owner: []Op{
			Push(1),
			UpdatePublicBottom(), UnexposeAll(),
			UpdatePublicBottom(), UnexposeAll(),
			UpdatePublicBottom(),
			DrainBatch(),
		},
		Thieves:       1,
		StealAttempts: 3,
		Expose:        deque.ExposeOne,
		RequireDrain:  true,
	})
}

// TestRelaxedRepairExactlyOnceForStatelessThieves isolates what the
// repair fold contributes. The adversary is synchronous (AtomicClaims:
// every claim lands before the owner's next operation) and the thieves
// are STATELESS (no claim memory — the model of "a fresh thief every
// epoch", which is how multiplicity would grow without bound in a
// system with unboundedly many thieves). With the repair fold on, every
// landed claim is folded into top before the owner reclaims or
// re-exposes, so even this adversary gets exactly-once delivery:
// MaxMultiplicity must be exactly 1.
func TestRelaxedRepairExactlyOnceForStatelessThieves(t *testing.T) {
	r := mustClean(t, Scenario{
		Name:                 "relaxed-repair-exactly-once-stateless",
		RaceFix:              true,
		Relaxed:              true,
		RelaxedNoClaimMemory: true,
		AtomicClaims:         true,
		Owner: []Op{
			Push(1),
			UpdatePublicBottom(), UnexposeAll(),
			UpdatePublicBottom(), UnexposeAll(),
			UpdatePublicBottom(),
			DrainBatch(),
		},
		Thieves:       1,
		StealAttempts: 3,
		Expose:        deque.ExposeOne,
		RequireDrain:  true,
	})
	if r.MaxMultiplicity != 1 {
		t.Errorf("MaxMultiplicity = %d, want 1: with the repair fold every landed claim is "+
			"folded into top and never re-offered", r.MaxMultiplicity)
	}
}

// TestRelaxedNoRepairBreaksTheBound is the negative result the owner
// repair exists for: the SAME scenario as the test above with only the
// repair ablated. Each UnexposeAll now reclaims the already-claimed
// task (the stale-tagged cursor is ignored, top never advances past the
// claim), each re-exposure offers it again, and a fresh (stateless)
// claim per epoch drives the task's multiplicity past Thieves+1. The
// checker must exhibit the counterexample, and its trace must show the
// reclaim/re-expose epochs with repeated relaxed claims of one task.
func TestRelaxedNoRepairBreaksTheBound(t *testing.T) {
	r := Check(Scenario{
		Name:                 "relaxed-no-repair-breaks-bound",
		RaceFix:              true,
		Relaxed:              true,
		RelaxedNoRepair:      true,
		RelaxedNoClaimMemory: true,
		AtomicClaims:         true,
		Owner: []Op{
			Push(1),
			UpdatePublicBottom(), UnexposeAll(),
			UpdatePublicBottom(), UnexposeAll(),
			UpdatePublicBottom(),
			DrainBatch(),
		},
		Thieves:       1,
		StealAttempts: 3,
		Expose:        deque.ExposeOne,
		RequireDrain:  true,
	})
	logReport(t, r)
	if r.Truncated {
		t.Fatalf("exploration truncated at %d states", r.States)
	}
	var mult *Violation
	for i := range r.Violations {
		if r.Violations[i].Kind == MultiplicityExceeded {
			mult = &r.Violations[i]
			break
		}
	}
	if mult == nil {
		t.Fatalf("model checker failed to show the bound breaks without the owner repair; found %v", r.Violations)
	}
	trace := strings.Join(mult.Trace, "\n")
	if !strings.Contains(trace, "unexpose_all") {
		t.Errorf("counterexample does not route through the un-repaired reclaim:\n%s", trace)
	}
	if n := strings.Count(trace, "RELAXED-STOLEN task 1"); n < 2 {
		t.Errorf("counterexample shows %d relaxed claims of task 1, want >= 2 (one per re-expose epoch):\n%s", n, trace)
	}
	t.Logf("counterexample (%d steps):\n  %s", len(mult.Trace), strings.Join(mult.Trace, "\n  "))
}

// circularAliasScenario is the mask-aliasing hazard distilled to the
// smallest circular model that exhibits it: capacity 2, and an owner
// script whose claims are folded into top by the interleaved exposures,
// so the live window can slide a full capacity before push(3) — which
// then lands on the physical slot of absolute index 0. A thief that
// loaded its claim=0 and publicBot before stalling wakes up over a slot
// that now holds task 3, a task the owner never exposed at that index.
// With the stamp validation on, every such schedule aborts (or falls
// back to the retroactively-validating exclusive CAS at the
// authoritative top); the RelaxedNoStampCheck ablation instead commits
// the aliased read and the StaleSlotRead oracle exhibits it.
func circularAliasScenario(name string) Scenario {
	return Scenario{
		Name:     name,
		RaceFix:  true,
		Relaxed:  true,
		Circular: true,
		Capacity: 2,
		Owner: []Op{
			Push(1), UpdatePublicBottom(), UpdatePublicBottom(),
			Push(2), UpdatePublicBottom(), UpdatePublicBottom(),
			Push(3), DrainBatch(),
		},
		Thieves:       2,
		StealAttempts: 2,
		Expose:        deque.ExposeOne,
		RequireDrain:  true,
	}
}

// TestCircularRelaxedStampValidationClean is the positive result the
// reviewer's mask-aliasing counterexample demands: on the circular
// array model — where a push one capacity ahead physically overwrites a
// dead slot — the relaxed claim path with stamp validation never
// returns an aliased task, never loses a task, and keeps the
// multiplicity bound, across every interleaving (including the
// schedules where the full window forces a mid-push grow+rehash).
func TestCircularRelaxedStampValidationClean(t *testing.T) {
	r := mustClean(t, circularAliasScenario("circular-relaxed-stamp-clean"))
	if r.States == 0 {
		t.Fatal("no states explored")
	}
}

// TestCircularNoStampCheckStaleSlotRead is the matching negative: the
// SAME scenario with the stamp validation ablated must exhibit a
// relaxed commit of an aliased slot read — the thief stalled between
// its publicBot check and its slot read returns the task pushed a full
// capacity later. This is the double-execute / use-after-recycle
// hazard upstream: the returned task's descriptor was never exposed at
// the claimed index, so the scheduler-side recycling gate would have
// been bypassed without the stamp.
func TestCircularNoStampCheckStaleSlotRead(t *testing.T) {
	sc := circularAliasScenario("circular-no-stamp-check-stale-read")
	sc.RelaxedNoStampCheck = true
	r := Check(sc)
	logReport(t, r)
	if r.Truncated {
		t.Fatalf("exploration truncated at %d states", r.States)
	}
	var stale *Violation
	for i := range r.Violations {
		if r.Violations[i].Kind == StaleSlotRead {
			stale = &r.Violations[i]
			break
		}
	}
	if stale == nil {
		t.Fatalf("model checker failed to exhibit the aliased slot read without the stamp check; found %v", r.Violations)
	}
	trace := strings.Join(stale.Trace, "\n")
	if !strings.Contains(trace, "STALE task 3") {
		t.Errorf("counterexample does not commit the aliasing push's task:\n%s", trace)
	}
	t.Logf("counterexample (%d steps):\n  %s", len(stale.Trace), strings.Join(stale.Trace, "\n  "))
}

// TestCircularExclusiveStealsClean checks the claim the review's
// analysis rests on — "the exclusive PopTop path is immune because its
// age CAS invalidates stale reads": the same sliding-window script on
// the circular model with plain CAS thieves and the Listing 1 drain is
// clean with no stamp machinery at all. Overwriting a claimed slot
// requires advancing top past the claim, so an unchanged age word
// proves the slot read was fresh.
func TestCircularExclusiveStealsClean(t *testing.T) {
	mustClean(t, Scenario{
		Name:     "circular-exclusive-steals-clean",
		RaceFix:  true,
		Circular: true,
		Capacity: 2,
		Owner: []Op{
			Push(1), UpdatePublicBottom(), UpdatePublicBottom(),
			Push(2), UpdatePublicBottom(), UpdatePublicBottom(),
			Push(3), Drain(),
		},
		Thieves:       2,
		StealAttempts: 2,
		Expose:        deque.ExposeOne,
		RequireDrain:  true,
	})
}

// TestCircularGrowRehashClean drives the explicit growth op on the
// circular model, where — unlike the absolute-index model — the
// doubled generation's re-masked copy IS observable: the live window
// is rehashed into the new physical layout in the publishing step, and
// relaxed thieves holding pre-growth claims must still never return an
// aliased or lost task.
func TestCircularGrowRehashClean(t *testing.T) {
	mustClean(t, Scenario{
		Name:     "circular-grow-rehash-clean",
		RaceFix:  true,
		Relaxed:  true,
		Circular: true,
		Capacity: 2,
		Owner: []Op{
			Push(1), Push(2), UpdatePublicBottom(), Grow(),
			Push(3), UpdatePublicBottom(), DrainBatch(),
		},
		Thieves:       1,
		StealAttempts: 2,
		Expose:        deque.ExposeOne,
		RequireDrain:  true,
	})
}

// TestRelaxedLostTaskOracleLive keeps the no-lost-task oracle honest in
// relaxed mode: an undrained relaxed scenario must be reported.
func TestRelaxedLostTaskOracleLive(t *testing.T) {
	r := Check(Scenario{
		Name:          "relaxed-undrained",
		RaceFix:       true,
		Relaxed:       true,
		Owner:         []Op{Push(1), UpdatePublicBottom()},
		Thieves:       1,
		StealAttempts: 1,
		Expose:        deque.ExposeOne,
		RequireDrain:  true,
	})
	logReport(t, r)
	if kinds(r)[LostTask] == 0 {
		t.Fatalf("expected a lost-task violation, got %v", r.Violations)
	}
}

// reexposeScenario reuses exposed indices within one epoch: task 1 is
// exposed, reclaimed, and popped back (with task 2 above it) by the
// owner, which then pushes tasks 3 and 4 at the same absolute indices
// and exposes them before draining. A thief whose first claim of index
// 0 races the reclaim ends up with a claim memory past the re-exposed
// task 3. (When the thief's claim lands first, task 1 is not reclaimed
// and the second pop fails; the following UnexposeAll is the repair
// the scheduler's popLocal always runs after a failed pop.)
func reexposeScenario(name string, claimAhead bool) Scenario {
	return Scenario{
		Name:              name,
		RaceFix:           true,
		Relaxed:           true,
		RelaxedClaimAhead: claimAhead,
		Owner: []Op{
			Push(1), Push(2),
			UpdatePublicBottom(), UnexposeAll(),
			Pop(), Pop(), UnexposeAll(), // the last repairs bot if task 1 was stolen
			Push(3), Push(4),
			UpdatePublicBottom(), UpdatePublicBottom(),
			DrainBatch(),
		},
		Thieves:       1,
		StealAttempts: 2,
		Expose:        deque.ExposeOne,
		RequireDrain:  true,
	}
}

// TestRelaxedIndexReuseLosesNothing is the positive half: with the claim
// memory acting only as a veto (deque.SplitDeque.sharedClaim), reusing
// exposed indices loses no task and keeps the multiplicity bound, here
// with two thieves.
func TestRelaxedIndexReuseLosesNothing(t *testing.T) {
	sc := reexposeScenario("relaxed-index-reuse-two-thieves", false)
	sc.Thieves = 2
	mustClean(t, sc)
}

// TestRelaxedClaimAheadLosesTask is the negative control for the rule
// it replaced: claiming from the memory and storing the cursor past the
// claim lets the owner's repair fold top over task 3, which the checker
// must report as lost.
func TestRelaxedClaimAheadLosesTask(t *testing.T) {
	r := Check(reexposeScenario("relaxed-claim-ahead-loses-task", true))
	logReport(t, r)
	if r.Truncated {
		t.Fatalf("exploration truncated at %d states", r.States)
	}
	if kinds(r)[LostTask] == 0 {
		t.Fatalf("the claim-ahead rule must lose a re-exposed task in some schedule; got %v", r.Violations)
	}
}
