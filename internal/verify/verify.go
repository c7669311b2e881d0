// Package verify is a bounded model checker for the LCWS split deque
// (internal/deque.SplitDeque, Listing 2 of the paper plus the §4
// signal-safe pop_bottom variant).
//
// The Go implementation cannot be model-checked directly — goroutine
// preemption points are not addressable — so this package re-expresses
// the algorithm as a deterministic step-VM: every deque operation is
// compiled to the sequence of shared-memory micro-steps (individual
// atomic loads, stores and CASes of bot, publicBot, the age word and the
// task slots) that the Go code executes, at the granularity at which the
// hardware may interleave them. A scenario places one owner thread
// running a script of operations from the op DSL (PushBottom, PopBottom,
// PopPublicBottom, UpdatePublicBottom/Expose, Drain) next to a bounded
// number of thief threads running PopTop attempts, and the explorer
// enumerates every reachable interleaving, including an emulated
// exposure signal landing between any two micro-steps of the owner —
// the exact window of the §4 pop_bottom race.
//
// The batched steal-side mode (Options.StealBatch) is modelled too:
// Scenario.StealHalf makes the thieves run PopTopHalf attempts (a batch
// claim of up to half the public part under one CAS), and the owner DSL
// gains UnexposeAll plus the DrainBatch composite (pop_bottom until nil,
// then reclaim the public part wholesale via UnexposeAll — the batch
// owner discipline, which never calls PopPublicBottom). A negative test
// demonstrates WHY that discipline exists: PopTopHalf raced against
// PopPublicBottom's common path duplicates tasks, because the owner's
// plain-take of indices above top leaves the age word untouched and a
// stalled thief's batch CAS still succeeds.
//
// The MultFree relaxed-claim protocol (Scenario.Relaxed) is modelled at
// the same granularity: thieves claim idempotent tasks with a plain
// store to the relNext cursor (no fence, no CAS on the steal side),
// falling back to the exclusive age CAS for pinned (non-idempotent)
// tasks, and the owner's expose/reclaim ops run the repairRelaxed
// cursor fold first. The duplicate-return oracle becomes a
// multiplicity-bound oracle: idempotent tasks may be returned up to
// Thieves+1 times (once per thief — enforced by each thief's private
// monotone claim memory, which never re-claims an index because a
// relaxed deque's absolute indices never reset — plus at most one owner
// re-execution absorbed upstream by the scheduler's generation-stamp
// arbitration), while pinned tasks keep the exactly-once rule. Two
// ablation knobs carry the negative results: RelaxedNoRepair disables
// the owner fold and RelaxedNoClaimMemory makes thieves stateless
// cursor readers (the "fresh thief per epoch" adversary); with the
// repair ablated, every unexpose/re-expose epoch re-offers
// already-claimed tasks and the checker exhibits multiplicity beyond
// the bound — the counterexample that justifies the owner-side repair.
//
// The backing array's circularity (Scenario.Circular) is modelled on
// demand: slot accesses index the task array modulo the current
// capacity instead of absolutely, so a push whose absolute index is one
// capacity ahead of a dead index physically overwrites that slot —
// the mask-aliasing hazard of a real circular buffer. Each task carries
// the absolute index it was pushed at (the model of the descriptor's
// push stamp, which travels WITH the task and is read atomically with
// it), and the relaxed claim path validates the stamp of the task it
// read against its claim index, aborting on mismatch exactly as
// deque.TakeTopRelaxed does — unless the claim is the authoritative
// top, where the exclusive age CAS retroactively validates the read.
// The RelaxedNoStampCheck ablation removes the validation and the
// StaleSlotRead oracle then exhibits the counterexample: a thief
// stalled between its publicBot check and its slot read returns a
// task the owner pushed a full capacity later — a private, never
// exposed task. Growth under Circular rehashes the live window into
// the doubled physical layout in the publishing step (the model has a
// single array, so a superseded generation's contents are dropped;
// a stale read of a dead slot surfaces as an empty read and aborts,
// which is the same decision the stamp check forces in the
// implementation).
//
// Exploration is a stateful depth-first search: states are canonicalized
// (identical thief threads are sorted, making the search symmetric in
// thief identity) and memoized, and deterministic local computation is
// folded into the adjacent shared access, so only schedules that differ
// in the order of conflicting shared accesses are explored separately —
// the same reduction family (independence + symmetry) that DPOR-style
// checkers exploit. On the bounds used by the tests the full state space
// is a few thousand to a few hundred thousand states and explores in
// well under a second.
//
// Checked properties:
//
//   - No duplicated task: every task id is returned at most once across
//     owner pops and successful steals (set-linearizability of the
//     multiset of returns — the correctness criterion used for
//     work-stealing deques, cf. Chase–Lev and Sundell & Tsigas).
//   - No lost task: at every terminal state of a draining scenario,
//     every pushed task was returned exactly once.
//   - No fabricated task: a pop or steal never observes an empty slot
//     where the algorithm promised a task.
//   - Index invariant top <= publicBot <= bot at every quiescent state
//     (all threads between operations, no handler running), modulo the
//     documented §4 exception: after the race-fix PopBottom returns nil
//     it may leave bot == publicBot-1 until the next PopPublicBottom or
//     UnexposeAll repairs it.
//
// The package's tests double as the CI wiring: `go test ./internal/verify`
// (part of tier-1 `go test ./...`) re-checks every scenario, including a
// negative test that must reproduce the §4 exposure-mid-PopBottom race
// when the race fix is disabled.
package verify

import (
	"fmt"

	"lcws/internal/deque"
)

// Scenario is one bounded model-checking problem: an owner script, a
// number of identical thief threads, and the exposure-signal regime.
type Scenario struct {
	// Name labels reports and test output.
	Name string
	// RaceFix selects the §4 signal-safe PopBottom variant, exactly as
	// deque.NewSplit's raceFix parameter does.
	RaceFix bool
	// Capacity is the initial number of task slots (default 8, max 16).
	// Grow ops in the owner script double it; the initial capacity times
	// 2^(number of grow ops) must stay within the modelled maximum 16.
	Capacity int
	// Owner is the owner thread's operation script.
	Owner []Op
	// Thieves is the number of concurrent thief threads (each a separate
	// "processor"; they are symmetric and the explorer exploits that).
	Thieves int
	// StealAttempts is the number of PopTop attempts each thief makes.
	StealAttempts int
	// StealHalf makes the thieves run PopTopHalf attempts instead of
	// PopTop: each attempt tries to claim up to half of the public part
	// (capped at BatchBuf) with a single CAS, the batched steal mode of
	// Options.StealBatch.
	StealHalf bool
	// BatchBuf is the thief's batch buffer length for StealHalf attempts
	// (default 4, max maxSlots).
	BatchBuf int
	// Expose is the exposure policy the signal handler runs
	// (update_public_bottom's mode).
	Expose deque.ExposeMode
	// AutoSignal raises an exposure request whenever a thief's PopTop
	// returns PRIVATE_WORK, mirroring the notify path of Listing 3.
	AutoSignal bool
	// InitialSignal starts the run with an exposure request already
	// pending, so the handler can fire before any thief observes the
	// deque.
	InitialSignal bool
	// SignalBudget bounds how many times the emulated signal handler may
	// be delivered (0 means no handler ever runs).
	SignalBudget int
	// RequireDrain asserts that every terminal state has returned every
	// pushed task: the scenario's owner script must end with Drain.
	RequireDrain bool
	// MaxStates aborts exploration (Report.Truncated) after this many
	// distinct states; 0 means DefaultMaxStates.
	MaxStates int

	// Relaxed makes the thieves run TakeTopRelaxed attempts — the
	// MultFree fence- and CAS-free claim protocol: claim = max(top,
	// tag-honored relNext cursor, the thief's private monotone memory),
	// validate against publicBot, read the slot, commit with a plain
	// cursor store. The duplicate-return oracle switches from
	// exactly-once to the multiplicity bound (see MultiplicityExceeded),
	// and the owner ops that expose or reclaim run the repairRelaxed
	// cursor fold first, exactly as deque.Expose/UnexposeAll do.
	// Relaxed scenarios must use RaceFix (MultFree implies the §4 pop)
	// and the batch owner discipline: OpDrain and OpPopPublicBottom are
	// rejected, mirroring the scheduler, whose MultFree owner reclaims
	// exclusively through tag-bumping UnexposeAll so that absolute deque
	// indices never reset (the monotone claim memory depends on it).
	Relaxed bool
	// Pinned is a bitmask of task ids the idempotence predicate rejects
	// (fn-task stand-ins): relaxed thieves fall back to the exclusive
	// CAS claim for them — legal only when the claim is the
	// authoritative top — and the oracle keeps the exactly-once rule
	// for them even in relaxed scenarios.
	Pinned uint16
	// RelaxedNoRepair ablates the owner-side repairRelaxed fold
	// (negative tests): reclaims and exposures no longer advance top
	// past honored claims, so every unexpose/re-expose epoch offers
	// already-claimed tasks again.
	RelaxedNoRepair bool
	// RelaxedNoClaimMemory ablates the thieves' private monotone claim
	// memory (negative tests): thieves become stateless cursor readers,
	// the model of "a fresh thief per epoch" — the adversary against
	// which the repair fold alone must carry the bound.
	RelaxedNoClaimMemory bool
	// RelaxedClaimAhead restores the earlier claim rule (negative
	// tests): a thief claims max(top, cursor, its claim memory) and
	// stores the cursor past that claim, instead of letting the memory
	// only veto. After an unexpose, a pop below an exposed index and a
	// re-exposure at the same indices, the owner's repair then folds top
	// over a re-exposed task no one returned, and LostTask fires.
	RelaxedClaimAhead bool
	// Circular switches the modelled task array from absolute to
	// physical (index mod capacity) slot addressing, the layout of the
	// implementation's circular backing array: a push at absolute index
	// i overwrites the slot of absolute index i-capacity, so stale
	// thieves can observe mask aliasing. Pushes check their window
	// against the current top and grow (doubling with a rehash of the
	// live window) when it is full, as TryPushBottom does; the relaxed
	// claim path validates the push stamp of the task it read against
	// the claim index (see deque.TakeTopRelaxed) and the StaleSlotRead
	// oracle rejects any relaxed return whose stamp does not match.
	Circular bool
	// RelaxedNoStampCheck ablates the relaxed path's stamp validation
	// (negative tests; requires Circular): thieves commit whatever task
	// their slot read returned, and the StaleSlotRead oracle exhibits
	// the aliased read the validation exists to stop.
	RelaxedNoStampCheck bool
	// AtomicClaims restricts the adversary to synchronous thieves: each
	// relaxed steal attempt executes as ONE atomic step, scheduled only
	// at owner operation boundaries ("landed claims" — every claim is
	// fully visible before the owner's next op). Under this adversary
	// the repair fold alone guarantees exactly-once delivery even for
	// stateless thieves (RelaxedNoClaimMemory), which isolates exactly
	// what the repair contributes; ablating the repair under the same
	// adversary breaks the bound — the package's negative result
	// justifying the owner-side repair. The unrestricted adversary's
	// residue (claims suspended across owner reclaims) is what the
	// per-thief claim memory bounds at Thieves+1.
	AtomicClaims bool
}

// DefaultMaxStates bounds exploration when Scenario.MaxStates is zero.
const DefaultMaxStates = 4 << 20

// OpKind enumerates the operations of the model checker's DSL. The five
// public kinds correspond one-to-one to the operations of Listing 2;
// Drain is the composite owner loop of Listing 1 (pop_bottom until nil,
// then pop_public_bottom, repeating until the deque is empty).
type OpKind uint8

const (
	// OpPushBottom pushes task Arg (1-based id) onto the private part.
	OpPushBottom OpKind = iota
	// OpPopBottom pops the bottom-most private task.
	OpPopBottom
	// OpPopPublicBottom pops the bottom-most public task; in the
	// scheduler it is only legal directly after OpPopBottom returned
	// nil, and scripts must respect that.
	OpPopPublicBottom
	// OpPopTop is a steal attempt (thief threads run these implicitly).
	OpPopTop
	// OpUpdatePublicBottom runs the exposure routine synchronously on
	// the owner (the scripted form of the signal handler's body).
	OpUpdatePublicBottom
	// OpDrain runs the owner side of Listing 1 until the deque empties.
	OpDrain
	// OpUnexposeAll reclaims every unstolen public task back into the
	// private part (deque.UnexposeAll); like OpPopPublicBottom it is only
	// legal after OpPopBottom returned nil.
	OpUnexposeAll
	// OpDrainBatch runs the batch-mode owner drain: pop_bottom until
	// nil, then UnexposeAll, repeating until the reclaim finds nothing —
	// PopPublicBottom is never called (the batch owner discipline).
	OpDrainBatch
	// OpGrow doubles the task-array capacity the way TryPushBottom's
	// grow does: load the age word, then publish a doubled generation
	// whose live slots sit at unchanged absolute indices, in a single
	// store that touches neither the age word nor publicBot. The model
	// indexes slots absolutely, so the re-masked copy is a no-op on the
	// modelled array and the publish changes only the capacity bound of
	// the push window check — which is precisely the protocol's
	// soundness claim, checked here against every steal interleaving.
	OpGrow
	// OpGrowNaive is the deliberately unsound compacting growth used by
	// the negative tests: it moves live tasks down to index 0, rebases
	// publicBot and bot, and rewrites the age word to (0, tag) WITHOUT
	// bumping the tag. A thief holding a pre-growth age snapshot then
	// passes its CAS against a slot whose content was rewritten.
	OpGrowNaive
)

// Op is one scripted operation.
type Op struct {
	Kind OpKind
	Arg  uint8 // task id for OpPushBottom
}

// Push returns a PushBottom op for task id (1-based, <= 15).
func Push(id int) Op {
	if id <= 0 || id > maxTaskID {
		panic(fmt.Sprintf("verify: task id %d out of range [1,%d]", id, maxTaskID))
	}
	return Op{Kind: OpPushBottom, Arg: uint8(id)}
}

// Pin packs task ids into a Scenario.Pinned bitmask (tasks the
// idempotence predicate rejects — the model's fn-task stand-ins).
func Pin(ids ...int) uint16 {
	var m uint16
	for _, id := range ids {
		if id <= 0 || id > maxTaskID {
			panic(fmt.Sprintf("verify: task id %d out of range [1,%d]", id, maxTaskID))
		}
		m |= 1 << uint(id)
	}
	return m
}

// Pop returns a PopBottom op.
func Pop() Op { return Op{Kind: OpPopBottom} }

// PopPublic returns a PopPublicBottom op.
func PopPublic() Op { return Op{Kind: OpPopPublicBottom} }

// UpdatePublicBottom returns a scripted exposure op.
func UpdatePublicBottom() Op { return Op{Kind: OpUpdatePublicBottom} }

// Drain returns the composite drain-the-deque op.
func Drain() Op { return Op{Kind: OpDrain} }

// UnexposeAll returns a reclaim-the-public-part op.
func UnexposeAll() Op { return Op{Kind: OpUnexposeAll} }

// DrainBatch returns the composite batch-mode drain op (pop_bottom /
// UnexposeAll loop, never PopPublicBottom).
func DrainBatch() Op { return Op{Kind: OpDrainBatch} }

// Grow returns an index-preserving capacity-doubling op (the growth
// protocol of TryPushBottom).
func Grow() Op { return Op{Kind: OpGrow} }

// GrowNaive returns the unsound compacting growth op used by negative
// tests (rebases indices without bumping the ABA tag).
func GrowNaive() Op { return Op{Kind: OpGrowNaive} }

// String returns a compact rendering of the op.
func (o Op) String() string {
	switch o.Kind {
	case OpPushBottom:
		return fmt.Sprintf("push(%d)", o.Arg)
	case OpPopBottom:
		return "pop_bottom"
	case OpPopPublicBottom:
		return "pop_public_bottom"
	case OpPopTop:
		return "pop_top"
	case OpUpdatePublicBottom:
		return "update_public_bottom"
	case OpDrain:
		return "drain"
	case OpUnexposeAll:
		return "unexpose_all"
	case OpDrainBatch:
		return "drain_batch"
	case OpGrow:
		return "grow"
	case OpGrowNaive:
		return "grow_naive"
	default:
		return fmt.Sprintf("op(%d)", uint8(o.Kind))
	}
}

// ViolationKind classifies a property violation.
type ViolationKind uint8

const (
	// DuplicateTask means one task id was returned twice.
	DuplicateTask ViolationKind = iota
	// LostTask means a draining scenario terminated with a pushed task
	// never returned.
	LostTask
	// IndexInvariant means top <= publicBot <= bot failed at a quiescent
	// state (outside the documented race-fix repair window).
	IndexInvariant
	// SlotCorruption means an operation observed an empty slot where the
	// algorithm guarantees a task.
	SlotCorruption
	// MultiplicityExceeded means a relaxed scenario returned one task
	// more than Thieves+1 times — the MultFree bound (one return per
	// thief via the monotone claim memory, plus at most one absorbed
	// owner re-execution from the fence-free claim window).
	MultiplicityExceeded
	// StaleSlotRead means a relaxed claim committed a task whose push
	// stamp does not match the claim index (Circular scenarios): the
	// thief's slot read aliased onto a task pushed a whole capacity
	// later — possibly a private, never-exposed task. The stamp
	// validation of deque.TakeTopRelaxed exists to turn exactly this
	// into an abort; only the RelaxedNoStampCheck ablation reaches it.
	StaleSlotRead
)

// String names the violation kind.
func (k ViolationKind) String() string {
	switch k {
	case DuplicateTask:
		return "duplicate-task"
	case LostTask:
		return "lost-task"
	case IndexInvariant:
		return "index-invariant"
	case SlotCorruption:
		return "slot-corruption"
	case MultiplicityExceeded:
		return "multiplicity-exceeded"
	case StaleSlotRead:
		return "stale-slot-read"
	default:
		return fmt.Sprintf("violation(%d)", uint8(k))
	}
}

// Violation is one counterexample found by the explorer.
type Violation struct {
	Kind ViolationKind
	// Detail describes the violated assertion in the failing state.
	Detail string
	// Trace is the full interleaving (one micro-step per line) leading
	// to the violation.
	Trace []string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s (after %d steps)", v.Kind, v.Detail, len(v.Trace))
}

// Report is the result of exhaustively checking one scenario.
type Report struct {
	Scenario    Scenario
	States      int // distinct canonical states visited
	Transitions int // micro-steps executed
	Violations  []Violation
	// MaxMultiplicity is the largest per-task return count observed in
	// any violation-free reachable state. Relaxed positive tests use it
	// to show the multiplicity bound is tight: duplicates genuinely
	// occur (MaxMultiplicity > 1) yet never exceed Thieves+1.
	MaxMultiplicity int
	// Truncated is set when MaxStates stopped the search early; absence
	// of violations is then inconclusive.
	Truncated bool
}

// Clean reports whether the exhaustive search finished and found no
// violations.
func (r Report) Clean() bool { return !r.Truncated && len(r.Violations) == 0 }

// maxViolations bounds how many distinct counterexamples one Check run
// collects before stopping.
const maxViolations = 4

// maxTaskID is the largest task id the packed state encoding supports.
const maxTaskID = 15
