// Package core implements the paper's schedulers: the Work Stealing
// baseline (WS) and four LCWS variants (user-space USLCWS of §3, the
// signal-based scheduler of §4, and the Conservative Exposure and Expose
// Half variants of §4.1), over the deques of internal/deque.
//
// # Signal emulation
//
// The paper's signal-based schedulers deliver work-exposure requests with
// pthread_kill: the handler runs update_public_bottom on the victim's own
// thread at an arbitrary instruction boundary, so requests are handled in
// constant time (up to OS signal latency — footnote 2). Go cannot deliver a
// signal to a specific goroutine, so this package emulates delivery with a
// per-worker pending word: a thief stores to it ("sends the signal"), and
// the victim's goroutine checks it at every delivery point — each push of
// Fork2 and forkRange (ParFor splits), each join, the scheduler loops,
// and the Poll/Checkpoint calls that computational kernels place inside
// their loops. Each check is one atomic load; WS never sets the word. The
// handler therefore still runs on the owner's goroutine at a
// bounded-distance instruction boundary, preserving both the ownership
// discipline and the constant-time-exposure property, with the distance
// between delivery points (at most one fork, one join or one checkpoint
// interval) playing the role of OS delivery latency. USLCWS ignores the
// pending word entirely and only notices its targeted flag at task
// boundaries, exactly as in §3.
package core

import (
	"fmt"
	"strings"

	"lcws/internal/deque"
)

// Policy selects which scheduler the worker pool runs.
type Policy uint8

const (
	// WS is the baseline Work Stealing scheduler with fully concurrent
	// Chase-Lev deques (Parlay's stock scheduler in the paper).
	WS Policy = iota
	// USLCWS is the user-space LCWS of §3: thieves set the victim's
	// targeted flag; the victim notices it only at task boundaries.
	USLCWS
	// SignalLCWS is the signal-based LCWS of §4: notifications are
	// handled in constant time via the emulated signal mechanism, with
	// the §4 race-fixed pop_bottom.
	SignalLCWS
	// ConsLCWS is the Conservative Exposure variant of §4.1.1: signals
	// are sent only when the victim has at least two tasks, and the
	// handler exposes only when at least two private tasks remain, so
	// the original pop_bottom stays race-free.
	ConsLCWS
	// HalfLCWS is the Expose Half variant of §4.1.2: the handler exposes
	// round(r/2) of the r private tasks when r >= 3.
	HalfLCWS
	// LaceWS is the Lace scheduler of van Dijk and van de Pol (the
	// related-work baseline of §2): split deques with flag-based
	// exposure requests observed only at deque accesses (like USLCWS),
	// half-of-deque exposure, and — unlike every LCWS variant — the
	// ability to "unexpose": when the private part empties while public
	// work remains, the owner reclaims the whole public part in one
	// synchronized step instead of draining it task by task.
	LaceWS
	// MultFree is the relaxed split-deque policy of Castañeda & Piña
	// (arXiv 2008.04424) grafted onto the signal-based scheduler: thieves
	// claim tasks with plain read/write operations — no CAS, no fence on
	// the steal side — at the cost of bounded multiplicity (a task may
	// rarely be taken more than once, at most once per thief). Only tasks
	// the scheduler knows are idempotent take the relaxed path (ParFor
	// range bodies); Fork2 closures fall back to the exclusive CAS steal
	// and are never duplicated. Duplicate executions are absorbed by a
	// generation-stamp arbitration so completion and join accounting stay
	// exact; the owner reclaims leftover public work exclusively through
	// the tag-bumping UnexposeAll (like Lace), which together with the
	// owner-side cursor repair keeps the multiplicity bound
	// (model-checked in internal/verify).
	MultFree

	numPolicies
)

// NumPolicies is the number of scheduler policies.
const NumPolicies = int(numPolicies)

// Policies lists every policy in presentation order (baseline first,
// the paper's four LCWS variants, the Lace comparator, then the relaxed
// MultFree extension).
var Policies = [NumPolicies]Policy{WS, USLCWS, SignalLCWS, ConsLCWS, HalfLCWS, LaceWS, MultFree}

// LCWSPolicies lists the four LCWS-based policies the paper evaluates
// against the WS baseline, in the order used by Figures 5 and 6
// (User, Signal, Cons, Half).
var LCWSPolicies = [4]Policy{USLCWS, SignalLCWS, ConsLCWS, HalfLCWS}

var policyNames = [NumPolicies]string{
	WS:         "WS",
	USLCWS:     "USLCWS",
	SignalLCWS: "Signal",
	ConsLCWS:   "Cons",
	HalfLCWS:   "Half",
	LaceWS:     "Lace",
	MultFree:   "MultFree",
}

// String returns the short name used in the paper's figures
// (WS, USLCWS/User, Signal, Cons, Half).
func (p Policy) String() string {
	if int(p) >= NumPolicies {
		return fmt.Sprintf("policy(%d)", uint8(p))
	}
	return policyNames[p]
}

// ParsePolicy returns the policy whose String name matches
// case-insensitively, so flag values like "signal" or "ws" round-trip
// with Policy.String.
func ParsePolicy(name string) (Policy, error) {
	for i, n := range policyNames {
		if strings.EqualFold(n, name) {
			return Policy(i), nil
		}
	}
	if strings.EqualFold(name, "User") { // figure-label alias for USLCWS
		return USLCWS, nil
	}
	return 0, fmt.Errorf("core: unknown policy %q", name)
}

// SplitDeque reports whether the policy uses the LCWS split deque
// (all policies except the WS baseline).
func (p Policy) SplitDeque() bool { return p != WS }

// SignalBased reports whether thieves notify victims through the emulated
// signal mechanism (handled at checkpoints) rather than the task-boundary
// targeted flag. MultFree keeps Signal's notification machinery so the
// steal-path relaxation is the only variable between the two.
func (p Policy) SignalBased() bool {
	return p == SignalLCWS || p == ConsLCWS || p == HalfLCWS || p == MultFree
}

// raceFixPop reports whether the split deque must use the §4 signal-safe
// pop_bottom. The Conservative variant avoids the race by construction and
// keeps the original pop_bottom; USLCWS never exposes mid-task.
func (p Policy) raceFixPop() bool { return p == SignalLCWS || p == HalfLCWS || p == MultFree }

// relaxedSteal reports whether thieves may claim idempotent tasks through
// the fence- and CAS-free relaxed path (TakeTopRelaxed) with bounded
// multiplicity, and the owner reclaims public work exclusively through
// UnexposeAll.
func (p Policy) relaxedSteal() bool { return p == MultFree }

// exposeMode returns the work-exposure policy of the scheduler's handler.
func (p Policy) exposeMode() deque.ExposeMode {
	switch p {
	case ConsLCWS:
		return deque.ExposeConservative
	case HalfLCWS, LaceWS:
		return deque.ExposeHalf
	default:
		return deque.ExposeOne
	}
}

// flagBased reports whether exposure requests are observed only at task
// boundaries via the targeted flag (USLCWS and Lace).
func (p Policy) flagBased() bool { return p == USLCWS || p == LaceWS }
