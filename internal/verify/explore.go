package verify

import "fmt"

// Check exhaustively explores every interleaving of the scenario and
// returns a report of all property violations found (up to a small
// cap). The search is a depth-first traversal of the transition system
// with canonical-state memoization: two schedules that reach the same
// shared-memory and thread state are explored once, and identical thief
// threads are treated as interchangeable, so only schedules that differ
// in the order of conflicting shared accesses contribute new states.
func Check(sc Scenario) Report {
	sc = normalize(sc)
	rep := Report{Scenario: sc}
	seen := make(map[string]struct{}, 1<<12)
	maxStates := sc.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}

	var path []string
	record := func(v *Violation) {
		trace := make([]string, len(path))
		copy(trace, path)
		v.Trace = trace
		rep.Violations = append(rep.Violations, *v)
	}

	var dfs func(s state)
	dfs = func(s state) {
		if rep.Truncated || len(rep.Violations) >= maxViolations {
			return
		}
		key := s.key()
		if _, ok := seen[key]; ok {
			return
		}
		if len(seen) >= maxStates {
			rep.Truncated = true
			return
		}
		seen[key] = struct{}{}
		for rc := s.retCounts; rc != 0; rc >>= 4 {
			if m := int(rc & 0xf); m > rep.MaxMultiplicity {
				rep.MaxMultiplicity = m
			}
		}
		if v := s.checkState(&sc); v != nil {
			record(v)
			return
		}
		if s.terminal(&sc) {
			return
		}
		for tid := 0; tid < int(s.nthreads); tid++ {
			if s.threadDone(&sc, tid) {
				continue
			}
			// The AtomicClaims synchronous adversary: whole-attempt thief
			// steps are schedulable only at owner operation boundaries.
			if sc.AtomicClaims && tid > 0 && (s.th[0].phase != 0 || s.th[0].hphase != 0) {
				continue
			}
			// The emulated signal can be delivered to the owner at any
			// instruction boundary, including in the middle of an
			// operation — the §4 race window.
			if tid == 0 && s.sigPending && s.sigBudget > 0 && s.th[0].hphase == 0 {
				ns := s
				label, v := ns.step(&sc, 0, true)
				rep.Transitions++
				path = append(path, label)
				if v != nil {
					record(v)
				} else {
					dfs(ns)
				}
				path = path[:len(path)-1]
			}
			ns := s
			label, v := ns.step(&sc, tid, false)
			rep.Transitions++
			path = append(path, label)
			if v != nil {
				record(v)
			} else {
				dfs(ns)
			}
			path = path[:len(path)-1]
		}
	}

	dfs(initialState(&sc))
	rep.States = len(seen)
	return rep
}

// normalize validates the scenario and applies defaults.
func normalize(sc Scenario) Scenario {
	if sc.Capacity <= 0 {
		sc.Capacity = 8
	}
	if sc.Capacity > maxSlots {
		panic(fmt.Sprintf("verify: capacity %d exceeds the modelled maximum %d", sc.Capacity, maxSlots))
	}
	if sc.Thieves < 0 || sc.Thieves > maxThreads-1 {
		panic(fmt.Sprintf("verify: thief count %d out of range [0,%d]", sc.Thieves, maxThreads-1))
	}
	if sc.Thieves > 0 && sc.StealAttempts <= 0 {
		panic("verify: scenario has thieves but no steal attempts")
	}
	if sc.StealHalf {
		if sc.BatchBuf <= 0 {
			sc.BatchBuf = 4
		}
		if sc.BatchBuf > maxSlots {
			panic(fmt.Sprintf("verify: batch buffer %d exceeds the modelled maximum %d", sc.BatchBuf, maxSlots))
		}
	}
	if sc.SignalBudget < 0 || sc.SignalBudget > 255 {
		panic("verify: signal budget out of range")
	}
	if sc.Relaxed {
		if !sc.RaceFix {
			panic("verify: relaxed scenarios require RaceFix (MultFree implies the §4 pop_bottom)")
		}
		if sc.StealHalf {
			panic("verify: relaxed scenarios model the single-claim protocol; the batched variant rides on the same cursor store (see deque.TakeTopHalfRelaxed)")
		}
	} else if sc.RelaxedNoRepair || sc.RelaxedNoClaimMemory || sc.RelaxedClaimAhead || sc.AtomicClaims || sc.Pinned != 0 {
		panic("verify: relaxed knobs (NoRepair/NoClaimMemory/ClaimAhead/AtomicClaims/Pinned) require Relaxed")
	}
	if sc.RelaxedNoStampCheck && (!sc.Relaxed || !sc.Circular) {
		panic("verify: RelaxedNoStampCheck ablates the stamp validation of the relaxed claim path on the circular array model; it requires both Relaxed and Circular")
	}
	grows := 0
	for _, op := range sc.Owner {
		switch op.Kind {
		case OpPopPublicBottom, OpDrain:
			if sc.Relaxed {
				panic(fmt.Sprintf("verify: op %v violates the MultFree owner discipline (UnexposeAll-only reclaim; PopPublicBottom's emptying path resets absolute indices and would break the monotone claim memory)", op))
			}
		case OpPushBottom, OpPopBottom, OpUpdatePublicBottom, OpUnexposeAll, OpDrainBatch:
		case OpGrowNaive:
			if sc.Circular {
				panic("verify: GrowNaive is the compacting negative on the absolute-index model and cannot be combined with Circular")
			}
			grows++
		case OpGrow:
			grows++
		default:
			panic(fmt.Sprintf("verify: op %v is not a valid owner op", op))
		}
	}
	if final := sc.Capacity << grows; final > maxSlots {
		panic(fmt.Sprintf("verify: scenario %q grows capacity %d to %d, beyond the modelled maximum %d",
			sc.Name, sc.Capacity, final, maxSlots))
	}
	return sc
}
