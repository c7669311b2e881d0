package verify

import "fmt"

// This file is the micro-step interpreter. Each deque operation is
// executed one shared-memory access at a time, in exactly the order the
// implementation in internal/deque/splitdeque.go performs them; local
// computation (comparisons, arithmetic) is folded into the adjacent
// shared access, since only the order of shared accesses is observable
// to other threads. Phase 0 always means "operation boundary" — the
// points at which the emulated exposure signal may be delivered to the
// owner and at which the index invariant is asserted.

// step executes one micro-step of thread tid on s, mutating it in
// place. deliver (owner only) delivers a pending exposure signal
// instead of running the next instruction. It returns a human-readable
// label for the transition and a violation if the step itself detected
// one (duplicate return or slot corruption).
func (s *state) step(sc *Scenario, tid int, deliver bool) (string, *Violation) {
	t := &s.th[tid]
	if deliver {
		t.hphase = 1
		if relaxedRepairOn(sc) {
			// The handler's Expose runs the repairRelaxed fold first.
			t.hphase = 4
		}
		s.sigPending = false
		s.sigBudget--
		return "owner: <exposure signal delivered>", nil
	}
	if tid == 0 && t.hphase != 0 {
		return s.handlerStep(sc, t)
	}
	if tid == 0 {
		op := sc.Owner[t.ip]
		kind := op.Kind
		if kind == OpDrain || kind == OpDrainBatch {
			if t.drain == 0 {
				t.drain = 1
			}
			switch t.drain {
			case 1:
				kind = OpPopBottom
			case 2:
				kind = OpPopPublicBottom
			default: // 3
				kind = OpUnexposeAll
			}
		}
		switch kind {
		case OpPushBottom:
			return s.pushStep(sc, t, op.Arg)
		case OpPopBottom:
			return s.popBottomStep(sc, t)
		case OpPopPublicBottom:
			return s.popPublicStep(sc, t)
		case OpUpdatePublicBottom:
			return s.updatePublicStep(sc, t)
		case OpUnexposeAll:
			return s.unexposeStep(sc, t)
		case OpGrow:
			return s.growStep(sc, t)
		case OpGrowNaive:
			return s.growNaiveStep(sc, t)
		default:
			panic(fmt.Sprintf("verify: owner cannot run op %v", op))
		}
	}
	if sc.Relaxed {
		return s.relaxedTakeStep(sc, t, tid)
	}
	if sc.StealHalf {
		return s.popTopHalfStep(sc, t, tid)
	}
	return s.popTopStep(sc, t, tid)
}

// relaxedRepairOn reports whether the owner's expose/reclaim ops run
// the repairRelaxed cursor fold (the MultFree owner discipline, unless
// a negative scenario ablates it).
func relaxedRepairOn(sc *Scenario) bool { return sc.Relaxed && !sc.RelaxedNoRepair }

// completeOwner finishes the owner's current op. returnedTask reports
// whether the op returned a task — or, for UnexposeAll, reclaimed at
// least one (drives the drain loops of Listing 1 and the batch mode).
func (t *thread) completeOwner(sc *Scenario, returnedTask bool) {
	t.phase, t.r1, t.r2, t.r3, t.r4 = 0, 0, 0, 0, 0
	switch sc.Owner[t.ip].Kind {
	case OpDrain:
		switch {
		case t.drain == 1 && returnedTask:
			// pop_bottom found a private task; keep popping privately.
		case t.drain == 1:
			// Private part empty: fall through to pop_public_bottom, the
			// only legal next deque op (it also repairs bot after a failed
			// race-fix pop_bottom).
			t.drain = 2
		case returnedTask:
			// pop_public_bottom recovered a public task; the scheduler
			// executes it and comes back through pop_bottom.
			t.drain = 1
		default:
			// pop_public_bottom returned nil: the deque is empty (either
			// fully reset or the last task went to a thief). Drain done.
			t.drain = 0
			t.ip++
		}
	case OpDrainBatch:
		switch {
		case t.drain == 1 && returnedTask:
			// pop_bottom found a private task; keep popping privately.
		case t.drain == 1:
			// Private part empty: reclaim the public part wholesale
			// (batch owner discipline — never pop_public_bottom; it also
			// repairs bot after a failed race-fix pop_bottom).
			t.drain = 3
		case returnedTask:
			// UnexposeAll reclaimed public tasks into the private part;
			// pop them synchronization-free.
			t.drain = 1
		default:
			// UnexposeAll found nothing to reclaim: every task was popped
			// or stolen. Drain done.
			t.drain = 0
			t.ip++
		}
	default:
		t.ip++
	}
}

// complete finishes a thief's current attempt.
func (t *thread) complete() {
	t.phase, t.r1, t.r2, t.r3, t.r4 = 0, 0, 0, 0, 0
	t.ip++
}

// pushStep: PushBottom (Listing 2, sync-free — paper Lemma 1).
//
//	b := bot.Load(); deq[b].Store(task); bot.Store(b+1)
func (s *state) pushStep(sc *Scenario, t *thread, id uint8) (string, *Violation) {
	switch t.phase {
	case 0:
		t.r1 = s.bot
		if sc.Circular {
			// The circular model runs the implementation's actual window
			// check, bot - top >= capacity against a fresh top, and grows
			// when the window is full, exactly as TryPushBottom does: the
			// doubled generation is published in this same micro-step
			// (the publish is the growth's single thief-visible write;
			// the top load feeding the copy bound folds into it).
			if top, _ := unpackAge(s.age); t.r1-uint64(top) >= uint64(s.cap) {
				if 2*int(s.cap) > maxSlots {
					panic(fmt.Sprintf("verify: scenario %q grows beyond the modelled maximum %d", sc.Name, maxSlots))
				}
				s.rehash(uint64(top), 2*s.cap)
				t.phase = 1
				return fmt.Sprintf("owner: push(%d) load bot=%d (window full: grow publish capacity=%d)", id, t.r1, s.cap), nil
			}
		} else if t.r1 >= uint64(s.cap) {
			// The absolute-index model's window check conservatively
			// assumes top == 0 (the worst case over all interleavings) so
			// that a scenario either fits in every schedule or is
			// rejected deterministically. Scripts push past the initial
			// capacity by inserting an explicit Grow op first.
			panic(fmt.Sprintf("verify: scenario %q overflows capacity %d without a Grow op", sc.Name, s.cap))
		}
		t.phase = 1
		return fmt.Sprintf("owner: push(%d) load bot=%d", id, t.r1), nil
	case 1:
		// The push stamp is stored into the descriptor before the slot
		// publish and is read atomically with it, so the pair is one
		// micro-step (taskIdx is per-task, immutable once written).
		s.slots[s.phys(sc, t.r1)] = id
		s.taskIdx[id] = uint8(t.r1)
		t.phase = 2
		return fmt.Sprintf("owner: push(%d) store slot[%d]", id, s.phys(sc, t.r1)), nil
	default:
		s.bot = t.r1 + 1
		bit := uint16(1) << id
		if s.pushed&bit != 0 {
			panic(fmt.Sprintf("verify: scenario %q pushes task id %d twice", sc.Name, id))
		}
		s.pushed |= bit
		b := t.r1
		t.completeOwner(sc, false)
		return fmt.Sprintf("owner: push(%d) store bot=%d", id, b+1), nil
	}
}

// popBottomStep: PopBottom in the variant selected by sc.RaceFix
// (sync-free — paper Lemma 2). Registers: r1 = b, r2 = publicBot,
// r3 = task.
func (s *state) popBottomStep(sc *Scenario, t *thread) (string, *Violation) {
	if sc.RaceFix {
		// §4: b := bot.Load(); if b == 0 return nil; b--; bot.Store(b);
		// if b < publicBot.Load() return nil; return deq[b].Load()
		switch t.phase {
		case 0:
			t.r1 = s.bot
			if t.r1 == 0 {
				t.completeOwner(sc, false)
				return "owner: pop_bottom load bot=0 -> nil (empty, reset)", nil
			}
			t.phase = 1
			return fmt.Sprintf("owner: pop_bottom load bot=%d", t.r1), nil
		case 1:
			s.bot = t.r1 - 1
			t.phase = 2
			return fmt.Sprintf("owner: pop_bottom store bot=%d (pre-decrement)", t.r1-1), nil
		case 2:
			t.r2 = s.publicBot
			if t.r1-1 < t.r2 {
				// The decremented slot is public: leave bot one below
				// publicBot for PopPublicBottom to repair (§4).
				t.completeOwner(sc, false)
				return fmt.Sprintf("owner: pop_bottom load publicBot=%d -> nil (slot went public)", t.r2), nil
			}
			t.phase = 3
			return fmt.Sprintf("owner: pop_bottom load publicBot=%d", t.r2), nil
		default:
			idx := t.r1 - 1
			id := s.slots[s.phys(sc, idx)]
			if id == 0 {
				return "owner: pop_bottom load slot", &Violation{Kind: SlotCorruption,
					Detail: fmt.Sprintf("pop_bottom read empty slot %d", idx)}
			}
			v := s.recordReturn(sc, id)
			t.completeOwner(sc, true)
			return fmt.Sprintf("owner: pop_bottom load slot[%d] -> task %d", idx, id), v
		}
	}
	// Original Listing 2: b := bot.Load(); if b == publicBot.Load()
	// return nil; b--; bot.Store(b); return deq[b].Load()
	switch t.phase {
	case 0:
		t.r1 = s.bot
		t.phase = 1
		return fmt.Sprintf("owner: pop_bottom load bot=%d", t.r1), nil
	case 1:
		t.r2 = s.publicBot
		if t.r1 == t.r2 {
			t.completeOwner(sc, false)
			return fmt.Sprintf("owner: pop_bottom load publicBot=%d -> nil (private empty)", t.r2), nil
		}
		t.phase = 2
		return fmt.Sprintf("owner: pop_bottom load publicBot=%d", t.r2), nil
	case 2:
		s.bot = t.r1 - 1
		t.phase = 3
		return fmt.Sprintf("owner: pop_bottom store bot=%d", t.r1-1), nil
	default:
		idx := t.r1 - 1
		id := s.slots[s.phys(sc, idx)]
		if id == 0 {
			return "owner: pop_bottom load slot", &Violation{Kind: SlotCorruption,
				Detail: fmt.Sprintf("pop_bottom read empty slot %d", idx)}
		}
		v := s.recordReturn(sc, id)
		t.completeOwner(sc, true)
		return fmt.Sprintf("owner: pop_bottom load slot[%d] -> task %d", idx, id), v
	}
}

// popPublicStep: PopPublicBottom (Listing 2 lines 10–29). Registers:
// r1 = pb (pre-decrement), r2 = oldAge, r3 = task id.
func (s *state) popPublicStep(sc *Scenario, t *thread) (string, *Violation) {
	switch t.phase {
	case 0:
		t.r1 = s.publicBot
		if t.r1 == 0 {
			if sc.RaceFix {
				t.phase = 1 // repair bot in a separate store
				return "owner: pop_public_bottom load publicBot=0", nil
			}
			t.completeOwner(sc, false)
			return "owner: pop_public_bottom load publicBot=0 -> nil", nil
		}
		t.phase = 2
		return fmt.Sprintf("owner: pop_public_bottom load publicBot=%d", t.r1), nil
	case 1:
		s.bot = 0
		t.completeOwner(sc, false)
		return "owner: pop_public_bottom store bot=0 (repair) -> nil", nil
	case 2:
		s.publicBot = t.r1 - 1
		t.phase = 3
		return fmt.Sprintf("owner: pop_public_bottom store publicBot=%d", t.r1-1), nil
	case 3:
		t.r3 = uint64(s.slots[s.phys(sc, t.r1-1)])
		t.phase = 4
		return fmt.Sprintf("owner: pop_public_bottom load slot[%d] -> task %d", t.r1-1, t.r3), nil
	case 4:
		t.r2 = s.age
		top, _ := unpackAge(t.r2)
		if t.r1-1 > uint64(top) {
			t.phase = 5
		} else {
			t.phase = 6
		}
		return fmt.Sprintf("owner: pop_public_bottom load age (top=%d)", top), nil
	case 5:
		// Common path: public tasks remain above top.
		idx := t.r1 - 1
		s.bot = idx
		id := uint8(t.r3)
		if id == 0 {
			return "owner: pop_public_bottom store bot", &Violation{Kind: SlotCorruption,
				Detail: fmt.Sprintf("pop_public_bottom read empty slot %d", idx)}
		}
		v := s.recordReturn(sc, id)
		t.completeOwner(sc, true)
		return fmt.Sprintf("owner: pop_public_bottom store bot=%d -> task %d", idx, id), v
	case 6:
		// Emptying path (line 20 onward): reset indices, race thieves.
		s.bot = 0
		t.phase = 7
		return "owner: pop_public_bottom store bot=0 (emptying)", nil
	case 7:
		s.publicBot = 0
		top, _ := unpackAge(t.r2)
		if t.r1-1 == uint64(top) {
			t.phase = 8
		} else {
			t.phase = 9
		}
		return "owner: pop_public_bottom store publicBot=0 (emptying)", nil
	case 8:
		top, tag := unpackAge(t.r2)
		_ = top
		if s.age == t.r2 {
			s.age = packAge(0, tag+1)
			id := uint8(t.r3)
			if id == 0 {
				return "owner: pop_public_bottom CAS age", &Violation{Kind: SlotCorruption,
					Detail: fmt.Sprintf("pop_public_bottom read empty slot %d", t.r1-1)}
			}
			v := s.recordReturn(sc, id)
			t.completeOwner(sc, true)
			return fmt.Sprintf("owner: pop_public_bottom CAS age ok -> task %d", id), v
		}
		t.phase = 9
		return "owner: pop_public_bottom CAS age failed (thief won)", nil
	default:
		_, tag := unpackAge(t.r2)
		s.age = packAge(0, tag+1)
		t.completeOwner(sc, false)
		return "owner: pop_public_bottom store age (reset) -> nil", nil
	}
}

// updatePublicStep: the scripted form of update_public_bottom
// (Listing 2 lines 44–46, sync-free — §4 footnote 3). Registers:
// r1 = pb, r2 = b.
func (s *state) updatePublicStep(sc *Scenario, t *thread) (string, *Violation) {
	switch t.phase {
	case 0, 13:
		if t.phase == 0 && relaxedRepairOn(sc) {
			// MultFree: deque.Expose runs repairRelaxed before exposing.
			t.r1 = s.age
			t.phase = 10
			top, _ := unpackAge(t.r1)
			return fmt.Sprintf("owner: update_public_bottom repair load age (top=%d)", top), nil
		}
		t.r1 = s.publicBot
		t.phase = 1
		return fmt.Sprintf("owner: update_public_bottom load publicBot=%d", t.r1), nil
	case 10:
		t.r2 = s.relNext
		top, tag := unpackAge(t.r1)
		rIdx, rTag := unpackAge(t.r2)
		if rTag != tag || rIdx <= top {
			t.phase = 13 // cursor not honored: proceed to the exposure
			return fmt.Sprintf("owner: update_public_bottom repair load relNext (idx=%d tag=%d, not honored)", rIdx, rTag), nil
		}
		t.phase = 11
		return fmt.Sprintf("owner: update_public_bottom repair load relNext (idx=%d, honored)", rIdx), nil
	case 11:
		_, tag := unpackAge(t.r1)
		rIdx, _ := unpackAge(t.r2)
		if s.age == t.r1 {
			s.age = packAge(rIdx, tag)
			t.phase = 13
			return fmt.Sprintf("owner: update_public_bottom repair CAS age ok (top=%d)", rIdx), nil
		}
		t.phase = 12
		return "owner: update_public_bottom repair CAS age failed (retry)", nil
	case 12:
		t.r1 = s.age
		t.phase = 10
		top, _ := unpackAge(t.r1)
		return fmt.Sprintf("owner: update_public_bottom repair load age (top=%d, retry)", top), nil
	case 1:
		t.r2 = s.bot
		if t.r2 < t.r1 {
			t.completeOwner(sc, false)
			return fmt.Sprintf("owner: update_public_bottom load bot=%d -> no-op (mid pop_bottom)", t.r2), nil
		}
		if exposeCount(sc.Expose, t.r2-t.r1) == 0 {
			t.completeOwner(sc, false)
			return fmt.Sprintf("owner: update_public_bottom load bot=%d -> no-op (policy)", t.r2), nil
		}
		t.phase = 2
		return fmt.Sprintf("owner: update_public_bottom load bot=%d", t.r2), nil
	default:
		n := exposeCount(sc.Expose, t.r2-t.r1)
		s.publicBot = t.r1 + n
		t.completeOwner(sc, false)
		return fmt.Sprintf("owner: update_public_bottom store publicBot=%d (+%d)", t.r1+n, n), nil
	}
}

// handlerStep runs the emulated exposure signal handler on the owner.
// It executes the same micro-steps as update_public_bottom but on the
// handler frame, so it can interrupt any owner operation mid-flight.
// h1 holds pb, then pb+n once the store is committed to.
func (s *state) handlerStep(sc *Scenario, t *thread) (string, *Violation) {
	switch t.hphase {
	case 4: // relaxed repair fold (deque.Expose head), handler frame
		t.h1 = s.age
		t.hphase = 5
		top, _ := unpackAge(t.h1)
		return fmt.Sprintf("owner(sig): expose repair load age (top=%d)", top), nil
	case 5:
		t.h2 = s.relNext
		top, tag := unpackAge(t.h1)
		rIdx, rTag := unpackAge(t.h2)
		if rTag != tag || rIdx <= top {
			t.hphase, t.h2 = 1, 0 // cursor not honored: proceed to the exposure
			return fmt.Sprintf("owner(sig): expose repair load relNext (idx=%d tag=%d, not honored)", rIdx, rTag), nil
		}
		t.hphase = 6
		return fmt.Sprintf("owner(sig): expose repair load relNext (idx=%d, honored)", rIdx), nil
	case 6:
		_, tag := unpackAge(t.h1)
		rIdx, _ := unpackAge(t.h2)
		if s.age == t.h1 {
			s.age = packAge(rIdx, tag)
			t.hphase, t.h2 = 1, 0
			return fmt.Sprintf("owner(sig): expose repair CAS age ok (top=%d)", rIdx), nil
		}
		t.hphase = 4
		return "owner(sig): expose repair CAS age failed (retry)", nil
	case 1:
		t.h1 = s.publicBot
		t.hphase = 2
		return fmt.Sprintf("owner(sig): update_public_bottom load publicBot=%d", t.h1), nil
	case 2:
		b := s.bot
		if b < t.h1 {
			t.hphase, t.h1, t.h2 = 0, 0, 0
			return fmt.Sprintf("owner(sig): update_public_bottom load bot=%d -> no-op (mid pop_bottom)", b), nil
		}
		n := exposeCount(sc.Expose, b-t.h1)
		if n == 0 {
			t.hphase, t.h1, t.h2 = 0, 0, 0
			return fmt.Sprintf("owner(sig): update_public_bottom load bot=%d -> no-op (policy)", b), nil
		}
		t.h1 += n
		t.hphase = 3
		return fmt.Sprintf("owner(sig): update_public_bottom load bot=%d (will expose %d)", b, n), nil
	default:
		s.publicBot = t.h1
		t.hphase, t.h1, t.h2 = 0, 0, 0
		return fmt.Sprintf("owner(sig): update_public_bottom store publicBot=%d", s.publicBot), nil
	}
}

// popTopStep: a thief's PopTop attempt (Listing 2 lines 31–42).
// Registers: r1 = oldAge, r2 = pb, r3 = task id.
func (s *state) popTopStep(sc *Scenario, t *thread, tid int) (string, *Violation) {
	who := fmt.Sprintf("thief%d", tid)
	switch t.phase {
	case 0:
		t.r1 = s.age
		t.phase = 1
		top, _ := unpackAge(t.r1)
		return fmt.Sprintf("%s: pop_top load age (top=%d)", who, top), nil
	case 1:
		t.r2 = s.publicBot
		top, _ := unpackAge(t.r1)
		if t.r2 > uint64(top) {
			t.phase = 2
		} else {
			t.phase = 4
		}
		return fmt.Sprintf("%s: pop_top load publicBot=%d", who, t.r2), nil
	case 2:
		top, _ := unpackAge(t.r1)
		t.r3 = uint64(s.slots[s.phys(sc, uint64(top))])
		t.phase = 3
		return fmt.Sprintf("%s: pop_top load slot[%d] -> task %d", who, top, t.r3), nil
	case 3:
		top, tag := unpackAge(t.r1)
		if s.age == t.r1 {
			s.age = packAge(top+1, tag)
			id := uint8(t.r3)
			if id == 0 {
				return who + ": pop_top CAS age", &Violation{Kind: SlotCorruption,
					Detail: fmt.Sprintf("pop_top read empty slot %d", top)}
			}
			v := s.recordReturn(sc, id)
			t.complete()
			return fmt.Sprintf("%s: pop_top CAS age ok -> STOLEN task %d", who, id), v
		}
		t.complete()
		return who + ": pop_top CAS age failed -> ABORT", nil
	default:
		b := s.bot
		pb := t.r2
		t.complete()
		if pb < b {
			if sc.AutoSignal {
				s.sigPending = true
			}
			return fmt.Sprintf("%s: pop_top load bot=%d -> PRIVATE_WORK (notify owner)", who, b), nil
		}
		return fmt.Sprintf("%s: pop_top load bot=%d -> EMPTY", who, b), nil
	}
}

// popTopHalfStep: a thief's batched PopTopHalf attempt
// (deque.PopTopHalf): claim up to half of the public part, capped at
// sc.BatchBuf, with one CAS on the age word. Registers: r1 = oldAge,
// r2 = pb, r3 = the read task ids packed as nibbles (id i in bits
// [4i,4i+4)), r4 = batch size n (low byte) and slot-read cursor i
// (second byte). Every slot read is its own micro-step — the reads
// happen before the CAS in the implementation, and that window is
// exactly what the negative PopPublicBottom scenario exploits.
func (s *state) popTopHalfStep(sc *Scenario, t *thread, tid int) (string, *Violation) {
	who := fmt.Sprintf("thief%d", tid)
	switch t.phase {
	case 0:
		t.r1 = s.age
		t.phase = 1
		top, _ := unpackAge(t.r1)
		return fmt.Sprintf("%s: pop_top_half load age (top=%d)", who, top), nil
	case 1:
		t.r2 = s.publicBot
		top, _ := unpackAge(t.r1)
		if t.r2 > uint64(top) {
			n := (t.r2 - uint64(top) + 1) / 2 // round(avail/2), at least 1
			if n > uint64(sc.BatchBuf) {
				n = uint64(sc.BatchBuf)
			}
			t.r4 = n // cursor i starts at 0
			t.phase = 2
		} else {
			t.phase = 4
		}
		return fmt.Sprintf("%s: pop_top_half load publicBot=%d", who, t.r2), nil
	case 2:
		top, _ := unpackAge(t.r1)
		n := t.r4 & 0xff
		i := t.r4 >> 8
		idx := uint64(top) + i
		id := s.slots[s.phys(sc, idx)]
		t.r3 |= uint64(id) << (4 * i)
		i++
		t.r4 = n | i<<8
		if i >= n {
			t.phase = 3
		}
		return fmt.Sprintf("%s: pop_top_half load slot[%d] -> task %d", who, idx, id), nil
	case 3:
		top, tag := unpackAge(t.r1)
		n := t.r4 & 0xff
		if s.age == t.r1 {
			s.age = packAge(top+uint32(n), tag)
			for i := uint64(0); i < n; i++ {
				id := uint8(t.r3 >> (4 * i) & 0xf)
				if id == 0 {
					return who + ": pop_top_half CAS age", &Violation{Kind: SlotCorruption,
						Detail: fmt.Sprintf("pop_top_half read empty slot %d", uint64(top)+i)}
				}
				if v := s.recordReturn(sc, id); v != nil {
					t.complete()
					return fmt.Sprintf("%s: pop_top_half CAS age ok -> STOLEN %d tasks", who, n), v
				}
			}
			t.complete()
			return fmt.Sprintf("%s: pop_top_half CAS age ok -> STOLEN %d tasks [%d,%d)", who, n, top, uint64(top)+n), nil
		}
		t.complete()
		return who + ": pop_top_half CAS age failed -> ABORT", nil
	default:
		b := s.bot
		pb := t.r2
		t.complete()
		if pb < b {
			if sc.AutoSignal {
				s.sigPending = true
			}
			return fmt.Sprintf("%s: pop_top_half load bot=%d -> PRIVATE_WORK (notify owner)", who, b), nil
		}
		return fmt.Sprintf("%s: pop_top_half load bot=%d -> EMPTY", who, b), nil
	}
}

// unexposeStep: UnexposeAll (the Lace-style wholesale reclaim the batch
// owner discipline uses instead of PopPublicBottom). Registers: r1 = pb,
// r2 = oldAge. The retry path after a lost CAS re-enters the pb load at
// phase 8 (not phase 0) so that a mid-retry state is never mistaken for
// an operation boundary by the quiescence check.
//
// The bot repairs are conditional on bot < pb — an actual race-fix
// pre-decrement — mirroring the implementation: SpillOldest calls
// UnexposeAll with a NON-empty private part (bot > publicBot), which an
// unconditional bot store would truncate, losing tasks. bot is
// owner-written only, so the conditional's load folds into the store.
// (At publicBot == 0 there is nothing to repair at all: the race-fix
// pop_bottom returns before its decrement when bot is 0, so bot <
// publicBot cannot hold there.)
func (s *state) unexposeStep(sc *Scenario, t *thread) (string, *Violation) {
	switch t.phase {
	case 0, 8:
		if t.phase == 0 && relaxedRepairOn(sc) {
			// MultFree: fold honored relaxed claims into top before
			// reclaiming (deque.UnexposeAll runs repairRelaxed first).
			t.r1 = s.age
			t.phase = 10
			top, _ := unpackAge(t.r1)
			return fmt.Sprintf("owner: unexpose_all repair load age (top=%d)", top), nil
		}
		t.r1 = s.publicBot
		if t.r1 == 0 {
			t.completeOwner(sc, false)
			return "owner: unexpose_all load publicBot=0 -> 0", nil
		}
		t.phase = 2
		return fmt.Sprintf("owner: unexpose_all load publicBot=%d", t.r1), nil
	case 10:
		t.r2 = s.relNext
		top, tag := unpackAge(t.r1)
		rIdx, rTag := unpackAge(t.r2)
		if rTag != tag || rIdx <= top {
			t.phase = 8 // cursor not honored: proceed to the reclaim
			return fmt.Sprintf("owner: unexpose_all repair load relNext (idx=%d tag=%d, not honored)", rIdx, rTag), nil
		}
		t.phase = 11
		return fmt.Sprintf("owner: unexpose_all repair load relNext (idx=%d, honored)", rIdx), nil
	case 11:
		_, tag := unpackAge(t.r1)
		rIdx, _ := unpackAge(t.r2)
		if s.age == t.r1 {
			s.age = packAge(rIdx, tag)
			t.phase = 8
			return fmt.Sprintf("owner: unexpose_all repair CAS age ok (top=%d)", rIdx), nil
		}
		t.phase = 12
		return "owner: unexpose_all repair CAS age failed (retry)", nil
	case 12:
		t.r1 = s.age
		t.phase = 10
		top, _ := unpackAge(t.r1)
		return fmt.Sprintf("owner: unexpose_all repair load age (top=%d, retry)", top), nil
	case 2:
		t.r2 = s.age
		top, _ := unpackAge(t.r2)
		if t.r1 <= uint64(top) {
			if sc.RaceFix {
				t.phase = 3
				return fmt.Sprintf("owner: unexpose_all load age (top=%d, all stolen)", top), nil
			}
			t.completeOwner(sc, false)
			return fmt.Sprintf("owner: unexpose_all load age (top=%d) -> 0 (all stolen)", top), nil
		}
		t.phase = 4
		return fmt.Sprintf("owner: unexpose_all load age (top=%d)", top), nil
	case 3:
		pb := t.r1
		t.completeOwner(sc, false)
		if s.bot < pb {
			s.bot = pb
			return fmt.Sprintf("owner: unexpose_all store bot=%d (repair) -> 0", pb), nil
		}
		return "owner: unexpose_all load bot (no repair needed) -> 0", nil
	case 4:
		top, _ := unpackAge(t.r2)
		s.publicBot = uint64(top)
		t.phase = 5
		return fmt.Sprintf("owner: unexpose_all store publicBot=%d (hide public part)", top), nil
	case 5:
		top, tag := unpackAge(t.r2)
		if s.age == t.r2 {
			s.age = packAge(top, tag+1)
			t.phase = 6
			return "owner: unexpose_all CAS age ok (tag bump)", nil
		}
		t.phase = 7
		return "owner: unexpose_all CAS age failed (thief advanced top)", nil
	case 6:
		top, _ := unpackAge(t.r2)
		n := t.r1 - uint64(top)
		pb := t.r1
		t.completeOwner(sc, true)
		if s.bot < pb {
			s.bot = pb
			return fmt.Sprintf("owner: unexpose_all store bot=%d -> reclaimed %d", pb, n), nil
		}
		return fmt.Sprintf("owner: unexpose_all load bot (no repair, private part live) -> reclaimed %d", n), nil
	default: // 7: lost the CAS, restore the split and retry
		s.publicBot = t.r1
		t.phase = 8
		return fmt.Sprintf("owner: unexpose_all store publicBot=%d (restore, retry)", t.r1), nil
	}
}

// growStep: the index-preserving growth of TryPushBottom (splitdeque.go
// grow): load the age word (the refreshed fullness check that decided to
// grow, and the copy's lower bound), then publish the doubled generation
// with a single store. The model indexes the task array absolutely, so
// the re-masked copy — which keeps every live task at its absolute index
// — is a no-op on the modelled slots, and the publish changes only the
// capacity bound of the push window check. That no other modelled word
// changes IS the protocol's soundness claim: a published generation
// differs from its predecessor in no index, tag, or live slot content
// a thief can observe, so every steal interleaving explored here is
// identical to one without the growth. Registers: r1 = oldAge.
func (s *state) growStep(sc *Scenario, t *thread) (string, *Violation) {
	switch t.phase {
	case 0:
		t.r1 = s.age
		t.phase = 1
		top, _ := unpackAge(t.r1)
		return fmt.Sprintf("owner: grow load age (top=%d)", top), nil
	default:
		if 2*int(s.cap) > maxSlots {
			panic(fmt.Sprintf("verify: scenario %q grows beyond the modelled maximum %d", sc.Name, maxSlots))
		}
		if sc.Circular {
			// The circular model's physical layout depends on the
			// capacity, so the doubled generation's copy IS observable:
			// rehash the live window into the new masking, dropping the
			// superseded generation (see rehash).
			top, _ := unpackAge(t.r1)
			s.rehash(uint64(top), 2*s.cap)
			t.completeOwner(sc, false)
			return fmt.Sprintf("owner: grow publish capacity=%d (live window rehashed)", s.cap), nil
		}
		s.cap *= 2
		t.completeOwner(sc, false)
		return fmt.Sprintf("owner: grow publish capacity=%d (live slots at unchanged indices)", s.cap), nil
	}
}

// growNaiveStep: the deliberately unsound compacting growth (negative
// tests only). It moves the live window [top, bot) down to [0, bot-top)
// inside the published buffer, then rebases publicBot and bot with plain
// stores and rewrites the age word to (0, tag) WITHOUT bumping the tag.
// The flaw: a thief that read the pre-growth age (0-based top, same tag)
// and a pre-growth slot can still pass its CAS after the compaction
// moved a DIFFERENT task under that index — returning a stale task a
// second time. Registers: r1 = oldAge.
func (s *state) growNaiveStep(sc *Scenario, t *thread) (string, *Violation) {
	switch t.phase {
	case 0:
		t.r1 = s.age
		t.phase = 1
		top, _ := unpackAge(t.r1)
		return fmt.Sprintf("owner: grow_naive load age (top=%d)", top), nil
	case 1:
		// Compact and publish in one store: the copied contents travel
		// with the new buffer pointer, exactly as in an implementation
		// that compacts while copying into the doubled array.
		if 2*int(s.cap) > maxSlots {
			panic(fmt.Sprintf("verify: scenario %q grows beyond the modelled maximum %d", sc.Name, maxSlots))
		}
		top, _ := unpackAge(t.r1)
		n := uint64(0)
		if s.bot > uint64(top) {
			n = s.bot - uint64(top)
		}
		for i := uint64(0); i < n; i++ {
			s.slots[i] = s.slots[uint64(top)+i]
		}
		s.cap *= 2
		t.phase = 2
		return fmt.Sprintf("owner: grow_naive publish capacity=%d (compacted %d tasks to index 0)", s.cap, n), nil
	case 2:
		top, _ := unpackAge(t.r1)
		if s.publicBot > uint64(top) {
			s.publicBot -= uint64(top)
		} else {
			s.publicBot = 0
		}
		t.phase = 3
		return fmt.Sprintf("owner: grow_naive store publicBot=%d (rebased)", s.publicBot), nil
	case 3:
		top, _ := unpackAge(t.r1)
		if s.bot > uint64(top) {
			s.bot -= uint64(top)
		} else {
			s.bot = 0
		}
		t.phase = 4
		return fmt.Sprintf("owner: grow_naive store bot=%d (rebased)", s.bot), nil
	default:
		_, tag := unpackAge(t.r1)
		s.age = packAge(0, tag) // the bug: no tag bump
		t.completeOwner(sc, false)
		return "owner: grow_naive store age=(top 0, SAME tag)", nil
	}
}

// relaxedTakeStep: a thief's TakeTopRelaxed attempt (the MultFree
// fence- and CAS-free claim protocol of splitdeque.go). Registers:
// r1 = oldAge, r2 = pb, r3 = claim index, r4 = task id; t.cl is the
// thief's persistent monotone claim memory (deque.RelClaim), which —
// unlike the registers — survives attempt boundaries.
//
// The claim is max(top, tag-honored relNext cursor); after validating
// claim < publicBot, a claim below cl (an index this thief already
// returned) aborts, and otherwise after reading the slot an idempotent task
// is committed with a plain cursor store (no fence, no CAS), while a
// pinned task falls back to the exclusive age CAS, legal only when the
// claim is the authoritative top. On the circular model the slot read
// is validated against the task's push stamp first — a mismatch means
// the slot aliased under the thief's feet, and the claim aborts (or
// falls back to the same exclusive CAS when it sits at the
// authoritative top). Under Scenario.AtomicClaims the slot read and
// cursor store fuse into one micro-step — the landed-claim adversary
// under which the owner repair alone carries the bound.
func (s *state) relaxedTakeStep(sc *Scenario, t *thread, tid int) (string, *Violation) {
	who := fmt.Sprintf("thief%d", tid)
	commit := func(id uint8) *Violation {
		_, tag := unpackAge(t.r1)
		s.relNext = packAge(uint32(t.r3)+1, tag)
		if !sc.RelaxedNoClaimMemory {
			t.cl = t.r3 + 1
		}
		v := s.recordReturn(sc, id)
		t.complete()
		return v
	}
	switch t.phase {
	case 0:
		if sc.AtomicClaims {
			return s.relaxedTakeAtomic(sc, t, who)
		}
		t.r1 = s.age
		t.phase = 1
		top, _ := unpackAge(t.r1)
		return fmt.Sprintf("%s: take_top_relaxed load age (top=%d)", who, top), nil
	case 1:
		top, tag := unpackAge(t.r1)
		claim := uint64(top)
		rIdx, rTag := unpackAge(s.relNext)
		if rTag == tag && uint64(rIdx) > claim {
			claim = uint64(rIdx)
		}
		if sc.RelaxedClaimAhead && t.cl > claim {
			claim = t.cl
		}
		t.r3 = claim
		t.phase = 2
		return fmt.Sprintf("%s: take_top_relaxed load relNext -> claim=%d", who, claim), nil
	case 2:
		t.r2 = s.publicBot
		switch {
		case t.r3 >= t.r2:
			t.phase = 5
		case !sc.RelaxedNoClaimMemory && t.cl > t.r3:
			// The thief already returned this index: its memory vetoes
			// the claim (deque.SplitDeque.sharedClaim).
			t.complete()
			return fmt.Sprintf("%s: take_top_relaxed load publicBot=%d, claim %d < memory %d -> ABORT", who, t.r2, t.r3, t.cl), nil
		default:
			t.phase = 3
		}
		return fmt.Sprintf("%s: take_top_relaxed load publicBot=%d", who, t.r2), nil
	case 3:
		id := s.slots[s.phys(sc, t.r3)]
		if id == 0 {
			if sc.Circular {
				// A dead physical slot zeroed by a generation publish: the
				// implementation would read the superseded generation's
				// stale task here and the stamp check would reject it, so
				// the nil read aborts on the same schedules (kept even
				// under the ablation — the model cannot fabricate the
				// dropped generation's content).
				t.complete()
				return fmt.Sprintf("%s: take_top_relaxed load slot[%d] -> empty (superseded slot) -> ABORT", who, t.r3), nil
			}
			return who + ": take_top_relaxed load slot", &Violation{Kind: SlotCorruption,
				Detail: fmt.Sprintf("take_top_relaxed read empty slot %d", t.r3)}
		}
		t.r4 = uint64(id)
		if sc.Circular && !sc.RelaxedNoStampCheck && uint64(s.taskIdx[id]) != t.r3 {
			// Stamp validation (deque.TakeTopRelaxed): the task read from
			// the slot was pushed at a different absolute index — the
			// slot aliased. At the authoritative top the exclusive age
			// CAS retroactively validates the read (overwriting the
			// claimed slot requires moving top past the claim first, so
			// an unchanged age word proves the read was not stale);
			// anywhere else the claim aborts.
			top, _ := unpackAge(t.r1)
			if t.r3 != uint64(top) {
				t.complete()
				return fmt.Sprintf("%s: take_top_relaxed load slot[%d] -> task %d stamp=%d mismatch -> ABORT", who, t.r3, id, s.taskIdx[id]), nil
			}
			t.phase = 6
			return fmt.Sprintf("%s: take_top_relaxed load slot[%d] -> task %d stamp=%d mismatch at top (exclusive fallback)", who, t.r3, id, s.taskIdx[id]), nil
		}
		if sc.Pinned&(1<<uint(id)) != 0 {
			top, _ := unpackAge(t.r1)
			if t.r3 != uint64(top) {
				// Exclusive claim impossible off the authoritative top:
				// leave the task for a CAS thief or the owner.
				t.complete()
				return fmt.Sprintf("%s: take_top_relaxed load slot[%d] -> task %d pinned, claim != top -> ABORT", who, t.r3, id), nil
			}
			t.phase = 6
			return fmt.Sprintf("%s: take_top_relaxed load slot[%d] -> task %d (pinned, exclusive fallback)", who, t.r3, id), nil
		}
		t.phase = 4
		return fmt.Sprintf("%s: take_top_relaxed load slot[%d] -> task %d", who, t.r3, id), nil
	case 4:
		id := uint8(t.r4)
		claim := t.r3
		if sc.Circular && uint64(s.taskIdx[id]) != claim {
			// The StaleSlotRead oracle: a relaxed commit of a task whose
			// push stamp does not match the claim index returned an
			// aliased — possibly never-exposed — task. Only the
			// RelaxedNoStampCheck ablation reaches this commit.
			return fmt.Sprintf("%s: take_top_relaxed store relNext=%d -> STALE task %d", who, claim+1, id),
				&Violation{Kind: StaleSlotRead,
					Detail: fmt.Sprintf("relaxed claim %d returned task %d pushed at index %d (aliased slot %d)", claim, id, s.taskIdx[id], s.phys(sc, claim))}
		}
		v := commit(id)
		return fmt.Sprintf("%s: take_top_relaxed store relNext=%d -> RELAXED-STOLEN task %d", who, claim+1, id), v
	case 5:
		b := s.bot
		pb := t.r2
		t.complete()
		if pb < b {
			if sc.AutoSignal {
				s.sigPending = true
			}
			return fmt.Sprintf("%s: take_top_relaxed load bot=%d -> PRIVATE_WORK (notify owner)", who, b), nil
		}
		return fmt.Sprintf("%s: take_top_relaxed load bot=%d -> EMPTY", who, b), nil
	default: // 6: exclusive CAS fallback (pinned task, or stamp mismatch) at top
		top, tag := unpackAge(t.r1)
		id := uint8(t.r4)
		if s.age == t.r1 {
			s.age = packAge(top+1, tag)
			if !sc.RelaxedNoClaimMemory {
				t.cl = t.r3 + 1
			}
			v := s.recordReturn(sc, id)
			t.complete()
			return fmt.Sprintf("%s: take_top_relaxed CAS age ok -> STOLEN task %d (exclusive)", who, id), v
		}
		t.complete()
		return who + ": take_top_relaxed CAS age failed -> ABORT", nil
	}
}

// relaxedTakeAtomic runs one ENTIRE TakeTopRelaxed attempt as a single
// step — the Scenario.AtomicClaims synchronous adversary, scheduled
// only at owner operation boundaries (explore.go enforces the
// scheduling restriction). Every read is fresh and the cursor store is
// visible before the owner's next operation, so the only duplication
// mechanism left is the owner RE-OFFERING claimed work: with the repair
// fold this never happens (exactly-once even for stateless thieves);
// with RelaxedNoRepair each unexpose/re-expose epoch re-offers the
// claimed task — the negative counterexample.
func (s *state) relaxedTakeAtomic(sc *Scenario, t *thread, who string) (string, *Violation) {
	top, tag := unpackAge(s.age)
	claim := uint64(top)
	if rIdx, rTag := unpackAge(s.relNext); rTag == tag && uint64(rIdx) > claim {
		claim = uint64(rIdx)
	}
	if sc.RelaxedClaimAhead && t.cl > claim {
		claim = t.cl
	}
	if !sc.RelaxedNoClaimMemory && t.cl > claim && claim < s.publicBot {
		t.complete()
		return fmt.Sprintf("%s: take_top_relaxed (atomic) claim=%d < memory %d -> ABORT", who, claim, t.cl), nil
	}
	if claim >= s.publicBot {
		empty := s.publicBot >= s.bot
		t.complete()
		if !empty {
			if sc.AutoSignal {
				s.sigPending = true
			}
			return fmt.Sprintf("%s: take_top_relaxed (atomic) -> PRIVATE_WORK (notify owner)", who), nil
		}
		return fmt.Sprintf("%s: take_top_relaxed (atomic) -> EMPTY", who), nil
	}
	id := s.slots[s.phys(sc, claim)]
	if id == 0 {
		return who + ": take_top_relaxed (atomic) load slot", &Violation{Kind: SlotCorruption,
			Detail: fmt.Sprintf("take_top_relaxed read empty slot %d", claim)}
	}
	if sc.Circular && uint64(s.taskIdx[id]) != claim {
		// An atomic attempt reads everything fresh, so its claim is in
		// the live window and the slot cannot have aliased; a mismatch
		// here is a model bug, surfaced as the stale-read violation.
		return who + ": take_top_relaxed (atomic) load slot", &Violation{Kind: StaleSlotRead,
			Detail: fmt.Sprintf("atomic relaxed claim %d read task %d pushed at index %d", claim, id, s.taskIdx[id])}
	}
	if sc.Pinned&(1<<uint(id)) != 0 {
		if claim != uint64(top) {
			t.complete()
			return fmt.Sprintf("%s: take_top_relaxed (atomic) task %d pinned, claim != top -> ABORT", who, id), nil
		}
		// The exclusive CAS cannot fail inside an atomic attempt.
		s.age = packAge(top+1, tag)
		if !sc.RelaxedNoClaimMemory {
			t.cl = claim + 1
		}
		v := s.recordReturn(sc, id)
		t.complete()
		return fmt.Sprintf("%s: take_top_relaxed (atomic) CAS age -> STOLEN pinned task %d", who, id), v
	}
	s.relNext = packAge(uint32(claim)+1, tag)
	if !sc.RelaxedNoClaimMemory {
		t.cl = claim + 1
	}
	v := s.recordReturn(sc, id)
	t.complete()
	return fmt.Sprintf("%s: take_top_relaxed (atomic) claim slot[%d] -> RELAXED-STOLEN task %d", who, claim, id), v
}
