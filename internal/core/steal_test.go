package core

import (
	"testing"

	"lcws/internal/counters"
	"lcws/internal/deque"
)

// stealCounters are the thief-side counters one steal attempt moves.
var stealCounters = []counters.Event{
	counters.StealAttempt,
	counters.StealSuccess,
	counters.StealBatchTasks,
	counters.StealPrivate,
	counters.StealEmpty,
	counters.StealAbort,
	counters.SignalSent,
	counters.RelaxedSteal,
}

// stealCase is one hand-built victim for TestStealOnceOutcomes: the
// victim holds public then private tasks (public ones are pushed and
// exposed first, so they sit at the steal end).
type stealCase struct {
	name            string
	public, private int
}

var stealCases = []stealCase{
	{name: "empty"},
	{name: "private-one", private: 1},
	{name: "private-two", private: 2},
	{name: "single", public: 1},
	{name: "batch", public: 6},
}

// TestStealOnceOutcomes pins the thief side of one stealOnce against a
// hand-built victim, per policy and StealBatch mode: the exact counter
// deltas, the sticky victim, the victim's notification words, the
// thief's victimPrivate mark, which task comes back, and where a batch's
// remnants land (the thief's private part, restamped as exposed in the
// thief's index domain under MultFree).
func TestStealOnceOutcomes(t *testing.T) {
	for _, p := range Policies {
		for _, batch := range []bool{false, true} {
			for _, c := range stealCases {
				if p == WS && c.private > 0 {
					continue // the Chase-Lev deque has no private part
				}
				name := p.String() + "/" + c.name
				if batch {
					name += "/batch-mode"
				}
				t.Run(name, func(t *testing.T) { checkStealOnce(t, p, batch, c) })
			}
		}
	}
}

func checkStealOnce(t *testing.T, p Policy, batch bool, c stealCase) {
	s := NewScheduler(Options{Workers: 2, Policy: p, Seed: 42, StealBatch: batch, DequeCapacity: 64})
	defer s.Close()
	victim, w := s.worker(0), s.worker(1)

	// Range tasks: the idempotent kind MultFree claims relaxed.
	tasks := make([]*Task, c.public+c.private)
	for i := range tasks {
		tasks[i] = victim.newTask()
		tasks[i].prepareRange(0, 1, 1, func(*Worker, int) {})
		if p.relaxedSteal() {
			tasks[i].rearmExec()
		}
		victim.push(tasks[i])
		if i == c.public-1 && p.SplitDeque() {
			sd := victim.dq.(*deque.SplitDeque[Task])
			for sd.PrivateSize() > 0 && sd.Expose(deque.ExposeOne, victim.ctr) > 0 {
			}
		}
	}

	// Pre-state chosen so every write shows: a stale victimPrivate mark,
	// a victim already targeted when it holds public work, and a sticky
	// victim that only a batch-mode miss clears or a hit sets.
	stolen := c.public > 0
	w.victimPrivate = true //lcws:presync single-threaded test on an unstarted scheduler
	victim.targeted.Store(stolen)
	victim.pending.Store(false)
	stickyBefore := int32(0)
	if stolen {
		stickyBefore = -1
	}
	w.sticky = stickyBefore //lcws:presync single-threaded test on an unstarted scheduler
	var thiefStamp uint64
	if p.relaxedSteal() {
		thiefStamp = w.dq.(*deque.SplitDeque[Task]).PushStamp()
	}
	before := make([]uint64, len(stealCounters))
	for i, e := range stealCounters {
		before[i] = w.ctr.Get(e)
	}

	got := w.stealOnce()

	// Expected outcome.
	want := make(map[counters.Event]uint64)
	want[counters.StealAttempt] = 1
	wantSticky := stickyBefore
	wantTargeted, wantPending, wantPrivate := stolen, false, false
	k := 0 // tasks the thief takes
	switch {
	case c.public == 0 && c.private == 0:
		want[counters.StealEmpty] = 1
		if batch {
			wantSticky = -1
		}
	case c.public == 0:
		want[counters.StealPrivate] = 1
		wantPrivate = true
		switch {
		case p.flagBased():
			wantTargeted = true
		case p == ConsLCWS && c.private < 2:
			// Conservative: a single private task is not worth a signal.
		default:
			wantTargeted, wantPending = true, true
			want[counters.SignalSent] = 1
		}
	default:
		want[counters.StealSuccess] = 1
		k = 1
		if batch {
			k = (c.public + 1) / 2
			want[counters.StealBatchTasks] = uint64(k)
			wantSticky = 0
		}
		if p.relaxedSteal() {
			want[counters.RelaxedSteal] = uint64(k) // range tasks: the fence- and CAS-free claim
		}
		if p.SignalBased() {
			wantTargeted = false // §4: work left the victim's public part
		}
	}

	for i, e := range stealCounters {
		if d := w.ctr.Get(e) - before[i]; d != want[e] {
			t.Errorf("%s delta = %d, want %d", e, d, want[e])
		}
	}
	if w.sticky != wantSticky {
		t.Errorf("sticky = %d, want %d", w.sticky, wantSticky)
	}
	if w.victimPrivate != wantPrivate {
		t.Errorf("victimPrivate = %v, want %v", w.victimPrivate, wantPrivate)
	}
	if v := victim.targeted.Load(); v != wantTargeted {
		t.Errorf("victim targeted = %v, want %v", v, wantTargeted)
	}
	if v := victim.pending.Load(); v != wantPending {
		t.Errorf("victim pending = %v, want %v", v, wantPending)
	}

	if k == 0 {
		if got != nil {
			t.Fatalf("stealOnce returned a task, want none")
		}
		if !w.dq.IsEmpty() {
			t.Fatalf("thief deque holds tasks after a failed attempt")
		}
		return
	}
	if got != tasks[0] {
		t.Fatalf("stealOnce did not return the victim's oldest task")
	}
	// Remnants land oldest-first, so the thief's own pops return them
	// youngest-first, as the victim would have; on a split deque they
	// sit in the private part.
	if p.SplitDeque() {
		sd := w.dq.(*deque.SplitDeque[Task])
		if sd.PrivateSize() != k-1 || sd.PublicSize() != 0 {
			t.Errorf("thief holds %d private / %d public tasks, want %d / 0", sd.PrivateSize(), sd.PublicSize(), k-1)
		}
	}
	for i := 1; i < k; i++ {
		r := tasks[i]
		if p.relaxedSteal() {
			if st, want := r.pushStamp.Load(), (thiefStamp+uint64(i-1))|deque.StampExposed; st != want {
				t.Errorf("remnant %d stamp = %#x, want %#x (thief index domain, exposed bit)", i, st, want)
			}
		}
	}
	for i := k - 1; i >= 1; i-- {
		if r := w.dq.PopBottom(w.ctr); r != tasks[i] {
			t.Fatalf("thief pop %d returned the wrong remnant", k-1-i)
		}
	}
	if !w.dq.IsEmpty() {
		t.Fatalf("thief deque holds more than the %d remnants", k-1)
	}
}
