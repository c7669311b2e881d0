package core

import (
	"testing"

	"lcws/internal/counters"
)

// TestSpillThenDrainOrdering drives the overflow-spill machinery
// directly on an unstarted single-worker scheduler and pins the drain
// order: the deque's survivors pop LIFO (newest first, the owner's
// normal discipline), and the spilled tasks then drain FIFO — the exact
// order thieves would have stolen them from the top.
func TestSpillThenDrainOrdering(t *testing.T) {
	s := NewScheduler(Options{Workers: 1, Policy: SignalLCWS, DequeCapacity: 2, MaxDequeCapacity: 4})
	w := s.worker(0)

	const n = 10
	tasks := make([]*Task, n)
	for i := 0; i < n; i++ {
		tk := w.newTask()
		tk.prepareFn(func(*Worker) {})
		tasks[i] = tk
		w.push(tk)
	}
	// Pushing 10 tasks through a 2-slot deque capped at 4: one growth
	// (2 -> 4) and two spill episodes of 4 tasks each.
	if got := w.ctr.Get(counters.DequeGrow); got != 1 {
		t.Errorf("DequeGrow = %d, want 1", got)
	}
	if got := w.ctr.Get(counters.TaskSpilled); got != 8 {
		t.Errorf("TaskSpilled = %d, want 8", got)
	}
	if !w.spilled {
		t.Error("worker did not mark itself spilled")
	}

	var order []*Task
	for {
		tk := w.popLocal()
		if tk == nil {
			break
		}
		order = append(order, tk)
	}
	for {
		tk := w.nextOverflow()
		if tk == nil {
			break
		}
		order = append(order, tk)
	}
	if len(order) != n {
		t.Fatalf("drained %d tasks, want %d", len(order), n)
	}
	// Deque survivors LIFO (9, 8), then overflow oldest-first (0..7).
	want := []int{9, 8, 0, 1, 2, 3, 4, 5, 6, 7}
	for k, idx := range want {
		if order[k] != tasks[idx] {
			t.Fatalf("drain position %d got task %d, want task %d", k, taskIndex(tasks, order[k]), idx)
		}
	}
	if w.overflowHead != nil || w.overflowTail != nil {
		t.Error("overflow list not empty after drain")
	}
}

func taskIndex(tasks []*Task, t *Task) int {
	for i := range tasks {
		if tasks[i] == t {
			return i
		}
	}
	return -1
}

// TestFreelistBoundDonatesAndRefills pins the bounded-freelist contract
// with a tiny bound: frees past the bound donate the cold half to the
// worker's recycle shard, and allocation misses refill from the shards
// before touching the heap — every recycled task comes back.
func TestFreelistBoundDonatesAndRefills(t *testing.T) {
	s := NewScheduler(Options{Workers: 1, FreelistBound: 4})
	w := s.worker(0)

	const n = 10
	tasks := make(map[*Task]bool, n)
	alloc := make([]*Task, n)
	for i := 0; i < n; i++ {
		tk := w.newTask()
		tasks[tk] = true
		alloc[i] = tk
	}
	for _, tk := range alloc {
		tk.complete()
		w.freeTask(tk)
	}
	// Frees 1..10 with bound 4: donations trigger at len 5 (keep 2,
	// donate 3) and again at len 5 (keep 2, donate 3); the last two
	// frees leave the local freelist at 4 and the shard at 6.
	if got := w.ctr.Get(counters.FreelistReturn); got != 6 {
		t.Errorf("FreelistReturn = %d, want 6", got)
	}
	if w.freelistLen != 4 {
		t.Errorf("freelistLen = %d, want 4", w.freelistLen)
	}
	if got := s.recycle[0].n; got != 6 {
		t.Errorf("recycle shard holds %d tasks, want 6", got)
	}

	// Reallocate: 4 from the local freelist, 6 refilled from the shard,
	// and only then fresh heap tasks.
	recycled := 0
	for i := 0; i < n+2; i++ {
		tk := w.newTask()
		if tasks[tk] {
			recycled++
			delete(tasks, tk)
		}
	}
	if recycled != n {
		t.Errorf("recovered %d of %d freed tasks through freelist+shard, want all", recycled, n)
	}
	if got := w.ctr.Get(counters.FreelistRefill); got != 6 {
		t.Errorf("FreelistRefill = %d, want 6", got)
	}
}

// TestSpillAfterThievesEmptiedDeque replays the WS spill race
// deterministically: the owner's push fails at the maximum capacity,
// then thieves take every task before the spill runs. The spill finds
// nothing, and the push must then go through instead of panicking.
func TestSpillAfterThievesEmptiedDeque(t *testing.T) {
	for _, batch := range []bool{false, true} {
		s := NewScheduler(Options{Workers: 2, Policy: WS, DequeCapacity: 2, MaxDequeCapacity: 4, StealBatch: batch})
		w, thief := s.worker(0), s.worker(1)
		for i := 0; i < 4; i++ {
			tk := w.newTask()
			tk.prepareFn(func(*Worker) {})
			w.push(tk)
		}
		last := w.newTask()
		last.prepareFn(func(*Worker) {})
		if w.dq.TryPushBottom(last, w.ctr) {
			t.Fatalf("batch=%v: push into a full 4-slot deque succeeded", batch)
		}
		for stolen := 0; stolen < 4; {
			if tk, _ := w.dq.PopTop(thief.ctr); tk != nil {
				stolen++
			}
		}
		w.spillForPush(last)
		if got := w.ctr.Get(counters.TaskSpilled); got != 0 {
			t.Errorf("batch=%v: TaskSpilled = %d, want 0", batch, got)
		}
		if got := w.popLocal(); got != last {
			t.Errorf("batch=%v: popLocal returned %p, want the pushed task %p", batch, got, last)
		}
	}
}

// TestRecycleShardDoubleFreeDetected verifies the double-free guard
// holds across the global pool: a task donated to a recycle shard still
// carries its recycled flag, so freeing it again while it sits in the
// shard panics exactly like a same-worker double free.
func TestRecycleShardDoubleFreeDetected(t *testing.T) {
	s := NewScheduler(Options{Workers: 1, FreelistBound: 2})
	w := s.worker(0)
	var victim *Task
	alloc := make([]*Task, 4)
	for i := range alloc {
		alloc[i] = w.newTask()
	}
	for _, tk := range alloc {
		tk.complete()
		w.freeTask(tk)
	}
	// Bound 2: the first donation moved the cold half to the shard.
	s.recycle[0].mu.Lock()
	victim = s.recycle[0].head
	s.recycle[0].mu.Unlock()
	if victim == nil {
		t.Fatal("no task reached the recycle shard")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double free of a shard-resident task did not panic")
		}
	}()
	w.freeTask(victim)
}

// TestGrowthAndSpillAcrossPolicies runs a deep fork tree through tiny
// deques under every policy — covering the split deque's tag-bump spill
// and the Chase-Lev self-steal spill (WS baseline), in plain and batch
// steal modes — and checks the computed result plus the growth/spill
// counters.
func TestGrowthAndSpillAcrossPolicies(t *testing.T) {
	for _, batch := range []bool{false, true} {
		for _, pol := range Policies {
			pol, batch := pol, batch
			name := pol.String()
			if batch {
				name += "/batch"
			}
			t.Run(name, func(t *testing.T) {
				s := NewScheduler(Options{
					Workers:          2,
					Policy:           pol,
					DequeCapacity:    2,
					MaxDequeCapacity: 8,
					StealBatch:       batch,
					Seed:             3,
				})
				defer s.Close()
				var got int
				s.Run(func(w *Worker) { got = fib(w, 18) })
				if want := 2584; got != want {
					t.Fatalf("fib(18) = %d, want %d", got, want)
				}
				st := s.Stats()
				if st.DequeGrows == 0 {
					t.Errorf("no deque growth recorded on a 2-slot initial capacity")
				}
				if st.TasksSpilled == 0 {
					t.Errorf("no spills recorded past the 8-slot maximum capacity")
				}
			})
		}
	}
}
