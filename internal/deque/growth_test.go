package deque

import (
	"sync"
	"testing"

	"lcws/internal/counters"
	"lcws/internal/rng"
)

// TestSplitGrowthPreservesContents pushes far past the initial capacity
// and checks LIFO pops return every task, counting one DequeGrow per
// doubling.
func TestSplitGrowthPreservesContents(t *testing.T) {
	for _, raceFix := range []bool{false, true} {
		d := NewSplitMax[int](4, 1<<10, raceFix)
		c := newCtr()
		const n = 300
		ptrs := push(t, d, c, make([]int, n)...)
		for i, p := range ptrs {
			*p = i
		}
		if got := d.Capacity(); got < n {
			t.Fatalf("raceFix=%v: capacity %d after %d pushes, want >= %d", raceFix, got, n, n)
		}
		if g := c.Get(counters.DequeGrow); g == 0 {
			t.Fatalf("raceFix=%v: no DequeGrow counted across %d pushes from capacity 4", raceFix, n)
		}
		for want := n - 1; want >= 0; want-- {
			got := d.PopBottom(c)
			if got == nil || *got != want {
				t.Fatalf("raceFix=%v: PopBottom = %v, want %d", raceFix, got, want)
			}
		}
	}
}

// TestSplitGrowthPreservesPublicPart grows with an exposed public part
// and checks thieves still steal the old tasks FIFO afterwards.
func TestSplitGrowthPreservesPublicPart(t *testing.T) {
	d := NewSplitMax[int](4, 1<<10, false)
	owner, thief := newCtr(), newCtr()
	ptrs := push(t, d, owner, 0, 1, 2)
	for i, p := range ptrs {
		*p = i
	}
	d.Expose(ExposeHalf, owner) // public: [0 1]
	// Push past capacity 4: the array doubles with a live public part.
	more := push(t, d, owner, make([]int, 20)...)
	for i, p := range more {
		*p = 3 + i
	}
	if owner.Get(counters.DequeGrow) == 0 {
		t.Fatal("no growth happened")
	}
	for want := 0; want <= 1; want++ {
		got, res := d.PopTop(thief)
		if res != Stolen || got == nil || *got != want {
			t.Fatalf("steal after growth = %v, %v; want Stolen %d", got, res, want)
		}
	}
}

// TestSplitIndicesResetAfterGrowth checks the empty-reset invariant
// (indices return to zero when the deque drains through the public path)
// still holds on a grown array.
func TestSplitIndicesResetAfterGrowth(t *testing.T) {
	d := NewSplitMax[int](4, 1<<10, false)
	c := newCtr()
	push(t, d, c, make([]int, 100)...) // forces growth
	for d.PopBottom(c) != nil {
	}
	// Drain through the public path to trigger the emptying reset.
	push(t, d, c, 1, 2)
	d.Expose(ExposeOne, c)
	d.Expose(ExposeOne, c)
	for d.PopPublicBottom(c) != nil {
	}
	if b := d.bot.Load(); b != 0 {
		t.Fatalf("bot = %d after empty drain on grown array, want 0", b)
	}
	if top, _ := unpackAge(d.age.Load()); top != 0 {
		t.Fatalf("top = %d after empty drain on grown array, want 0", top)
	}
	// The owner's cached top bound must have reset too: with capacity 128
	// a stale cachedTop would misjudge the window on the next fill.
	push(t, d, c, make([]int, 100)...)
	for want := 0; want < 100; want++ {
		if d.PopBottom(c) == nil {
			t.Fatalf("pop %d after reset returned nil", want)
		}
	}
}

// TestSplitTryPushBottomAtMax checks TryPushBottom reports failure (and
// PushBottom panics) exactly when the live window fills the maximum
// capacity.
func TestSplitTryPushBottomAtMax(t *testing.T) {
	d := NewSplitMax[int](2, 8, false)
	c := newCtr()
	for i := 0; i < 8; i++ {
		if !d.TryPushBottom(new(int), c) {
			t.Fatalf("TryPushBottom %d failed below the maximum capacity", i)
		}
	}
	if d.TryPushBottom(new(int), c) {
		t.Fatal("TryPushBottom succeeded with the window at the maximum capacity")
	}
	if d.Capacity() != 8 || d.MaxCapacity() != 8 {
		t.Fatalf("capacity %d / max %d, want 8 / 8", d.Capacity(), d.MaxCapacity())
	}
	// Draining one task re-opens the window.
	if d.PopBottom(c) == nil {
		t.Fatal("drain pop failed")
	}
	if !d.TryPushBottom(new(int), c) {
		t.Fatal("TryPushBottom failed after draining one task")
	}
}

// TestSplitSpillOldestOrdering spills from a full deque and checks the
// extracted tasks are the oldest, in oldest-first order, and the deque
// keeps working (LIFO pops, steals) afterwards.
func TestSplitSpillOldestOrdering(t *testing.T) {
	for _, raceFix := range []bool{false, true} {
		d := NewSplitMax[int](8, 8, raceFix)
		c := newCtr()
		ptrs := push(t, d, c, make([]int, 8)...)
		for i, p := range ptrs {
			*p = i
		}
		d.Expose(ExposeHalf, c) // a live public part must not break spilling
		out := make([]*int, 3)
		n := d.SpillOldest(out, c)
		if n != 3 {
			t.Fatalf("raceFix=%v: SpillOldest = %d, want 3", raceFix, n)
		}
		for i := 0; i < 3; i++ {
			if out[i] == nil || *out[i] != i {
				t.Fatalf("raceFix=%v: spilled[%d] = %v, want %d (oldest-first)", raceFix, i, out[i], i)
			}
		}
		// Remaining tasks [3..7] are all private and pop LIFO.
		if ps := d.PrivateSize(); ps != 5 {
			t.Fatalf("raceFix=%v: PrivateSize after spill = %d, want 5", raceFix, ps)
		}
		for want := 7; want >= 3; want-- {
			got := d.PopBottom(c)
			if got == nil || *got != want {
				t.Fatalf("raceFix=%v: PopBottom after spill = %v, want %d", raceFix, got, want)
			}
		}
		// Spilling freed window space: pushes work again without growth.
		if !d.TryPushBottom(new(int), c) {
			t.Fatalf("raceFix=%v: push after spill-drain failed", raceFix)
		}
	}
}

// TestSplitSpillOldestEdgeCases covers empty deque, empty out buffer, and
// spilling more than the deque holds.
func TestSplitSpillOldestEdgeCases(t *testing.T) {
	d := NewSplitMax[int](4, 4, false)
	c := newCtr()
	out := make([]*int, 8)
	if n := d.SpillOldest(out, c); n != 0 {
		t.Fatalf("SpillOldest on empty deque = %d, want 0", n)
	}
	push(t, d, c, 1, 2)
	if n := d.SpillOldest(nil, c); n != 0 {
		t.Fatalf("SpillOldest with nil buffer = %d, want 0", n)
	}
	if n := d.SpillOldest(out, c); n != 2 {
		t.Fatalf("SpillOldest of 2 tasks into 8 slots = %d, want 2", n)
	}
	if *out[0] != 1 || *out[1] != 2 {
		t.Fatalf("spilled = %d, %d; want 1, 2", *out[0], *out[1])
	}
	if !d.IsEmpty() {
		t.Fatal("deque not empty after full spill")
	}
	// A fully spilled deque accepts new work.
	push(t, d, c, 9)
	if got := d.PopBottom(c); got == nil || *got != 9 {
		t.Fatalf("push/pop after full spill = %v, want 9", got)
	}
}

// TestSplitGrowthRacesThieves hammers a tiny deque with thieves while
// the owner's pushes force repeated growth; every task must be taken
// exactly once. Run under -race this also checks the generation
// publication protocol is data-race free.
func TestSplitGrowthRacesThieves(t *testing.T) {
	const (
		tasks   = 20000
		thieves = 4
	)
	for _, raceFix := range []bool{false, true} {
		d := NewSplitMax[int](2, 1<<15, raceFix)
		ownerCtr := newCtr()
		counts := make([][]int32, thieves+1)
		for i := range counts {
			counts[i] = make([]int32, tasks)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for th := 0; th < thieves; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				c := newCtr()
				for {
					task, res := d.PopTop(c)
					if res == Stolen {
						counts[th][*task]++
					}
					select {
					case <-stop:
						if _, res := d.PopTop(c); res == Empty {
							return
						}
					default:
					}
				}
			}(th)
		}
		g := rng.New(uint64(tasks))
		pushed := 0
		for pushed < tasks || !d.IsEmpty() {
			// No PrivateSize cap: the window regularly outgrows the
			// capacity-2 start, forcing growth under an active steal storm.
			if pushed < tasks && d.PrivateSize() < 200 {
				p := new(int)
				*p = pushed
				d.PushBottom(p, ownerCtr)
				pushed++
			}
			switch g.Intn(3) {
			case 0:
				d.Expose(ExposeHalf, ownerCtr)
			case 1, 2:
				if task := d.PopBottom(ownerCtr); task != nil {
					counts[thieves][*task]++
				} else if task := d.PopPublicBottom(ownerCtr); task != nil {
					counts[thieves][*task]++
				}
			}
		}
		close(stop)
		wg.Wait()
		if ownerCtr.Get(counters.DequeGrow) == 0 {
			t.Fatalf("raceFix=%v: stress run never grew the deque", raceFix)
		}
		for i := 0; i < tasks; i++ {
			var n int32
			for th := range counts {
				n += counts[th][i]
			}
			if n != 1 {
				t.Fatalf("raceFix=%v: task %d taken %d times, want exactly 1", raceFix, i, n)
			}
		}
	}
}

// TestChaseLevGrowthPreservesContents mirrors the split-deque growth
// test for both ChaseLev modes.
func TestChaseLevGrowthPreservesContents(t *testing.T) {
	for _, batched := range []bool{false, true} {
		var d *ChaseLev[int]
		if batched {
			d = NewChaseLevBatchMax[int](4, 1<<10)
		} else {
			d = NewChaseLevMax[int](4, 1<<10)
		}
		c := newCtr()
		const n = 300
		for i := 0; i < n; i++ {
			p := new(int)
			*p = i
			d.PushBottom(p, c)
		}
		if got := d.Capacity(); got < n {
			t.Fatalf("batched=%v: capacity %d after %d pushes, want >= %d", batched, got, n, n)
		}
		if c.Get(counters.DequeGrow) == 0 {
			t.Fatalf("batched=%v: no DequeGrow counted", batched)
		}
		for want := n - 1; want >= 0; want-- {
			got := d.PopBottom(c)
			if got == nil || *got != want {
				t.Fatalf("batched=%v: PopBottom = %v, want %d", batched, got, want)
			}
		}
	}
}

// TestChaseLevTryPushBottomAtMax checks the ceiling behaviour in both
// modes.
func TestChaseLevTryPushBottomAtMax(t *testing.T) {
	for _, batched := range []bool{false, true} {
		var d *ChaseLev[int]
		if batched {
			d = NewChaseLevBatchMax[int](2, 8)
		} else {
			d = NewChaseLevMax[int](2, 8)
		}
		c := newCtr()
		for i := 0; i < 8; i++ {
			if !d.TryPushBottom(new(int), c) {
				t.Fatalf("batched=%v: TryPushBottom %d failed below the maximum capacity", batched, i)
			}
		}
		if d.TryPushBottom(new(int), c) {
			t.Fatalf("batched=%v: TryPushBottom succeeded at the maximum capacity", batched)
		}
		if d.PopBottom(c) == nil {
			t.Fatalf("batched=%v: drain pop failed", batched)
		}
		if !d.TryPushBottom(new(int), c) {
			t.Fatalf("batched=%v: TryPushBottom failed after draining one task", batched)
		}
	}
}

// TestChaseLevSpillOldestOrdering checks SpillOldest extracts oldest
// tasks first in both modes and leaves the rest poppable.
func TestChaseLevSpillOldestOrdering(t *testing.T) {
	for _, batched := range []bool{false, true} {
		var d *ChaseLev[int]
		if batched {
			d = NewChaseLevBatchMax[int](8, 8)
		} else {
			d = NewChaseLevMax[int](8, 8)
		}
		c := newCtr()
		for i := 0; i < 8; i++ {
			p := new(int)
			*p = i
			d.PushBottom(p, c)
		}
		out := make([]*int, 3)
		n := d.SpillOldest(out, c)
		if n != 3 {
			t.Fatalf("batched=%v: SpillOldest = %d, want 3", batched, n)
		}
		for i := 0; i < 3; i++ {
			if out[i] == nil || *out[i] != i {
				t.Fatalf("batched=%v: spilled[%d] = %v, want %d", batched, i, out[i], i)
			}
		}
		for want := 7; want >= 3; want-- {
			got := d.PopBottom(c)
			if got == nil || *got != want {
				t.Fatalf("batched=%v: PopBottom after spill = %v, want %d", batched, got, want)
			}
		}
	}
}

// TestChaseLevGrowthRacesThieves forces repeated growth under a steal
// storm in both modes; every task must be taken exactly once.
func TestChaseLevGrowthRacesThieves(t *testing.T) {
	const (
		tasks   = 20000
		thieves = 4
	)
	for _, batched := range []bool{false, true} {
		var d *ChaseLev[int]
		if batched {
			d = NewChaseLevBatchMax[int](2, 1<<15)
		} else {
			d = NewChaseLevMax[int](2, 1<<15)
		}
		ownerCtr := newCtr()
		counts := make([][]int32, thieves+1)
		for i := range counts {
			counts[i] = make([]int32, tasks)
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for th := 0; th < thieves; th++ {
			wg.Add(1)
			go func(th int) {
				defer wg.Done()
				c := newCtr()
				var batch [4]*int
				for {
					if batched {
						n, res := d.PopTopHalf(batch[:], c)
						if res == Stolen {
							for i := 0; i < n; i++ {
								counts[th][*batch[i]]++
							}
						}
					} else {
						task, res := d.PopTop(c)
						if res == Stolen {
							counts[th][*task]++
						}
					}
					select {
					case <-stop:
						if d.IsEmpty() {
							return
						}
					default:
					}
				}
			}(th)
		}
		g := rng.New(uint64(tasks))
		pushed := 0
		for pushed < tasks || !d.IsEmpty() {
			if pushed < tasks && d.Size() < 200 {
				p := new(int)
				*p = pushed
				d.PushBottom(p, ownerCtr)
				pushed++
			}
			if g.Intn(2) == 0 {
				if task := d.PopBottom(ownerCtr); task != nil {
					counts[thieves][*task]++
				}
			}
		}
		close(stop)
		wg.Wait()
		if ownerCtr.Get(counters.DequeGrow) == 0 {
			t.Fatalf("batched=%v: stress run never grew the deque", batched)
		}
		for i := 0; i < tasks; i++ {
			var n int32
			for th := range counts {
				n += counts[th][i]
			}
			if n != 1 {
				t.Fatalf("batched=%v: task %d taken %d times, want exactly 1", batched, i, n)
			}
		}
	}
}
