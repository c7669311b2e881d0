package deque

import (
	"sync"
	"testing"
	"testing/quick"

	"lcws/internal/counters"
	"lcws/internal/rng"
)

// --- SplitDeque.PopTopHalf ---

func TestPopTopHalfClaimsHalfTopFirst(t *testing.T) {
	d := NewSplit[int](64, false)
	owner, thief := newCtr(), newCtr()
	for v := 0; v < 8; v++ {
		p := new(int)
		*p = v
		d.PushBottom(p, owner)
	}
	if d.Expose(ExposeHalf, owner) != 4 {
		t.Fatal("expected 4 tasks exposed")
	}
	var buf [8]*int
	n, res := d.PopTopHalf(buf[:], thief)
	if res != Stolen || n != 2 { // round(4/2)
		t.Fatalf("PopTopHalf = %d,%v; want 2,Stolen", n, res)
	}
	for i := 0; i < n; i++ {
		if *buf[i] != i {
			t.Errorf("buf[%d] = %d, want %d (top-first order)", i, *buf[i], i)
		}
	}
	if d.PublicSize() != 2 {
		t.Errorf("PublicSize after batch = %d, want 2", d.PublicSize())
	}
	if d.PrivateSize() != 4 {
		t.Errorf("PrivateSize after batch = %d, want 4", d.PrivateSize())
	}
}

func TestPopTopHalfRoundsUpAndCapsAtBuf(t *testing.T) {
	for _, tc := range []struct {
		public, bufLen, want int
	}{
		{1, 8, 1}, // round(1/2) -> 1
		{2, 8, 1},
		{3, 8, 2},
		{5, 8, 3},
		{7, 2, 2}, // capped by buffer
		{8, 8, 4},
	} {
		d := NewSplit[int](64, false)
		c := newCtr()
		for v := 0; v < tc.public; v++ {
			p := new(int)
			*p = v
			d.PushBottom(p, c)
			d.Expose(ExposeOne, c)
		}
		buf := make([]*int, tc.bufLen)
		n, res := d.PopTopHalf(buf, c)
		if res != Stolen || n != tc.want {
			t.Errorf("public=%d buf=%d: PopTopHalf = %d,%v; want %d,Stolen",
				tc.public, tc.bufLen, n, res, tc.want)
		}
	}
}

func TestPopTopHalfEmptyAndPrivateWork(t *testing.T) {
	d := NewSplit[int](64, false)
	c := newCtr()
	var buf [4]*int
	if n, res := d.PopTopHalf(buf[:], c); res != Empty || n != 0 {
		t.Fatalf("PopTopHalf on empty = %d,%v; want 0,Empty", n, res)
	}
	if c.Get(counters.CAS) != 0 {
		t.Error("empty batched steal attempt accounted a CAS")
	}
	p := new(int)
	d.PushBottom(p, c)
	if n, res := d.PopTopHalf(buf[:], c); res != PrivateWork || n != 0 {
		t.Fatalf("PopTopHalf with only private work = %d,%v; want 0,PrivateWork", n, res)
	}
	if c.Get(counters.CAS) != 0 {
		t.Error("private-work batched steal attempt accounted a CAS")
	}
}

func TestPopTopHalfAccountingMatchesPopTop(t *testing.T) {
	d := NewSplit[int](64, false)
	owner, thief := newCtr(), newCtr()
	for v := 0; v < 6; v++ {
		p := new(int)
		d.PushBottom(p, owner)
		d.Expose(ExposeOne, owner)
	}
	var buf [8]*int
	n, res := d.PopTopHalf(buf[:], thief)
	if res != Stolen || n != 3 {
		t.Fatalf("PopTopHalf = %d,%v; want 3,Stolen", n, res)
	}
	// One CAS claims the whole batch; no fences, exactly like PopTop.
	if got := thief.Get(counters.CAS); got != counters.LCWSStealCAS {
		t.Errorf("batched steal cost %d CAS, want %d", got, counters.LCWSStealCAS)
	}
	if got := thief.Get(counters.Fence); got != 0 {
		t.Errorf("batched steal cost %d fences, want 0", got)
	}
}

func TestPopTopHalfAbortsOnStaleAge(t *testing.T) {
	d := NewSplit[int](64, false)
	owner, a, b := newCtr(), newCtr(), newCtr()
	for v := 0; v < 8; v++ {
		p := new(int)
		d.PushBottom(p, owner)
		d.Expose(ExposeOne, owner)
	}
	// Simulate a race: thief A reads the age word, thief B completes a
	// steal, then A's CAS must fail.
	oldAge := d.age.Load()
	if _, res := d.PopTop(b); res != Stolen {
		t.Fatal("setup steal failed")
	}
	top, tag := unpackAge(oldAge)
	var buf [4]*int
	// Re-run A's claim against the stale word by hand.
	c := a
	c.Add(counters.CAS, counters.LCWSStealCAS)
	if d.age.CompareAndSwap(oldAge, packAge(top+2, tag)) {
		t.Fatal("stale batched claim succeeded; ABA protection broken")
	}
	// The public API also aborts cleanly mid-race (fresh read, no race
	// here: just confirms the claim still works after the interleaving).
	if n, res := d.PopTopHalf(buf[:], a); res != Stolen || n == 0 {
		t.Fatalf("fresh PopTopHalf = %d,%v; want Stolen", n, res)
	}
}

func TestSplitHasPublicWork(t *testing.T) {
	d := NewSplit[int](64, false)
	c := newCtr()
	if d.HasPublicWork() {
		t.Error("empty deque reports public work")
	}
	p := new(int)
	d.PushBottom(p, c)
	if d.HasPublicWork() {
		t.Error("private-only deque reports public work")
	}
	d.Expose(ExposeOne, c)
	if !d.HasPublicWork() {
		t.Error("exposed deque reports no public work")
	}
}

// TestPopTopHalfConcurrentBatchDiscipline runs the batch-mode owner
// discipline (private pops + Expose + UnexposeAll reclaim, never
// PopPublicBottom) against batched thieves and checks every task is taken
// exactly once.
func TestPopTopHalfConcurrentBatchDiscipline(t *testing.T) {
	const (
		tasks   = 20000
		thieves = 4
	)
	d := NewSplit[int](1<<15, true)
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
			var buf [8]*int
			for {
				n, res := d.PopTopHalf(buf[:], c)
				if res == Stolen {
					for i := 0; i < n; i++ {
						counts[th][*buf[i]]++
					}
				}
				select {
				case <-stop:
					if _, res := d.PopTopHalf(buf[:], c); res == Empty {
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
		if pushed < tasks && d.PrivateSize()+d.PublicSize() < 64 {
			p := new(int)
			*p = pushed
			d.PushBottom(p, ownerCtr)
			pushed++
		}
		switch g.Intn(4) {
		case 0:
			d.Expose(ExposeHalf, ownerCtr)
		case 1, 2:
			if task := d.PopBottom(ownerCtr); task != nil {
				counts[thieves][*task]++
			} else if d.UnexposeAll(ownerCtr) > 0 {
				// Batch-mode owner discipline: reclaim the public part
				// wholesale; PopPublicBottom is forbidden here.
				if task := d.PopBottom(ownerCtr); task != nil {
					counts[thieves][*task]++
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	for i := 0; i < tasks; i++ {
		var n int32
		for th := range counts {
			n += counts[th][i]
		}
		if n != 1 {
			t.Fatalf("task %d taken %d times, want exactly 1", i, n)
		}
	}
}

// --- batched ChaseLev ---

func TestChaseLevBatchSequentialModel(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		d := NewChaseLevBatch[int](256)
		c := newCtr()
		var model []int
		next := 0
		for step := 0; step < 500; step++ {
			switch op := g.Intn(10); {
			case op < 4: // push
				if len(model) >= 250 {
					continue
				}
				p := new(int)
				*p = next
				d.PushBottom(p, c)
				model = append(model, next)
				next++
			case op < 6: // pop bottom
				got := d.PopBottom(c)
				if len(model) == 0 {
					if got != nil {
						return false
					}
					continue
				}
				if got == nil || *got != model[len(model)-1] {
					return false
				}
				model = model[:len(model)-1]
			case op < 8: // single steal
				got, res := d.PopTop(c)
				if len(model) == 0 {
					if res != Empty {
						return false
					}
					continue
				}
				if res != Stolen || got == nil || *got != model[0] {
					return false
				}
				model = model[1:]
			default: // batched steal
				var buf [4]*int
				n, res := d.PopTopHalf(buf[:], c)
				if len(model) == 0 {
					if res != Empty || n != 0 {
						return false
					}
					continue
				}
				want := (len(model) + 1) / 2
				if want > len(buf) {
					want = len(buf)
				}
				if res != Stolen || n != want {
					return false
				}
				for i := 0; i < n; i++ {
					if *buf[i] != model[i] {
						return false
					}
				}
				model = model[n:]
			}
			if d.Size() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestChaseLevBatchAccounting(t *testing.T) {
	d := NewChaseLevBatch[int](64)
	c := newCtr()
	p := new(int)
	d.PushBottom(p, c)
	if got := c.Get(counters.Fence); got != counters.WSPushFences {
		t.Errorf("batched push cost %d fences, want %d", got, counters.WSPushFences)
	}
	if got := c.Get(counters.CAS); got != 0 {
		t.Errorf("batched push cost %d CAS, want 0", got)
	}
	// Owner pop: one fence and one tag-bump CAS on every pop.
	baseF, baseC := c.Get(counters.Fence), c.Get(counters.CAS)
	if d.PopBottom(c) == nil {
		t.Fatal("pop lost the only element")
	}
	if got := c.Get(counters.Fence) - baseF; got != counters.WSPopFences {
		t.Errorf("batched pop cost %d fences, want %d", got, counters.WSPopFences)
	}
	if got := c.Get(counters.CAS) - baseC; got != counters.WSBatchPopCAS {
		t.Errorf("batched pop cost %d CAS, want %d", got, counters.WSBatchPopCAS)
	}
	// Batched steal: one fence per attempt, one CAS when non-empty —
	// identical to the stock steal.
	for v := 0; v < 4; v++ {
		q := new(int)
		d.PushBottom(q, c)
	}
	baseF, baseC = c.Get(counters.Fence), c.Get(counters.CAS)
	var buf [8]*int
	n, res := d.PopTopHalf(buf[:], c)
	if res != Stolen || n != 2 {
		t.Fatalf("PopTopHalf = %d,%v; want 2,Stolen", n, res)
	}
	if got := c.Get(counters.Fence) - baseF; got != counters.WSStealFences {
		t.Errorf("batched steal cost %d fences, want %d", got, counters.WSStealFences)
	}
	if got := c.Get(counters.CAS) - baseC; got != counters.WSStealCAS {
		t.Errorf("batched steal cost %d CAS, want %d", got, counters.WSStealCAS)
	}
	// Empty attempt: fence only.
	for d.PopBottom(c) != nil {
	}
	baseF, baseC = c.Get(counters.Fence), c.Get(counters.CAS)
	if n, res := d.PopTopHalf(buf[:], c); res != Empty || n != 0 {
		t.Fatalf("PopTopHalf on empty = %d,%v; want 0,Empty", n, res)
	}
	if got := c.Get(counters.Fence) - baseF; got != counters.WSStealFences {
		t.Errorf("empty batched steal cost %d fences, want %d", got, counters.WSStealFences)
	}
	if got := c.Get(counters.CAS) - baseC; got != 0 {
		t.Errorf("empty batched steal cost %d CAS, want 0", got)
	}
}

func TestPopTopNStockDegradesToSingleSteal(t *testing.T) {
	d := NewChaseLev[int](64)
	c := newCtr()
	for v := 0; v < 6; v++ {
		p := new(int)
		*p = v
		d.PushBottom(p, c)
	}
	var buf [4]*int
	n, res := d.PopTopHalf(buf[:], c)
	if res != Stolen || n != 1 || *buf[0] != 0 {
		t.Fatalf("stock PopTopHalf = %d,%v; want single-task claim of 0", n, res)
	}
}

func TestChaseLevBatchWraparound(t *testing.T) {
	d := NewChaseLevBatch[int](8)
	c := newCtr()
	var buf [4]*int
	for i := 0; i < 1000; i++ {
		p := new(int)
		*p = i
		d.PushBottom(p, c)
		if i%3 == 0 {
			d.PopBottom(c)
		}
		if i%7 == 0 {
			d.PopTopHalf(buf[:], c)
		}
		for d.Size() > 4 {
			d.PopBottom(c)
		}
	}
}

// TestChaseLevBatchConcurrentSteals is the batched analogue of
// TestChaseLevConcurrentSteals: batched thieves race a popping owner and
// every task must be taken exactly once. This is the linearizability
// property that forced the tag-bump owner pop (a stalled thief's
// multi-task CAS must never claim a slot the owner consumed).
func TestChaseLevBatchConcurrentSteals(t *testing.T) {
	const (
		tasks   = 20000
		thieves = 4
	)
	d := NewChaseLevBatch[int](1 << 15)
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
			var buf [8]*int
			for {
				n, res := d.PopTopHalf(buf[:], c)
				if res == Stolen {
					for i := 0; i < n; i++ {
						counts[th][*buf[i]]++
					}
				}
				select {
				case <-stop:
					if n, _ := d.PopTopHalf(buf[:], c); n == 0 && d.IsEmpty() {
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
		if pushed < tasks && d.Size() < 64 {
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
	for i := 0; i < tasks; i++ {
		var n int32
		for th := range counts {
			n += counts[th][i]
		}
		if n != 1 {
			t.Fatalf("task %d taken %d times, want exactly 1", i, n)
		}
	}
}

func TestBatchAgePacking(t *testing.T) {
	for _, top := range []int64{0, 1, 47, 1 << 20, batchTopMask} {
		for _, tag := range []uint16{0, 1, 0xffff} {
			gotTop, gotTag := unpackBatchAge(packBatchAge(top, tag))
			if gotTop != top || gotTag != tag {
				t.Errorf("pack/unpack(%d,%d) = (%d,%d)", top, tag, gotTop, gotTag)
			}
		}
	}
}
