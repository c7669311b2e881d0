package deque

import (
	"sync"
	"testing"
	"testing/quick"

	"lcws/internal/counters"
	"lcws/internal/rng"
)

func newCtr() *counters.Worker { return counters.NewSet(1).Worker(0) }

func push(t *testing.T, d *SplitDeque[int], c *counters.Worker, vals ...int) []*int {
	t.Helper()
	out := make([]*int, len(vals))
	for i, v := range vals {
		p := new(int)
		*p = v
		d.PushBottom(p, c)
		out[i] = p
	}
	return out
}

func TestSplitPushPopLIFO(t *testing.T) {
	for _, raceFix := range []bool{false, true} {
		d := NewSplit[int](64, raceFix)
		c := newCtr()
		push(t, d, c, 1, 2, 3)
		for want := 3; want >= 1; want-- {
			got := d.PopBottom(c)
			if got == nil || *got != want {
				t.Fatalf("raceFix=%v: PopBottom = %v, want %d", raceFix, got, want)
			}
		}
		if d.PopBottom(c) != nil {
			t.Fatalf("raceFix=%v: PopBottom on empty deque returned a task", raceFix)
		}
	}
}

func TestSplitPrivateOpsAreSynchronizationFree(t *testing.T) {
	d := NewSplit[int](64, false)
	c := newCtr()
	push(t, d, c, 1, 2, 3, 4, 5)
	for d.PopBottom(c) != nil {
	}
	if f := c.Get(counters.Fence); f != 0 {
		t.Errorf("private push/pop recorded %d fences, want 0 (paper Lemmas 1-2)", f)
	}
	if cas := c.Get(counters.CAS); cas != 0 {
		t.Errorf("private push/pop recorded %d CAS, want 0", cas)
	}
}

func TestSplitExposeModes(t *testing.T) {
	cases := []struct {
		mode    ExposeMode
		private int
		want    int
	}{
		{ExposeOne, 0, 0},
		{ExposeOne, 1, 1},
		{ExposeOne, 5, 1},
		{ExposeConservative, 0, 0},
		{ExposeConservative, 1, 0},
		{ExposeConservative, 2, 1},
		{ExposeConservative, 5, 1},
		{ExposeHalf, 0, 0},
		{ExposeHalf, 1, 1},
		{ExposeHalf, 2, 1},
		{ExposeHalf, 3, 2}, // round(3/2) = 2
		{ExposeHalf, 4, 2},
		{ExposeHalf, 5, 3}, // round(5/2) = 3
		{ExposeHalf, 9, 5},
	}
	for _, tc := range cases {
		d := NewSplit[int](64, false)
		c := newCtr()
		for i := 0; i < tc.private; i++ {
			push(t, d, c, i)
		}
		got := d.Expose(tc.mode, c)
		if got != tc.want {
			t.Errorf("%v with %d private tasks exposed %d, want %d", tc.mode, tc.private, got, tc.want)
		}
		if ps := d.PublicSize(); ps != tc.want {
			t.Errorf("%v with %d private tasks: PublicSize = %d, want %d", tc.mode, tc.private, ps, tc.want)
		}
		if c.Get(counters.Exposure) != uint64(tc.want) {
			t.Errorf("%v exposure counter = %d, want %d", tc.mode, c.Get(counters.Exposure), tc.want)
		}
	}
}

func TestSplitPopTopResults(t *testing.T) {
	d := NewSplit[int](64, false)
	owner, thief := newCtr(), newCtr()

	if _, res := d.PopTop(thief); res != Empty {
		t.Fatalf("PopTop on empty deque = %v, want Empty", res)
	}
	push(t, d, owner, 7)
	if _, res := d.PopTop(thief); res != PrivateWork {
		t.Fatalf("PopTop with only private work = %v, want PrivateWork", res)
	}
	if got := thief.Get(counters.CAS); got != 0 {
		t.Errorf("failed steal attempts cost %d CAS, want 0", got)
	}
	d.Expose(ExposeOne, owner)
	task, res := d.PopTop(thief)
	if res != Stolen || task == nil || *task != 7 {
		t.Fatalf("PopTop after exposure = %v, %v; want Stolen 7", task, res)
	}
	if got := thief.Get(counters.CAS); got != 1 {
		t.Errorf("successful steal cost %d CAS, want 1", got)
	}
	if _, res := d.PopTop(thief); res != Empty {
		t.Fatalf("PopTop after stealing last task = %v, want Empty", res)
	}
}

func TestSplitStealOrderIsFIFO(t *testing.T) {
	d := NewSplit[int](64, false)
	owner, thief := newCtr(), newCtr()
	push(t, d, owner, 1, 2, 3)
	d.Expose(ExposeHalf, owner) // exposes 2: tasks 1 and 2
	a, res := d.PopTop(thief)
	if res != Stolen || *a != 1 {
		t.Fatalf("first steal = %v, %v; want 1", a, res)
	}
	b, res := d.PopTop(thief)
	if res != Stolen || *b != 2 {
		t.Fatalf("second steal = %v, %v; want 2", b, res)
	}
	if _, res := d.PopTop(thief); res != PrivateWork {
		t.Fatalf("third steal = %v, want PrivateWork (task 3 is private)", res)
	}
}

func TestSplitPopPublicBottomTakesYoungestPublic(t *testing.T) {
	d := NewSplit[int](64, false)
	c := newCtr()
	push(t, d, c, 1, 2, 3)
	d.Expose(ExposeOne, c)
	d.Expose(ExposeOne, c) // public: [1 2], private: [3]
	for d.PopBottom(c) != nil {
	}
	got := d.PopPublicBottom(c)
	if got == nil || *got != 2 {
		t.Fatalf("PopPublicBottom = %v, want 2 (youngest public)", got)
	}
	got = d.PopPublicBottom(c)
	if got == nil || *got != 1 {
		t.Fatalf("PopPublicBottom = %v, want 1", got)
	}
	if d.PopPublicBottom(c) != nil {
		t.Fatal("PopPublicBottom on empty deque returned a task")
	}
	if un := c.Get(counters.ExposedNotStolen); un != 2 {
		t.Errorf("ExposedNotStolen = %d, want 2", un)
	}
}

func TestSplitPopPublicBottomFenceAccounting(t *testing.T) {
	d := NewSplit[int](64, false)
	c := newCtr()
	push(t, d, c, 1, 2)
	d.Expose(ExposeOne, c)
	d.Expose(ExposeOne, c)
	for d.PopBottom(c) != nil {
	}
	base := c.Get(counters.Fence)
	d.PopPublicBottom(c) // common path: task 2 remains... task 1 still public
	afterCommon := c.Get(counters.Fence)
	if afterCommon-base != counters.LCWSPopPublicFences {
		t.Errorf("common-path PopPublicBottom cost %d fences, want %d",
			afterCommon-base, counters.LCWSPopPublicFences)
	}
	d.PopPublicBottom(c) // emptying path
	afterEmpty := c.Get(counters.Fence)
	if afterEmpty-afterCommon != counters.LCWSPopPublicEmptyFences {
		t.Errorf("emptying-path PopPublicBottom cost %d fences, want %d",
			afterEmpty-afterCommon, counters.LCWSPopPublicEmptyFences)
	}
}

func TestSplitIndicesResetAfterEmpty(t *testing.T) {
	d := NewSplit[int](8, false)
	c := newCtr()
	// Fill and fully drain through the public path many times; with
	// capacity 8 this only works if indices reset on empty.
	for round := 0; round < 100; round++ {
		push(t, d, c, 1, 2, 3, 4, 5, 6)
		for d.PopBottom(c) != nil {
		}
		// Private part drained; expose nothing, deque empty via pops.
		push(t, d, c, 1, 2)
		d.Expose(ExposeOne, c)
		d.Expose(ExposeOne, c)
		for d.PopPublicBottom(c) != nil {
		}
		if !d.IsEmpty() {
			t.Fatalf("round %d: deque not empty after drain", round)
		}
	}
}

func TestSplitRaceFixPopRepairsBot(t *testing.T) {
	// §4: the race-fixed pop_bottom pre-decrements bot; a failed pop must
	// be repaired by the subsequent PopPublicBottom on every path.
	t.Run("public-work-remains", func(t *testing.T) {
		d := NewSplit[int](64, true)
		c := newCtr()
		push(t, d, c, 1, 2)
		d.Expose(ExposeOne, c)
		d.Expose(ExposeOne, c) // both public
		if got := d.PopBottom(c); got != nil {
			t.Fatalf("PopBottom with empty private part = %v, want nil", got)
		}
		got := d.PopPublicBottom(c)
		if got == nil || *got != 2 {
			t.Fatalf("PopPublicBottom = %v, want 2", got)
		}
		// bot must have been repaired so that further pushes work.
		push(t, d, c, 9)
		if got := d.PopBottom(c); got == nil || *got != 9 {
			t.Fatalf("PopBottom after repair = %v, want 9", got)
		}
	})
	t.Run("deque-empty", func(t *testing.T) {
		d := NewSplit[int](64, true)
		c := newCtr()
		if got := d.PopBottom(c); got != nil {
			t.Fatalf("PopBottom on empty = %v, want nil", got)
		}
		if got := d.PopPublicBottom(c); got != nil {
			t.Fatalf("PopPublicBottom on empty = %v, want nil", got)
		}
		push(t, d, c, 5)
		if got := d.PopBottom(c); got == nil || *got != 5 {
			t.Fatalf("PopBottom after empty-path repair = %v, want 5", got)
		}
	})
}

func TestSplitHasTwoTasks(t *testing.T) {
	d := NewSplit[int](64, false)
	c := newCtr()
	if d.HasTwoTasks() {
		t.Error("empty deque reports two tasks")
	}
	push(t, d, c, 1)
	if d.HasTwoTasks() {
		t.Error("1-task deque reports two tasks")
	}
	push(t, d, c, 2)
	if !d.HasTwoTasks() {
		t.Error("2-task deque does not report two tasks")
	}
	d.Expose(ExposeOne, c)
	if !d.HasTwoTasks() {
		t.Error("1 public + 1 private deque does not report two tasks")
	}
}

func TestSplitOverflowPanics(t *testing.T) {
	// With maxCapacity == capacity the deque cannot grow, so PushBottom
	// beyond the window must panic (TryPushBottom is the graceful path).
	d := NewSplitMax[int](4, 4, false)
	c := newCtr()
	push(t, d, c, 1, 2, 3, 4)
	defer func() {
		if recover() == nil {
			t.Error("push beyond the maximum capacity did not panic")
		}
	}()
	push(t, d, c, 5)
}

// TestSplitSequentialModel drives a split deque with a random owner-side
// operation sequence against a simple slice model (property-based test).
func TestSplitSequentialModel(t *testing.T) {
	f := func(seed uint64, raceFix bool) bool {
		g := rng.New(seed)
		d := NewSplit[int](256, raceFix)
		c := newCtr()
		var model []int // model[0] is top; private/public split tracked separately
		publicCount := 0
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
			case op < 7: // pop bottom (private)
				got := d.PopBottom(c)
				if len(model) == publicCount {
					if got != nil {
						t.Logf("PopBottom on empty private part returned %d", *got)
						return false
					}
					if raceFix {
						// Repair bot as the scheduler contract requires.
						d.PopPublicBottom(c)
						if publicCount > 0 {
							model = model[:len(model)-1]
							publicCount--
						}
					}
					continue
				}
				want := model[len(model)-1]
				if got == nil || *got != want {
					t.Logf("PopBottom = %v, want %d", got, want)
					return false
				}
				model = model[:len(model)-1]
			case op < 8: // expose one
				if d.Expose(ExposeOne, c) == 1 {
					publicCount++
				}
			case op < 9: // owner takes from public part
				if len(model) > publicCount {
					// Contract: pop_public_bottom may only run when the
					// private part is empty (Listing 1 line 15).
					continue
				}
				got := d.PopPublicBottom(c)
				if publicCount == 0 {
					if got != nil {
						t.Logf("PopPublicBottom with empty public part returned %d", *got)
						return false
					}
					continue
				}
				// Youngest public element is at index publicCount-1.
				want := model[publicCount-1]
				if got == nil || *got != want {
					t.Logf("PopPublicBottom = %v, want %d", got, want)
					return false
				}
				copy(model[publicCount-1:], model[publicCount:])
				model = model[:len(model)-1]
				publicCount--
			default: // steal (single-threaded here, so deterministic)
				got, res := d.PopTop(c)
				switch {
				case publicCount > 0:
					if res != Stolen || got == nil || *got != model[0] {
						t.Logf("PopTop = %v,%v, want Stolen %d", got, res, model[0])
						return false
					}
					model = model[1:]
					publicCount--
				case len(model) > 0:
					if res != PrivateWork {
						t.Logf("PopTop = %v, want PrivateWork", res)
						return false
					}
				default:
					if res != Empty {
						t.Logf("PopTop = %v, want Empty", res)
						return false
					}
				}
			}
			if d.PrivateSize() != len(model)-publicCount {
				t.Logf("PrivateSize = %d, model says %d", d.PrivateSize(), len(model)-publicCount)
				return false
			}
			if d.PublicSize() != publicCount {
				t.Logf("PublicSize = %d, model says %d", d.PublicSize(), publicCount)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSplitConcurrentSteals hammers a split deque with one owner and many
// thieves and checks that every task is taken exactly once.
func TestSplitConcurrentSteals(t *testing.T) {
	const (
		tasks   = 20000
		thieves = 4
	)
	for _, raceFix := range []bool{false, true} {
		d := NewSplit[int](1<<15, raceFix)
		ownerCtr := newCtr()
		var wg sync.WaitGroup
		counts := make([][]int32, thieves+1)
		for i := range counts {
			counts[i] = make([]int32, tasks)
		}

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

		// Owner: push all tasks, interleaving exposures and local pops.
		g := rng.New(uint64(tasks))
		pushed := 0
		for pushed < tasks || !d.IsEmpty() {
			if pushed < tasks && d.PrivateSize() < 64 {
				p := new(int)
				*p = pushed
				d.PushBottom(p, ownerCtr)
				pushed++
			}
			switch g.Intn(3) {
			case 0:
				d.Expose(ExposeOne, ownerCtr)
			case 1, 2:
				if task := d.PopBottom(ownerCtr); task != nil {
					counts[thieves][*task]++
				} else {
					// Private part empty: the scheduler contract says
					// the owner now pops from the public part (this
					// also repairs bot after a race-fix PopBottom).
					if task := d.PopPublicBottom(ownerCtr); task != nil {
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
				t.Fatalf("raceFix=%v: task %d taken %d times, want exactly 1", raceFix, i, n)
			}
		}
	}
}

func TestUnexposeAllReclaimsPublicWork(t *testing.T) {
	d := NewSplit[int](64, false)
	c := newCtr()
	push(t, d, c, 1, 2, 3, 4)
	d.Expose(ExposeHalf, c) // exposes 2: tasks 1 and 2
	// Drain the private part as the scheduler would.
	for d.PopBottom(c) != nil {
	}
	if d.PublicSize() != 2 || d.PrivateSize() != 0 {
		t.Fatalf("setup wrong: public %d private %d", d.PublicSize(), d.PrivateSize())
	}
	got := d.UnexposeAll(c)
	if got != 2 {
		t.Fatalf("UnexposeAll reclaimed %d, want 2", got)
	}
	if d.PublicSize() != 0 || d.PrivateSize() != 2 {
		t.Fatalf("after unexpose: public %d private %d", d.PublicSize(), d.PrivateSize())
	}
	// Reclaimed tasks pop in LIFO order, synchronization-free.
	fences := c.Get(counters.Fence)
	a := d.PopBottom(c)
	b := d.PopBottom(c)
	if a == nil || b == nil || *a != 2 || *b != 1 {
		t.Fatalf("pops after unexpose = %v, %v; want 2, 1", a, b)
	}
	if c.Get(counters.Fence) != fences {
		t.Error("pops after unexpose paid fences")
	}
}

func TestUnexposeAllEmptyAndAllStolen(t *testing.T) {
	d := NewSplit[int](64, false)
	owner, thief := newCtr(), newCtr()
	if got := d.UnexposeAll(owner); got != 0 {
		t.Fatalf("UnexposeAll on empty deque = %d", got)
	}
	push(t, d, owner, 1)
	d.Expose(ExposeOne, owner)
	if _, res := d.PopTop(thief); res != Stolen {
		t.Fatal("setup steal failed")
	}
	if got := d.UnexposeAll(owner); got != 0 {
		t.Fatalf("UnexposeAll after full steal = %d, want 0", got)
	}
}

func TestUnexposeAllCountsSync(t *testing.T) {
	d := NewSplit[int](64, false)
	c := newCtr()
	push(t, d, c, 1, 2)
	d.Expose(ExposeHalf, c)
	for d.PopBottom(c) != nil {
	}
	f0, cas0 := c.Get(counters.Fence), c.Get(counters.CAS)
	d.UnexposeAll(c)
	if c.Get(counters.Fence)-f0 != 1 || c.Get(counters.CAS)-cas0 != 1 {
		t.Errorf("UnexposeAll cost %d fences %d CAS, want 1 and 1",
			c.Get(counters.Fence)-f0, c.Get(counters.CAS)-cas0)
	}
}

// TestUnexposeAllConcurrentWithThieves checks that under a steal storm
// every task is taken exactly once even while the owner repeatedly
// exposes and un-exposes.
func TestUnexposeAllConcurrentWithThieves(t *testing.T) {
	const (
		tasks   = 20000
		thieves = 4
	)
	d := NewSplit[int](1<<15, false)
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
	g := rng.New(99)
	pushed := 0
	for pushed < tasks || !d.IsEmpty() {
		if pushed < tasks && d.PrivateSize() < 64 {
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
				if task := d.PopBottom(ownerCtr); task != nil {
					counts[thieves][*task]++
				}
			}
		case 3:
			// Lace-style: only unexpose when private is drained.
			if d.PrivateSize() == 0 {
				d.UnexposeAll(ownerCtr)
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

// TestSplitABATagPreventsStaleSteal reproduces the ABA scenario the age
// tag exists for: a thief holds a stale age snapshot across a deque
// drain-and-refill; its CAS must fail rather than steal a new task with
// stale indices.
func TestSplitABATagPreventsStaleSteal(t *testing.T) {
	d := NewSplit[int](64, false)
	owner, thief := newCtr(), newCtr()

	// Owner pushes and exposes one task.
	push(t, d, owner, 1)
	d.Expose(ExposeOne, owner)

	// The thief reads state as PopTop would but stops before its CAS.
	staleAge := d.age.Load()
	top, tag := unpackAge(staleAge)
	if d.publicBot.Load() <= uint64(top) {
		t.Fatal("setup: no public work visible to the thief")
	}

	// Owner drains the deque through the public path (indices reset,
	// tag bumps) and refills it with a new exposed task at the same
	// positions.
	if got := d.PopPublicBottom(owner); got == nil || *got != 1 {
		t.Fatalf("drain got %v", got)
	}
	push(t, d, owner, 2)
	d.Expose(ExposeOne, owner)

	// The thief's stale CAS must fail: same top index, different tag.
	if d.age.CompareAndSwap(staleAge, packAge(top+1, tag)) {
		t.Fatal("stale CAS succeeded; ABA tag did not protect the steal")
	}
	// A fresh attempt succeeds and yields the new task.
	got, res := d.PopTop(thief)
	if res != Stolen || got == nil || *got != 2 {
		t.Fatalf("fresh steal = %v, %v; want Stolen 2", got, res)
	}
}

// TestSplitDequeClearsDeadSlots is TestChaseLevClearsDeadSlots for the
// split deque: a push/expose/steal/pop stream walks the live window
// around the ring several times, then the deque drains — by owner pops or
// by steals — and no slot may still hold a task. Both owner disciplines
// are covered: the stock one that reclaims through PopPublicBottom (and
// resets the indices on empty) and the UnexposeAll one of Lace, batch
// mode and MultFree (whose indices never reset).
func TestSplitDequeClearsDeadSlots(t *testing.T) {
	for _, mode := range []struct {
		name     string
		mk       func() *SplitDeque[int]
		unexpose bool
	}{
		{"racefix", func() *SplitDeque[int] { return NewSplit[int](16, true) }, false},
		{"conservative", func() *SplitDeque[int] { return NewSplit[int](16, false) }, false},
		{"unexpose", func() *SplitDeque[int] { return NewSplit[int](16, true) }, true},
		{"relaxed", func() *SplitDeque[int] { return NewSplitRelaxed[int](16, 0, true) }, true},
	} {
		for _, drain := range []string{"owner-pop", "stolen"} {
			t.Run(mode.name+"/"+drain, func(t *testing.T) {
				d := mode.mk()
				c := newCtr()
				var model []int // model[0] is the top task
				next := 0
				push := func() {
					p := new(int)
					*p = next
					model = append(model, next)
					next++
					d.PushBottom(p, c)
				}
				pop := func() bool {
					got := d.PopBottom(c)
					if got == nil {
						return false
					}
					want := model[len(model)-1]
					model = model[:len(model)-1]
					if *got != want {
						t.Fatalf("pop = %d, want %d", *got, want)
					}
					return true
				}
				// reclaim is the owner's step after an empty private pop.
				reclaim := func() {
					if mode.unexpose {
						if n := d.UnexposeAll(c); n != 0 {
							t.Fatalf("UnexposeAll reclaimed %d tasks from a fully stolen public part", n)
						}
					} else if got := d.PopPublicBottom(c); got != nil {
						t.Fatalf("PopPublicBottom returned %d from a fully stolen public part", *got)
					}
				}
				var buf [2]*int
				steal := func() StealResult {
					n, res := 0, Empty
					if mode.unexpose {
						n, res = d.PopTopHalf(buf[:], c)
					} else {
						var got *int
						if got, res = d.PopTop(c); res == Stolen {
							buf[0], n = got, 1
						}
					}
					for _, got := range buf[:n] {
						if got == nil || *got != model[0] {
							t.Fatalf("steal = %v, want %d", got, model[0])
						}
						model = model[1:]
					}
					return res
				}
				for i := 0; i < 4; i++ {
					push()
				}
				// Each round exposes the oldest task, a thief takes it and
				// the owner pops the youngest: the size stays put and the
				// deque never drains mid-stream, so top keeps advancing.
				wrap := uint64(2 * d.Capacity())
				for top, _ := unpackAge(d.age.Load()); uint64(top) <= wrap; top, _ = unpackAge(d.age.Load()) {
					push()
					push()
					if n := d.Expose(ExposeOne, c); n != 1 {
						t.Fatalf("Expose exposed %d tasks, want 1", n)
					}
					if res := steal(); res != Stolen {
						t.Fatalf("steal from a %d-task deque = %v, want Stolen", len(model), res)
					}
					if !pop() {
						t.Fatal("owner pop found no private task")
					}
				}
				if got := d.Capacity(); got != 16 {
					t.Fatalf("deque grew to %d slots; the stream must wrap the initial ring", got)
				}
				switch drain {
				case "owner-pop":
					for pop() {
					}
				case "stolen":
					for d.Expose(ExposeHalf, c) > 0 {
					}
					for steal() != Empty {
					}
					pop() // the owner's empty pop
				}
				reclaim()
				if len(model) != 0 {
					t.Fatalf("%d tasks left in the model after the drain", len(model))
				}
				if !d.IsEmpty() {
					t.Fatal("deque not empty after the drain")
				}
				bb := d.buf.Load()
				for i := range bb.slots {
					if p := bb.slots[i].Load(); p != nil {
						t.Errorf("slot %d of an empty deque still holds task %d", i, *p)
					}
				}
			})
		}
	}
}
