package deque

import (
	"sync"
	"testing"
	"testing/quick"

	"lcws/internal/counters"
	"lcws/internal/rng"
)

func TestChaseLevPushPopLIFO(t *testing.T) {
	d := NewChaseLev[int](64)
	c := newCtr()
	push2 := func(v int) {
		p := new(int)
		*p = v
		d.PushBottom(p, c)
	}
	push2(1)
	push2(2)
	push2(3)
	for want := 3; want >= 1; want-- {
		got := d.PopBottom(c)
		if got == nil || *got != want {
			t.Fatalf("PopBottom = %v, want %d", got, want)
		}
	}
	if d.PopBottom(c) != nil {
		t.Fatal("PopBottom on empty deque returned a task")
	}
}

func TestChaseLevFenceAccounting(t *testing.T) {
	d := NewChaseLev[int](64)
	c := newCtr()
	p := new(int)
	d.PushBottom(p, c)
	if got := c.Get(counters.Fence); got != counters.WSPushFences {
		t.Errorf("push cost %d fences, want %d", got, counters.WSPushFences)
	}
	base := c.Get(counters.Fence)
	d.PopBottom(c)
	if got := c.Get(counters.Fence) - base; got != counters.WSPopFences {
		t.Errorf("pop cost %d fences, want %d", got, counters.WSPopFences)
	}
	// Popping the last element also costs a CAS (the race with thieves).
	if got := c.Get(counters.CAS); got != counters.WSPopRaceCAS {
		t.Errorf("last-element pop cost %d CAS, want %d", got, counters.WSPopRaceCAS)
	}
	// An empty pop still costs the store-load fence.
	base = c.Get(counters.Fence)
	d.PopBottom(c)
	if got := c.Get(counters.Fence) - base; got != counters.WSPopFences {
		t.Errorf("empty pop cost %d fences, want %d", got, counters.WSPopFences)
	}
}

func TestChaseLevStealAccounting(t *testing.T) {
	d := NewChaseLev[int](64)
	owner, thief := newCtr(), newCtr()
	if _, res := d.PopTop(thief); res != Empty {
		t.Fatalf("steal from empty deque = %v, want Empty", res)
	}
	if got := thief.Get(counters.Fence); got != counters.WSStealFences {
		t.Errorf("empty steal cost %d fences, want %d", got, counters.WSStealFences)
	}
	if got := thief.Get(counters.CAS); got != 0 {
		t.Errorf("empty steal cost %d CAS, want 0", got)
	}
	p := new(int)
	*p = 42
	d.PushBottom(p, owner)
	task, res := d.PopTop(thief)
	if res != Stolen || task == nil || *task != 42 {
		t.Fatalf("steal = %v, %v; want Stolen 42", task, res)
	}
	if got := thief.Get(counters.CAS); got != counters.WSStealCAS {
		t.Errorf("successful steal cost %d CAS, want %d", got, counters.WSStealCAS)
	}
}

func TestChaseLevStealsAreFIFO(t *testing.T) {
	d := NewChaseLev[int](64)
	owner, thief := newCtr(), newCtr()
	for v := 1; v <= 3; v++ {
		p := new(int)
		*p = v
		d.PushBottom(p, owner)
	}
	for want := 1; want <= 3; want++ {
		task, res := d.PopTop(thief)
		if res != Stolen || *task != want {
			t.Fatalf("steal = %v, %v; want %d", task, res, want)
		}
	}
}

func TestChaseLevNeverReportsPrivateWork(t *testing.T) {
	d := NewChaseLev[int](64)
	owner, thief := newCtr(), newCtr()
	p := new(int)
	d.PushBottom(p, owner)
	_, res := d.PopTop(thief)
	if res == PrivateWork {
		t.Fatal("Chase-Lev deque reported PrivateWork")
	}
}

func TestChaseLevCircularWraparound(t *testing.T) {
	d := NewChaseLev[int](8)
	c := newCtr()
	// Push/pop far more elements than the capacity; the circular buffer
	// must wrap cleanly.
	for i := 0; i < 1000; i++ {
		p := new(int)
		*p = i
		d.PushBottom(p, c)
		if i%3 == 0 {
			d.PopBottom(c)
		}
		for d.Size() > 4 {
			d.PopBottom(c)
		}
	}
}

func TestChaseLevOverflowPanics(t *testing.T) {
	// With maxCapacity == capacity the deque cannot grow, so PushBottom
	// beyond the window must panic (TryPushBottom is the graceful path).
	d := NewChaseLevMax[int](4, 4)
	c := newCtr()
	defer func() {
		if recover() == nil {
			t.Error("push beyond the maximum capacity did not panic")
		}
	}()
	for i := 0; i < 10; i++ {
		p := new(int)
		d.PushBottom(p, c)
	}
}

func TestChaseLevSequentialModel(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		d := NewChaseLev[int](256)
		c := newCtr()
		var model []int
		next := 0
		for step := 0; step < 500; step++ {
			switch op := g.Intn(8); {
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
				want := model[len(model)-1]
				if got == nil || *got != want {
					return false
				}
				model = model[:len(model)-1]
			default: // steal
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

func TestChaseLevConcurrentSteals(t *testing.T) {
	const (
		tasks   = 20000
		thieves = 4
	)
	d := NewChaseLev[int](1 << 15)
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

func TestStealResultAndExposeModeStrings(t *testing.T) {
	for _, tc := range []struct {
		got, want string
	}{
		{Empty.String(), "empty"},
		{Stolen.String(), "stolen"},
		{Abort.String(), "abort"},
		{PrivateWork.String(), "private-work"},
		{ExposeOne.String(), "expose-one"},
		{ExposeConservative.String(), "expose-conservative"},
		{ExposeHalf.String(), "expose-half"},
	} {
		if tc.got != tc.want {
			t.Errorf("String() = %q, want %q", tc.got, tc.want)
		}
	}
}

// TestChaseLevClearsDeadSlots pins that the deque does not keep dead
// tasks reachable: indices are absolute and steals walk the live window
// around the ring, so a deque that never cleared a popped or stolen slot
// would end up pinning a dead task in every slot. One goroutine plays owner and thief, keeping the
// deque non-empty while top wraps the ring more than once, then drains
// it — through the owner's last-element pop or through steals followed
// by the owner's empty pop — and checks that no slot outside [top, bot)
// still points at a task. Along the way every pop and steal is checked
// against a sequential model, so a clear that hit a live slot shows up
// as a wrong or nil task.
func TestChaseLevClearsDeadSlots(t *testing.T) {
	for _, mode := range []struct {
		name string
		mk   func() *ChaseLev[int]
	}{
		{"stock", func() *ChaseLev[int] { return NewChaseLev[int](16) }},
		{"batch", func() *ChaseLev[int] { return NewChaseLevBatch[int](16) }},
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
				pop := func() {
					got := d.PopBottom(c)
					if len(model) == 0 {
						if got != nil {
							t.Fatalf("pop on empty deque returned %d", *got)
						}
						return
					}
					want := model[len(model)-1]
					model = model[:len(model)-1]
					if got == nil || *got != want {
						t.Fatalf("pop = %v, want %d", got, want)
					}
				}
				var buf [2]*int
				steal := func() StealResult {
					n, res := d.PopTopN(buf[:], c)
					for _, got := range buf[:n] {
						if got == nil || *got != model[0] {
							t.Fatalf("steal = %v, want %d", got, model[0])
						}
						model = model[1:]
					}
					return res
				}
				// Batch steals take up to two tasks, stock steals one;
				// push that many plus one per round so the size stays
				// put and the deque never drains mid-stream.
				perRound := 2
				if d.Batched() {
					perRound = 3
				}
				for i := 0; i < 4; i++ {
					push()
				}
				wrap := 2 * int64(d.Capacity())
				for d.topIndex() <= wrap {
					for i := 0; i < perRound; i++ {
						push()
					}
					if res := steal(); res != Stolen {
						t.Fatalf("steal from a %d-task deque = %v, want Stolen", d.Size(), res)
					}
					pop()
				}
				if got := d.Capacity(); got != 16 {
					t.Fatalf("deque grew to %d slots; the stream must wrap the initial ring", got)
				}
				switch drain {
				case "owner-pop":
					for len(model) > 0 {
						pop() // the last one is the last-element pop
					}
				case "stolen":
					for steal() != Empty {
					}
					pop() // the owner's empty pop
				}
				if len(model) != 0 {
					t.Fatalf("%d tasks left in the model after the drain", len(model))
				}
				top, bot := d.topIndex(), d.bot.Load()
				bb := d.buf.Load()
				for i := range bb.slots {
					if p := bb.slots[i].Load(); p != nil {
						t.Errorf("slot %d still holds task %d outside [top, bot) = [%d, %d)", i, *p, top, bot)
					}
				}
			})
		}
	}
}
