package main

import (
	"fmt"
	"time"

	"lcws/internal/counters"
	"lcws/internal/deque"
)

// The deque floor: single-goroutine loops over the two deques the WS
// and Signal pools use, with no scheduler around them. Each round
// pushes dequeBatch tasks and takes them all back, by owner pops or by
// steals; every round is one span.
const (
	dequeBatch  = 1024
	dequeRounds = 400
)

type item struct{ _ int }

// ops is one deque's operations, so one loop body serves both kinds.
type ops struct {
	name    string
	push    func(*item, *counters.Worker)
	pop     func(*counters.Worker) *item
	expose  func(*counters.Worker) // makes the pushed tasks stealable
	steal   func(*counters.Worker) (*item, deque.StealResult)
	drain   func(*counters.Worker) // the owner's empty pop after the steals
	popWant func(rounds uint64) (fences, cas uint64)
	stlWant func(rounds uint64) (fences, cas uint64)
}

func chaseLevOps() ops {
	d := deque.NewChaseLev[item](dequeBatch)
	return ops{
		name:   "chaselev",
		push:   d.PushBottom,
		pop:    d.PopBottom,
		expose: func(*counters.Worker) {},
		steal:  d.PopTop,
		drain:  func(c *counters.Worker) { d.PopBottom(c) },
		// Pops of a deque holding more than one task need no CAS; the
		// last one races thieves for it.
		popWant: func(r uint64) (uint64, uint64) {
			return r * dequeBatch * (counters.WSPushFences + counters.WSPopFences), r * counters.WSPopRaceCAS
		},
		// Every steal pays its fence and CAS; the empty pop after them
		// pays one fence.
		stlWant: func(r uint64) (uint64, uint64) {
			return r * (dequeBatch*(counters.WSPushFences+counters.WSStealFences) + counters.WSPopFences), r * dequeBatch * counters.WSStealCAS
		},
	}
}

func splitOps() ops {
	d := deque.NewSplit[item](dequeBatch, true) // the signal-safe pop, as SignalLCWS builds it
	return ops{
		name: "split",
		push: d.PushBottom,
		pop:  d.PopBottom,
		expose: func(c *counters.Worker) {
			for d.Expose(deque.ExposeOne, c) > 0 {
			}
		},
		steal: d.PopTop,
		drain: func(c *counters.Worker) {
			d.PopBottom(c)
			d.PopPublicBottom(c)
		},
		// The private part is synchronisation-free.
		popWant: func(uint64) (uint64, uint64) { return 0, 0 },
		// Each steal of a public task pays one CAS; the owner's
		// pop_public_bottom that finds the public part stolen empty
		// takes the emptying path and its two fences.
		stlWant: func(r uint64) (uint64, uint64) {
			return r * counters.LCWSPopPublicEmptyFences, r * dequeBatch * counters.LCWSStealCAS
		},
	}
}

// dequeFloor runs the loops, reports deque.push_pop_ns.<kind> (one push
// plus one pop) and deque.steal_ns.<kind>, and checks every returned
// task and the fence and CAS counts the counting model fixes. It
// returns a description of the first violation, or "".
func dequeFloor(tr *tracer, put func(string, float64, string)) string {
	items := make([]item, dequeBatch)
	parent := tr.reserve("deque")
	start := time.Now()
	defer func() { tr.fill(parent, -1, 0, start, time.Now()) }()
	for _, mk := range []func() ops{chaseLevOps, splitOps} {
		// push/pop: LIFO order.
		o := mk()
		var c counters.Worker
		var pushPop time.Duration
		for r := 0; r < dequeRounds; r++ {
			t := time.Now()
			for i := range items {
				o.push(&items[i], &c)
			}
			for i := len(items) - 1; i >= 0; i-- {
				if got := o.pop(&c); got != &items[i] {
					return fmt.Sprintf("%s pop %d returned the wrong task", o.name, i)
				}
			}
			e := time.Now()
			pushPop += e.Sub(t)
			tr.add("deque.push_pop."+o.name, parent, 0, t, e)
		}
		if f, cas := o.popWant(dequeRounds); c.Get(counters.Fence) != f || c.Get(counters.CAS) != cas {
			return fmt.Sprintf("%s push/pop paid %d fences and %d CAS, the model fixes %d and %d",
				o.name, c.Get(counters.Fence), c.Get(counters.CAS), f, cas)
		}
		put("deque.push_pop_ns."+o.name, ratio(float64(pushPop.Nanoseconds()), dequeRounds*dequeBatch), "ns")

		// steal: FIFO order, timed over the steals alone.
		o = mk()
		c.Reset()
		var steal time.Duration
		for r := 0; r < dequeRounds; r++ {
			for i := range items {
				o.push(&items[i], &c)
			}
			o.expose(&c)
			t := time.Now()
			for i := range items {
				if got, res := o.steal(&c); got != &items[i] || res != deque.Stolen {
					return fmt.Sprintf("%s steal %d returned %v and the wrong task", o.name, i, res)
				}
			}
			e := time.Now()
			steal += e.Sub(t)
			tr.add("deque.steal."+o.name, parent, 0, t, e)
			o.drain(&c)
		}
		if f, cas := o.stlWant(dequeRounds); c.Get(counters.Fence) != f || c.Get(counters.CAS) != cas {
			return fmt.Sprintf("%s steals paid %d fences and %d CAS, the model fixes %d and %d",
				o.name, c.Get(counters.Fence), c.Get(counters.CAS), f, cas)
		}
		put("deque.steal_ns."+o.name, ratio(float64(steal.Nanoseconds()), dequeRounds*dequeBatch), "ns")
	}
	return ""
}
