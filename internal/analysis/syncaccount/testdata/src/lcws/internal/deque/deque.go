// Package deque is a miniature stand-in for lcws/internal/deque with
// seeded syncaccount violations.
package deque

import (
	"sync/atomic"

	"lcws/internal/counters"
)

type SplitDeque struct {
	age       atomic.Uint64
	bot       atomic.Uint64
	publicBot atomic.Uint64
}

// ok: owner push is sync-free; TaskPushed is outside the model.
func (d *SplitDeque) PushBottom(c *counters.Worker) {
	c.Inc(counters.TaskPushed)
	d.bot.Store(d.bot.Load() + 1)
}

// bad: the fence-free owner pop accounts a fence.
func (d *SplitDeque) PopBottom(c *counters.Worker) {
	c.Inc(counters.Fence) // want `SplitDeque.PopBottom must not account counters.Fence`
	d.bot.Store(d.bot.Load() - 1)
}

// bad: exposure performs no synchronization at all.
func (d *SplitDeque) Expose(c *counters.Worker) {
	c.Add(counters.CAS, 1) // want `SplitDeque.Expose must not account counters.CAS`
	d.publicBot.Store(d.publicBot.Load() + 1)
}

// ok: the steal accounts its CAS attempt before making it.
func (d *SplitDeque) PopTop(c *counters.Worker) bool {
	old := d.age.Load()
	c.Add(counters.CAS, 1)
	return d.age.CompareAndSwap(old, old+1)
}

// bad: no fence or CAS accounting on the fence-bearing path.
func (d *SplitDeque) PopPublicBottom(c *counters.Worker) bool { // want `must account counters.Fence` `must account counters.CAS`
	old := d.age.Load()
	return d.age.CompareAndSwap(old, old+1) // want `CompareAndSwap without a preceding counters.CAS accounting`
}

// bad: the batched claim rides one CAS like PopTop — no fence allowed,
// and the CAS must be accounted.
func (d *SplitDeque) PopTopHalf(c *counters.Worker) bool { // want `SplitDeque.PopTopHalf must account counters.CAS`
	c.Inc(counters.Fence) // want `SplitDeque.PopTopHalf must not account counters.Fence`
	old := d.age.Load()
	return d.age.CompareAndSwap(old, old+2) // want `CompareAndSwap without a preceding counters.CAS accounting`
}

// bad ordering: accounting after the attempt misses aborted races.
func (d *SplitDeque) UnexposeAll(c *counters.Worker) {
	old := d.age.Load()
	d.age.CompareAndSwap(old, old+1) // want `CompareAndSwap without a preceding counters.CAS accounting`
	c.Inc(counters.Fence)
	c.Inc(counters.CAS)
}

type ChaseLev struct {
	top atomic.Int64
	bot atomic.Int64
}

// ok: Chase-Lev push pays its store-store fence.
func (d *ChaseLev) PushBottom(c *counters.Worker) {
	c.Add(counters.Fence, 1)
	d.bot.Store(d.bot.Load() + 1)
}

// bad: the unavoidable store-load fence is not accounted.
func (d *ChaseLev) PopBottom(c *counters.Worker) bool { // want `ChaseLev.PopBottom must account counters.Fence`
	old := d.top.Load()
	c.Inc(counters.CAS)
	return d.top.CompareAndSwap(old, old+1)
}

// ok: the batch-mode owner pop pays its fence and tag-bump CAS.
func (d *ChaseLev) popBottomBatch(c *counters.Worker) bool {
	c.Add(counters.Fence, 1)
	old := d.top.Load()
	c.Add(counters.CAS, 1)
	return d.top.CompareAndSwap(old, old+1)
}

// bad: the batched steal must pay the same fence + CAS as PopTop.
func (d *ChaseLev) PopTopHalf(c *counters.Worker) bool { // want `ChaseLev.PopTopHalf must account counters.Fence` `ChaseLev.PopTopHalf must account counters.CAS`
	old := d.top.Load()
	return d.top.CompareAndSwap(old, old+2) // want `CompareAndSwap without a preceding counters.CAS accounting`
}

// ok: unlisted methods only face the CAS-ordering rule.
func (d *ChaseLev) Size() int64 {
	return d.bot.Load() - d.top.Load()
}
