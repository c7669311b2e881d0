package main

import (
	"fmt"
	"sync"
	"time"

	"lcws"
)

// reference prints the figures the README compares the pools with:
// each pbbs instance's Verify time (its sequential reference plus the
// comparison), the fork-tree jobs run as one goroutine per task under
// a sync.WaitGroup, with no scheduler of the repository's own, and the
// Fork2 path alone (fib trees with no ParFor) on each pool.
func reference(seed uint64) error {
	jobs, err := preparePbbs()
	if err != nil {
		return err
	}
	s := lcws.New()
	defer s.Close()
	for i, j := range jobs {
		s.Run(j.Run)
		var ts []float64
		for k := 0; k < 5; k++ {
			t := time.Now()
			if err := j.Verify(); err != nil {
				return err
			}
			ts = append(ts, float64(time.Since(t).Nanoseconds())/1e6)
		}
		fmt.Printf("reference pbbs %s/%s: Verify %.2f ms (median of 5)\n", pbbsList[i].bench, pbbsList[i].input, median(ts))
	}

	var lat []float64
	for r := 0; len(lat) < 120; r++ {
		for _, sz := range forkDeck(seed, r) {
			t := time.Now()
			f, sum := goFib(sz.n), goSum(sz.m)
			lat = append(lat, float64(time.Since(t).Nanoseconds())/1e6)
			if err := checkForkJob(sz.n, sz.m, f, sum, forkTasks(sz.n, sz.m)); err != nil {
				return err
			}
		}
	}
	fmt.Printf("reference fork-tree goroutine-per-task: job p50 %.3f ms over %d jobs\n", median(lat), len(lat))

	const n, runs = 22, 200
	for _, pol := range []lcws.Policy{lcws.WS, lcws.SignalLCWS} {
		p := lcws.New(lcws.WithWorkers(2), lcws.WithPolicy(pol), lcws.WithSeed(seed))
		p.Run(func(ctx *lcws.Ctx) { fib(ctx, n) })
		before, cpu0, t0 := p.Stats(), cpuTime(), time.Now()
		lat = lat[:0]
		for i := 0; i < runs; i++ {
			var got int
			t := time.Now()
			p.Run(func(ctx *lcws.Ctx) { got = fib(ctx, n) })
			lat = append(lat, float64(time.Since(t).Nanoseconds())/1e6)
			if got != fibIter(n) {
				_ = p.Close()
				return fmt.Errorf("fib(%d) = %d under %v", n, got, pol)
			}
		}
		cores := (cpuTime() - cpu0).Seconds() / time.Since(t0).Seconds()
		d := p.Stats().Sub(before)
		_ = p.Close() // Close always returns nil
		fmt.Printf("reference fib(%d) Fork2 tree, %v at 2 workers, %d jobs: p50 %.2f ms, %.2f cores busy, %d steals, %d exposures, %d signals sent, %d handled\n",
			n, pol, runs, median(lat), cores, d.StealSuccesses, d.Exposures, d.SignalsSent, d.SignalsHandled)
	}
	return nil
}

// goFib is fib with one goroutine per right branch.
func goFib(n int) int {
	if n < 2 {
		return n
	}
	var a, b int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); b = goFib(n - 2) }()
	a = goFib(n - 1)
	wg.Wait()
	return a + b
}

// goSum is the grain-1 ParFor sum with one goroutine per split.
func goSum(m int) int64 {
	var rec func(lo, hi int) int64
	rec = func(lo, hi int) int64 {
		if hi-lo == 1 {
			return int64(lo)
		}
		mid := lo + (hi-lo)/2
		var right int64
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { defer wg.Done(); right = rec(mid, hi) }()
		left := rec(lo, mid)
		wg.Wait()
		return left + right
	}
	return rec(0, m)
}
