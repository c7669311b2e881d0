package main

import (
	"fmt"
	"math/rand"

	"lcws"
)

// forkTree is the fine-grained workload: each job is a Fork2 fib tree
// written with closures followed by a grain-1 ParFor sum, so the
// fork/join, deque, counter and freelist layers do most of the work.
// fib and sum are fields so the tests can run the workload with a
// broken kernel and see the run report it.
type forkTree struct {
	fib func(ctx *lcws.Ctx, n int) int
	sum func(ctx *lcws.Ctx, m int) int64
}

// The job sizes: a round holds each fib size forkPerSize times, with
// the ParFor length drawn from [forkSumMin, forkSumMin+forkSumSpan).
var forkFibSizes = []int{20, 21, 22}

const (
	forkPerSize = 4
	forkSumMin  = 4096
	forkSumSpan = 12288
)

func defaultForkTree() *forkTree { return &forkTree{fib: fib, sum: parSum} }

// fib computes fib(n) as a Fork2 tree of closures, as examples/server
// writes it: one Fork2, so one pushed task, per call with n >= 2.
func fib(ctx *lcws.Ctx, n int) int {
	if n < 2 {
		return n
	}
	var a, b int
	lcws.Fork2(ctx,
		func(ctx *lcws.Ctx) { a = fib(ctx, n-1) },
		func(ctx *lcws.Ctx) { b = fib(ctx, n-2) },
	)
	return a + b
}

// maxWorkers bounds the per-worker accumulators of parSum; Ctx.ID is
// below the pool's worker count.
const maxWorkers = 64

// parSum returns the sum of [0, m) through a grain-1 ParFor, one
// unsynchronised accumulator per worker (a cache line apart), summed
// after the ParFor's join.
func parSum(ctx *lcws.Ctx, m int) int64 {
	var acc [maxWorkers * 8]int64
	lcws.ParFor(ctx, 0, m, 1, func(ctx *lcws.Ctx, i int) { acc[ctx.ID()*8] += int64(i) })
	var s int64
	for w := 0; w < maxWorkers; w++ {
		s += acc[w*8]
	}
	return s
}

// fibIter is the independent reference for fib.
func fibIter(n int) int {
	a, b := 0, 1
	for i := 0; i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// forkCalls is the number of Fork2 calls of fib(n), from the shape of
// its recursion.
func forkCalls(n int) uint64 {
	c := make([]uint64, n+2)
	for i := 2; i <= n; i++ {
		c[i] = 1 + c[i-1] + c[i-2]
	}
	return c[n]
}

// forkTasks is the task count of a fork-tree job: the root, one task
// per Fork2 of the fib tree, and one per split of the grain-1 ParFor
// (m-1 for m leaves).
func forkTasks(n, m int) uint64 { return 1 + forkCalls(n) + uint64(m-1) }

// checkForkJob compares a fork-tree job's outputs with the references.
func checkForkJob(n, m, gotFib int, gotSum int64, tasks uint64) error {
	if want := fibIter(n); gotFib != want {
		return fmt.Errorf("fib(%d) = %d, want %d", n, gotFib, want)
	}
	if want := int64(m) * int64(m-1) / 2; gotSum != want {
		return fmt.Errorf("sum [0,%d) = %d, want %d", m, gotSum, want)
	}
	if want := forkTasks(n, m); tasks != want {
		return fmt.Errorf("fib(%d)+sum(%d) ran %d tasks, want %d", n, m, tasks, want)
	}
	return nil
}

type forkSize struct{ n, m int }

// forkDeck returns round r's jobs, drawn from the seed: the same for both
// pools in a round.
func forkDeck(seed uint64, r int) []forkSize {
	rng := rand.New(rand.NewSource(int64(seed*1_000_003) + int64(r)))
	var deck []forkSize
	for _, n := range forkFibSizes {
		for k := 0; k < forkPerSize; k++ {
			deck = append(deck, forkSize{n, forkSumMin + rng.Intn(forkSumSpan)})
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

func forkWorkload(f *forkTree) *workload {
	return &workload{
		name: "fork-tree",
		gen:  func(*run) error { return nil },
		round: func(b *run, p *pool, r int) {
			for _, sz := range forkDeck(b.seed, r) {
				var gotFib int
				var gotSum int64
				n, m := sz.n, sz.m
				b.closedJob(p, b.jobSpans(p), func(ctx *lcws.Ctx) {
					gotFib = f.fib(ctx, n)
					gotSum = f.sum(ctx, m)
				}, func(js lcws.JobStats) error {
					return checkForkJob(n, m, gotFib, gotSum, js.Tasks)
				})
			}
		},
		warm: 3,
	}
}
