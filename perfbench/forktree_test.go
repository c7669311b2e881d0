package main

import (
	"testing"

	"lcws"
)

func TestCheckForkJob(t *testing.T) {
	const n, m = 10, 100
	good := struct {
		fib   int
		sum   int64
		tasks uint64
	}{55, 4950, 1 + 88 + 99} // fib(10) forks fib(11)-1 = 88 times
	if err := checkForkJob(n, m, good.fib, good.sum, good.tasks); err != nil {
		t.Fatalf("correct job rejected: %v", err)
	}
	for name, c := range map[string]struct {
		fib   int
		sum   int64
		tasks uint64
	}{
		"wrong fib":   {good.fib + 1, good.sum, good.tasks},
		"wrong sum":   {good.fib, good.sum - 1, good.tasks},
		"short tasks": {good.fib, good.sum, good.tasks - 1},
	} {
		if checkForkJob(n, m, c.fib, c.sum, c.tasks) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestForkTreeMutants runs the fork-tree workload with a broken kernel
// and expects every job the run attempts to be reported failed, while
// the intact kernel fails none.
func TestForkTreeMutants(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workload")
	}
	for _, c := range []struct {
		name   string
		tree   *forkTree
		broken bool
	}{
		{"intact", defaultForkTree(), false},
		{"wrong fib", &forkTree{
			fib: func(ctx *lcws.Ctx, n int) int { return fib(ctx, n) + 1 },
			sum: parSum,
		}, true},
		{"wrong sum", &forkTree{
			fib: fib,
			sum: func(ctx *lcws.Ctx, m int) int64 { return parSum(ctx, m-1) },
		}, true},
		// The right value from one Fork2 fewer: the top call runs its
		// second branch inline.
		{"short task count", &forkTree{
			fib: func(ctx *lcws.Ctx, n int) int {
				var a int
				lcws.Fork2(ctx, func(ctx *lcws.Ctx) { a = fib(ctx, n-1) }, func(*lcws.Ctx) {})
				return a + fibIter(n-2)
			},
			sum: parSum,
		}, true},
	} {
		b := &run{seed: 7, workers: 2}
		res, err := b.execute(forkWorkload(c.tree), 1, false, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if res.Attempted == 0 {
			t.Fatalf("%s: no job attempted", c.name)
		}
		want := 0
		if c.broken {
			want = res.Attempted
		}
		if res.Failed != want {
			t.Errorf("%s: %d of %d jobs failed, want %d", c.name, res.Failed, res.Attempted, want)
		}
	}
}
