// Command perfbench is the repository's end-to-end benchmark. One run
// executes one named workload on two resident pools at once, a WS pool
// and a SignalLCWS pool, alternating between them in rounds, checks
// every job's outputs, and prints its metrics as the last line of
// standard output:
//
//	go run . --workload fork-tree --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// they are the per-layer ledger, and the benchmark's own spans are
// written under --out. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"lcws"
	"lcws/pbbs"
)

// processStart is taken before main runs, so setup_s includes package
// initialisation.
var processStart = time.Now()

// workload is one benchmark input set.
type workload struct {
	name string
	// gen builds the inputs from the seed (the workload.gen_s layer).
	gen func(b *run) error
	// round runs round r's jobs on p. Every round is the same for both
	// pools, so the two policies see identical work.
	round func(b *run, p *pool, r int)
	// warm is the number of untimed rounds run on each pool first.
	warm int
}

var workloads = map[string]*workload{
	"pbbs-suite":  pbbsWorkload(),
	"fork-tree":   forkWorkload(defaultForkTree()),
	"served-open": servedWorkload(),
}

// run is one process's benchmark state.
type run struct {
	seed    uint64
	workers int
	tr      *tracer // nil unless the phase is traced

	attempted, failed int    // every job of the process, warm-up included
	jobSeq            uint64 // numbers the jobs for their spans

	insts []*pbbs.Job // pbbs-suite only, indexed like pbbsList
}

// record counts one attempted job and whether it failed, printing the
// reason for a failure.
func (b *run) record(p *pool, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Printf("check %s: job failed: %v\n", p.name, err)
	}
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: pbbs-suite, fork-tree or served-open")
		seed    = flag.Uint64("seed", 1, "seed for victim selection, job sizes and the arrival schedule")
		seconds = flag.Float64("seconds", 20, "length of the measured phase")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an untraced and a traced phase")
		workers = flag.Int("workers", 2, "workers per pool")
		out     = flag.String("out", "perfbench-out", "directory for the traced run's span files")
		ref     = flag.Bool("reference", false, "print the reference figures (sequential and goroutine baselines) instead of running a workload")
	)
	flag.Parse()
	if *ref {
		if err := reference(*seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w := workloads[*name]
	if w == nil || *seconds <= 0 || *workers < 1 || *workers > maxWorkers || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, workers %d, trace %d)\n", *name, *seconds, *workers, *traced)
		os.Exit(2)
	}
	b := &run{seed: *seed, workers: *workers}
	res, err := b.execute(w, time.Duration(*seconds*float64(time.Second)), *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs the workload and returns the result line.
func (b *run) execute(w *workload, d time.Duration, traced bool, out string) (*result, error) {
	res := &result{Correct: true, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	checkModel := func(pools []*pool) {
		for _, p := range pools {
			if !p.modelOK {
				fmt.Printf("check %s: counting model violated: %s\n", p.name, p.modelAt)
				res.Correct = false
			}
		}
	}

	t := time.Now()
	if err := w.gen(b); err != nil {
		return nil, err
	}
	genS := time.Since(t).Seconds()
	pools := b.startPools(w, false)
	setupS := time.Since(processStart).Seconds()

	if !traced {
		b.measure(w, pools, d)
		checkModel(pools)
		for _, p := range pools {
			endToEnd(p, put)
		}
		printLatency(w, pools)
		for _, p := range pools {
			p.reset() // the ledger is not part of the heap being measured
		}
		for name, mb := range liveHeap(pools) {
			put("live_heap_mb."+name, mb, "MB")
		}
		put("setup_s", setupS, "s")
	} else {
		// The per-layer counts come from an untraced phase, the latency
		// medians from a traced one on freshly built traced pools; the
		// ratio of their throughputs is the tracing overhead.
		b.measure(w, pools, d/2)
		closePools(pools)
		b.tr = newTracer()
		tpools := b.startPools(w, true)
		b.measure(w, tpools, d/2)
		closePools(tpools)
		checkModel(append(pools, tpools...))
		put("workload.gen_s", genS, "s")
		// The generator serves both pools; its lateness is one figure.
		put("generator.late_us", median(append(append([]float64(nil), pools[0].lateUs...), pools[1].lateUs...)), "us")
		for i, p := range pools {
			perLayer(p, tpools[i], put)
		}
		put("trace.overhead", ratio(execRate(pools), execRate(tpools)), "ratio")
		put("trace.drops", float64(tpools[0].st.TraceDrops+tpools[1].st.TraceDrops), "count")
		if msg := dequeFloor(b.tr, put); msg != "" {
			fmt.Println("check deque:", msg)
			res.Correct = false
		}
		path, ls, err := b.tr.write(out, w.name, b.seed)
		if err != nil {
			return nil, err
		}
		fmt.Printf("spans written to %s; self time by layer:\n", path)
		for _, l := range ls {
			fmt.Printf("  %-34s n=%-7d total %10.1f ms  self %10.1f ms\n", l.Name, l.Count, l.TotalMs, l.SelfMs)
		}
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	return res, nil
}

// startPools builds the WS and Signal pools, runs the warm-up rounds
// on each and clears their ledgers.
func (b *run) startPools(w *workload, traced bool) []*pool {
	pools := []*pool{
		newPool("ws", lcws.WS, b.workers, b.seed, traced),
		newPool("signal", lcws.SignalLCWS, b.workers, b.seed, traced),
	}
	tr := b.tr
	b.tr = nil // warm-up jobs are not traced
	for r := 0; r < w.warm; r++ {
		for _, p := range pools {
			w.round(b, p, -1-r)
		}
	}
	b.tr = tr
	for _, p := range pools {
		p.reset()
	}
	return pools
}

// measure runs whole rounds until d has passed, alternating which pool
// goes first so drift on the host hits both alike.
func (b *run) measure(w *workload, pools []*pool, d time.Duration) {
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < d; r++ {
		for i := range pools {
			w.round(b, pools[(i+r)%len(pools)], r)
		}
	}
}

func closePools(pools []*pool) {
	for _, p := range pools {
		_ = p.s.Close() // Close always returns nil
	}
}

// execRate is jobs per second of job execution (JobStats.Duration),
// which on the open-loop workload is not pinned to the offered rate.
func execRate(pools []*pool) float64 {
	var jobs int
	var wall time.Duration
	for _, p := range pools {
		jobs += p.jobs
		wall += p.jobWall
	}
	return ratio(float64(jobs), wall.Seconds())
}

// liveHeap returns, per pool, the live heap with that pool resident and
// the other closed: the heap with both resident, less what closing the
// other pool released.
func liveHeap(pools []*pool) map[string]float64 {
	heap := func() float64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	both := heap()
	_ = pools[0].s.Close()
	pools[0].s = nil
	second := heap()
	_ = pools[1].s.Close()
	pools[1].s = nil
	none := heap()
	return map[string]float64{
		pools[0].name: none + both - second,
		pools[1].name: second,
	}
}

// endToEnd reports p's end-to-end metrics.
func endToEnd(p *pool, put func(string, float64, string)) {
	put("jobs_per_s."+p.name, ratio(float64(p.jobs), p.busy.Seconds()), "1/s")
	put("job_p50_ms."+p.name, median(p.latMs), "ms")
	put("cpu_ms_per_job."+p.name, ratio(float64(p.cpu.Microseconds())/1000, float64(p.jobs)), "ms")
}

// printLatency prints the quartiles of job latency and, except on
// pbbs-suite, the highest percentile of job latency with at
// least ten samples beyond it; it is reported, not gated.
func printLatency(w *workload, pools []*pool) {
	for _, p := range pools {
		fmt.Printf("latency %s %s: p25 %.3f ms, median %.3f ms, p75 %.3f ms over %d jobs",
			w.name, p.name, percentile(p.latMs, 25), median(p.latMs), percentile(p.latMs, 75), len(p.latMs))
		if pct, ok := tailPercentile(len(p.latMs)); ok && w.name != "pbbs-suite" {
			fmt.Printf("; p%g %.3f ms", pct, percentile(p.latMs, pct))
		}
		if len(p.lateUs) > 0 {
			fmt.Printf("; generator late: median %.1f us, max %.1f us", median(p.lateUs), percentile(p.lateUs, 100))
		}
		fmt.Println()
	}
}

// perLayer reports the per-layer ledger of one policy: counts from the
// untraced pool u, latency medians from the traced pool t.
func perLayer(u, t *pool, put func(string, float64, string)) {
	n := u.name
	jobs := float64(u.jobs)
	tasks := float64(u.tasks)
	st := u.st
	for i, in := range pbbsList {
		put("pbbs."+in.metric+".run_ms."+n, median(u.instMs[i]), "ms")
	}
	put("core.ns_per_task."+n, ratio(float64(u.jobWall.Nanoseconds()), tasks), "ns")
	put("core.allocs_per_task."+n, ratio(float64(u.rt.allocs), tasks), "count")
	put("counters.fences_per_task."+n, ratio(float64(st.Fences), tasks), "count")
	put("counters.cas_per_task."+n, ratio(float64(st.CAS), tasks), "count")
	put("core.steals_per_job."+n, ratio(float64(st.StealSuccesses), jobs), "count")
	put("core.steal_hit_ratio."+n, ratio(float64(st.StealSuccesses), float64(st.StealAttempts)), "ratio")
	if u.policy == lcws.SignalLCWS {
		put("core.signal_handled_ratio."+n, ratio(float64(st.SignalsHandled), float64(st.SignalsSent)), "ratio")
		put("core.exposed_unstolen_ratio."+n, ratio(float64(st.ExposedNotStolen), float64(st.Exposures)), "ratio")
		put("core.signal_to_handle_us."+n, float64(t.st.SignalToHandle.Quantile(0.5))/1e3, "us")
		put("core.flag_to_exposure_us."+n, float64(t.st.FlagToExposure.Quantile(0.5))/1e3, "us")
	}
	put("core.idle_iters_per_job."+n, ratio(float64(st.IdleIterations), jobs), "count")
	put("core.parked_ms_per_job."+n, ratio(float64(st.ParkedNanos)/1e6, jobs), "ms")
	put("core.submit_us."+n, median(u.submitUs), "us")
	for _, c := range []struct {
		class string
		h     lcws.Histogram
	}{{"high", st.InjectorWaitHigh}, {"normal", st.InjectorWaitNormal}, {"low", st.InjectorWaitLow}} {
		put("injector.wait_us."+c.class+"."+n, float64(c.h.Quantile(0.5))/1e3, "us")
	}
	put("core.wait_return_us."+n, median(u.waitRetUs), "us")
	put("core.freelist_refills_per_job."+n, ratio(float64(st.FreelistRefills), jobs), "count")
	put("core.freelist_returns_per_job."+n, ratio(float64(st.FreelistReturns), jobs), "count")
	put("core.deque_grows."+n, float64(st.DequeGrows), "count")
	put("runtime.alloc_kb_per_job."+n, ratio(float64(u.rt.allocBytes)/1024, jobs), "KB")
	put("runtime.gc_per_job."+n, ratio(float64(u.rt.gcs), jobs), "count")
	put("core.steal_to_hit_us."+n, float64(t.st.StealToHit.Quantile(0.5))/1e3, "us")
	put("core.park_us."+n, float64(t.st.ParkDuration.Quantile(0.5))/1e3, "us")
}
