package main

import (
	"errors"
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"

	"lcws"
	"lcws/internal/counters"
)

// pool is one resident scheduler under test together with the ledger
// of everything measured on it during the measured phase.
type pool struct {
	name   string // metric suffix: "ws" or "signal"
	policy lcws.Policy
	s      *lcws.Scheduler

	jobs      int
	busy      time.Duration // closed loop: summed job wall time; open loop: summed segment windows
	jobWall   time.Duration // sum of JobStats.Duration (submission to settlement)
	cpu       time.Duration // process user+sys CPU inside busy
	tasks     uint64        // sum of JobStats.Tasks
	latMs     []float64     // per-job latency
	submitUs  []float64     // time inside Submit
	waitRetUs []float64     // Wait return minus (submit + JobStats.Duration)
	lateUs    []float64     // open loop: generator lateness
	instMs    [][]float64   // pbbs-suite: per-instance Run time, indexed like the instance list

	st      lcws.Stats // sum of the per-segment Stats deltas
	rt      rtSample   // sum of the per-segment runtime deltas
	modelOK bool       // every segment satisfied the counting-model checks
	modelAt string     // first violation, for the diagnostic line
}

func newPool(name string, policy lcws.Policy, workers int, seed uint64, traced bool) *pool {
	opts := []lcws.Option{lcws.WithWorkers(workers), lcws.WithPolicy(policy), lcws.WithSeed(seed)}
	if traced {
		opts = append(opts, lcws.WithTrace(lcws.TraceConfig{}))
	}
	s := lcws.New(opts...)
	s.Start()
	p := &pool{name: name, policy: policy, s: s}
	p.reset()
	return p
}

// reset clears the ledger (after warm-up) without touching the pool.
func (p *pool) reset() {
	*p = pool{name: p.name, policy: p.policy, s: p.s, modelOK: true, instMs: make([][]float64, len(pbbsList))}
}

// rtSample is the part of the Go runtime's own accounting the ledger
// tracks, read through runtime/metrics (no stop-the-world, unlike
// runtime.ReadMemStats).
type rtSample struct {
	allocs, allocBytes, gcs uint64
}

var rtNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() rtSample {
	ms := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return rtSample{ms[0].Value.Uint64(), ms[1].Value.Uint64(), ms[2].Value.Uint64()}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcs - b.gcs}
}

func (a rtSample) add(b rtSample) rtSample {
	return rtSample{a.allocs + b.allocs, a.allocBytes + b.allocBytes, a.gcs + b.gcs}
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mark is a snapshot of every counter source at a segment boundary.
type mark struct {
	st  lcws.Stats
	rt  rtSample
	cpu time.Duration
}

func (p *pool) mark() mark { return mark{p.s.Stats(), readRuntime(), cpuTime()} }

// segment is the ledger of one stretch of jobs on one pool between two
// marks; close folds it into the pool after the totals checks.
type segment struct {
	p       *pool
	from    mark
	jobs    int           // jobs the benchmark itself submitted and waited for
	tasks   uint64        // sum of JobStats.Tasks over the segment's jobs
	jobWall time.Duration // sum of JobStats.Duration over the segment's jobs
}

func (p *pool) begin() *segment { return &segment{p: p, from: p.mark()} }

// close takes the closing mark and adds busy (the segment's share of
// the measured time) and the CPU time between the marks to the ledger.
// It checks two totals reached by independent paths: the scheduler's
// TasksExecuted delta against the sum of the jobs' own task counts,
// and its JobsSubmitted and JobsCompleted deltas against the
// benchmark's own job count. It reports whether they agree; the caller
// fails every job of the segment when they do not. It also checks the
// fence and CAS counts against the bounds internal/counters/model.go
// fixes.
func (g *segment) close(busy time.Duration) bool {
	p := g.p
	to := p.mark()
	d := to.st.Sub(g.from.st)
	ok := d.TasksExecuted == g.tasks && d.JobsSubmitted == uint64(g.jobs) && d.JobsCompleted == uint64(g.jobs)
	if !ok {
		fmt.Printf("check %s: segment totals disagree: TasksExecuted %d vs sum of JobStats.Tasks %d, JobsSubmitted %d, JobsCompleted %d vs %d jobs\n",
			p.name, d.TasksExecuted, g.tasks, d.JobsSubmitted, d.JobsCompleted, g.jobs)
	}
	if msg := modelCheck(p.policy, d); msg != "" && p.modelOK {
		p.modelOK, p.modelAt = false, msg
	}
	p.busy += busy
	p.cpu += to.cpu - g.from.cpu
	p.jobs += g.jobs
	p.tasks += g.tasks
	p.jobWall += g.jobWall
	p.st = addStats(p.st, d)
	p.rt = p.rt.add(to.rt.sub(g.from.rt))
	return ok
}

// modelCheck returns a description of the first counting-model bound
// the Stats delta d of a default-mode (single-steal) scheduler
// violates, or "" when it satisfies them all.
//
//   - WS: every pushed task leaves the deque through exactly one
//     pop_bottom or successful pop_top, each of which costs at least one
//     fence, and every successful steal costs one CAS.
//   - Signal: fences are paid only by pop_public_bottom, which consumes
//     one exposed task per call and costs at most
//     LCWSPopPublicEmptyFences; with nothing exposed there is nothing to
//     steal or race for, so fences and CAS are both exactly zero.
func modelCheck(pol lcws.Policy, d lcws.Stats) string {
	switch pol {
	case lcws.WS:
		pushed := d.TasksPushed - d.TasksSpilled
		if want := (counters.WSPushFences + counters.WSPopFences) * pushed; d.Fences < want {
			return fmt.Sprintf("WS fences %d < %d for %d pushed tasks", d.Fences, want, pushed)
		}
		if want := counters.WSStealCAS * d.StealSuccesses; d.CAS < want {
			return fmt.Sprintf("WS CAS %d < %d for %d steals", d.CAS, want, d.StealSuccesses)
		}
	case lcws.SignalLCWS:
		if d.Exposures == 0 && (d.Fences != 0 || d.CAS != 0) {
			return fmt.Sprintf("Signal with no exposure paid %d fences and %d CAS", d.Fences, d.CAS)
		}
		if limit := counters.LCWSPopPublicEmptyFences * d.Exposures; d.Fences > limit {
			return fmt.Sprintf("Signal fences %d > %d for %d exposures", d.Fences, limit, d.Exposures)
		}
		if want := counters.LCWSStealCAS * d.StealSuccesses; d.CAS < want {
			return fmt.Sprintf("Signal CAS %d < %d for %d steals", d.CAS, want, d.StealSuccesses)
		}
	}
	return ""
}

// addStats sums the Stats fields the ledger reports.
func addStats(a, b lcws.Stats) lcws.Stats {
	a.Fences += b.Fences
	a.CAS += b.CAS
	a.StealAttempts += b.StealAttempts
	a.StealSuccesses += b.StealSuccesses
	a.Exposures += b.Exposures
	a.ExposedNotStolen += b.ExposedNotStolen
	a.SignalsSent += b.SignalsSent
	a.SignalsHandled += b.SignalsHandled
	a.IdleIterations += b.IdleIterations
	a.ParkedNanos += b.ParkedNanos
	a.TasksExecuted += b.TasksExecuted
	a.TasksPushed += b.TasksPushed
	a.FreelistRefills += b.FreelistRefills
	a.FreelistReturns += b.FreelistReturns
	a.DequeGrows += b.DequeGrows
	a.TraceDrops += b.TraceDrops
	a.InjectorWaitHigh = a.InjectorWaitHigh.Add(b.InjectorWaitHigh)
	a.InjectorWaitNormal = a.InjectorWaitNormal.Add(b.InjectorWaitNormal)
	a.InjectorWaitLow = a.InjectorWaitLow.Add(b.InjectorWaitLow)
	a.StealToHit = a.StealToHit.Add(b.StealToHit)
	a.SignalToHandle = a.SignalToHandle.Add(b.SignalToHandle)
	a.FlagToExposure = a.FlagToExposure.Add(b.FlagToExposure)
	a.ParkDuration = a.ParkDuration.Add(b.ParkDuration)
	return a
}

var errTotals = errors.New("scheduler totals disagree with the jobs' own counts")

// jobSpans are one job's spans, reserved before the job is built so
// that spans recorded inside the job can name their parent.
type jobSpans struct {
	job             uint64
	top, run, check int
}

func (b *run) jobSpans(p *pool) jobSpans {
	b.jobSeq++
	return jobSpans{b.jobSeq, b.tr.reserve("job." + p.name), b.tr.reserve("job.run"), b.tr.reserve("check")}
}

// closedJob runs root as one job on p, the only job in flight, and
// records it in p's ledger. check inspects the job's outputs after
// Wait returns, outside the timed interval, and returns an error for a
// wrong output. closedJob fills in sp.
func (b *run) closedJob(p *pool, sp jobSpans, root func(*lcws.Ctx), check func(lcws.JobStats) error) {
	g := p.begin()
	t0 := time.Now()
	j := p.s.Submit(root)
	t1 := time.Now()
	err := j.Wait()
	t2 := time.Now()
	js := j.Stats()
	g.jobs, g.tasks, g.jobWall = 1, js.Tasks, js.Duration
	totalsOK := g.close(t2.Sub(t0))
	settled := t0.Add(js.Duration)
	p.latMs = append(p.latMs, float64(t2.Sub(t0).Nanoseconds())/1e6)
	p.submitUs = append(p.submitUs, float64(t1.Sub(t0).Nanoseconds())/1e3)
	p.waitRetUs = append(p.waitRetUs, float64(t2.Sub(settled).Nanoseconds())/1e3)

	tc := time.Now()
	if err == nil {
		err = check(js)
	}
	if err == nil && !totalsOK {
		err = errTotals
	}
	te := time.Now()
	b.tr.fill(sp.top, -1, sp.job, t0, te)
	b.tr.add("core.submit", sp.top, sp.job, t0, t1)
	b.tr.fill(sp.run, sp.top, sp.job, t1, settled)
	b.tr.add("core.wait_return", sp.top, sp.job, settled, t2)
	b.tr.fill(sp.check, sp.top, sp.job, tc, te)
	b.record(p, err)
}
