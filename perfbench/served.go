package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"lcws"
)

// The served load: each round offers servedJobs small jobs to one pool
// at servedRate, split over the classes in servedMix proportions. The
// rate is one both policies sustain without a growing backlog on two
// workers, so a round's window stays servedJobs/servedRate long.
const (
	servedRate = 1000.0 // jobs per second
	servedJobs = 500    // jobs per round
	servedFib  = 12     // fib sizes are servedFib..servedFib+2
	servedSum  = 256    // ParFor lengths are servedSum..2*servedSum-1
)

// servedMix is the number of High, Normal and Low jobs in every group
// of four consecutive jobs of the deck.
var servedMix = [lcws.NumJobClasses]int{1, 2, 1}

type arrival struct {
	at    time.Duration // due time, from the round's start
	class lcws.JobClass
	n, m  int
}

// servedSchedule returns round r's arrivals, drawn from the seed: a
// Poisson process conditioned on servedJobs arrivals in the window
// (sorted uniform due times), classes in exact servedMix proportions
// in shuffled order, and job sizes drawn per job.
func servedSchedule(seed uint64, r int) []arrival {
	rng := rand.New(rand.NewSource(int64(seed*2_000_003) + int64(r)))
	window := float64(servedJobs) / servedRate * float64(time.Second)
	arr := make([]arrival, servedJobs)
	ats := make([]float64, servedJobs)
	for i := range ats {
		ats[i] = rng.Float64() * window
	}
	sort.Float64s(ats)
	var classes []lcws.JobClass
	for len(classes) < servedJobs {
		for c, k := range servedMix {
			for ; k > 0; k-- {
				classes = append(classes, lcws.JobClass(c))
			}
		}
	}
	rng.Shuffle(servedJobs, func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	for i := range arr {
		arr[i] = arrival{time.Duration(ats[i]), classes[i], servedFib + rng.Intn(3), servedSum + rng.Intn(servedSum)}
	}
	return arr
}

// servedRecord is what the generator and a job's waiter learn about
// one request.
type servedRecord struct {
	due, start, submitted, returned time.Time // start: Submit called; submitted: Submit returned
	err                             error
	js                              lcws.JobStats
	fib                             int
	sum                             int64
}

// sleepUntil blocks the generator until due. On a 2-vCPU x86-64 Linux
// VM time.Sleep overshot sleeps of 20 us to 1.5 ms by 0.6 to 1 ms,
// which would make every request late by about that much, while
// nanosleep(2) on the calling thread overshot by 60 to 100 us; the
// last stretch is spun out, yielding to the workers.
func sleepUntil(due time.Time) {
	const spin = 100 * time.Microsecond
	if d := time.Until(due) - spin; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep ends early; the spin covers the rest
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

func servedWorkload() *workload {
	return &workload{
		name: "served-open",
		gen:  func(*run) error { return nil },
		round: func(b *run, p *pool, r int) {
			arr := servedSchedule(b.seed, r)
			recs := make([]servedRecord, len(arr))
			var wg sync.WaitGroup
			g := p.begin()
			begin := time.Now()
			for i := range arr {
				a, rec := &arr[i], &recs[i]
				rec.due = begin.Add(a.at)
				sleepUntil(rec.due)
				rec.start = time.Now()
				j := p.s.Submit(func(ctx *lcws.Ctx) {
					rec.fib = fib(ctx, a.n)
					rec.sum = parSum(ctx, a.m)
				}, lcws.WithJobPriority(a.class))
				rec.submitted = time.Now()
				wg.Add(1)
				go func() {
					defer wg.Done()
					rec.err = j.Wait()
					rec.returned = time.Now()
					rec.js = j.Stats()
				}()
			}
			wg.Wait()
			end := begin.Add(time.Duration(float64(servedJobs) / servedRate * float64(time.Second)))
			for i := range recs {
				if recs[i].returned.After(end) {
					end = recs[i].returned
				}
				g.tasks += recs[i].js.Tasks
				g.jobWall += recs[i].js.Duration
			}
			g.jobs = len(arr)
			totalsOK := g.close(end.Sub(begin))
			for i := range recs {
				a, rec := &arr[i], &recs[i]
				settled := rec.start.Add(rec.js.Duration)
				p.latMs = append(p.latMs, float64(rec.returned.Sub(rec.due).Nanoseconds())/1e6)
				p.lateUs = append(p.lateUs, float64(rec.start.Sub(rec.due).Nanoseconds())/1e3)
				p.submitUs = append(p.submitUs, float64(rec.submitted.Sub(rec.start).Nanoseconds())/1e3)
				p.waitRetUs = append(p.waitRetUs, float64(rec.returned.Sub(settled).Nanoseconds())/1e3)
				err := rec.err
				if err == nil {
					err = checkForkJob(a.n, a.m, rec.fib, rec.sum, rec.js.Tasks)
				}
				if err == nil && !totalsOK {
					err = errTotals
				}
				if b.tr != nil {
					b.jobSeq++
					top := b.tr.add("request."+p.name, -1, b.jobSeq, rec.due, rec.returned)
					b.tr.add("generator.late", top, b.jobSeq, rec.due, rec.start)
					b.tr.add("core.submit", top, b.jobSeq, rec.start, rec.submitted)
					b.tr.add("job.run", top, b.jobSeq, rec.submitted, settled)
					b.tr.add("core.wait_return", top, b.jobSeq, settled, rec.returned)
				}
				b.record(p, err)
			}
		},
		warm: 1,
	}
}
