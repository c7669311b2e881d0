package main

import (
	"fmt"
	"time"

	"lcws"
	"lcws/pbbs"
)

// pbbsSpec names one instance of the pass and the input scale that
// sizes it to 5-30 ms of single-worker time, so that no kernel takes
// most of a pass. The instances fix their own input seeds.
type pbbsSpec struct {
	bench, input string
	scale        pbbs.Scale
	metric       string // the instance's part of its per-layer metric name
}

// pbbsList mixes regular ParFor kernels (integerSort, histogram) with
// irregular recursive and frontier ones.
var pbbsList = []pbbsSpec{
	{"integerSort", "randomSeq_int", 1, "integerSort"},
	{"histogram", "randomSeq_256_int", 16, "histogram"},
	{"comparisonSort", "randomSeq_double", 1, "comparisonSort"},
	{"breadthFirstSearch", "rMatGraph", 1, "bfs"},
	{"suffixArray", "trigramString", 0.7, "suffixArray"},
	{"minSpanningForest", "rMatGraph", 0.3, "msf"},
	{"convexHull", "2DinSphere", 1, "convexHull"},
	{"nBody", "3Dplummer_barnesHut", 0.25, "barnesHut"},
}

// preparePbbs generates every instance's input.
func preparePbbs() ([]*pbbs.Job, error) {
	jobs := make([]*pbbs.Job, len(pbbsList))
	for i, sp := range pbbsList {
		in, err := pbbs.Find(sp.scale, sp.bench, sp.input)
		if err != nil {
			return nil, err
		}
		jobs[i] = in.Prepare()
	}
	return jobs, nil
}

// pbbsWorkload runs one pass per job: a single root that calls each
// instance's Run in turn. The instances' own Verify, each against an
// independent sequential reference, checks every pass.
func pbbsWorkload() *workload {
	return &workload{
		name: "pbbs-suite",
		gen: func(b *run) error {
			jobs, err := preparePbbs()
			b.insts = jobs
			return err
		},
		round: func(b *run, p *pool, r int) {
			n := len(b.insts)
			starts, ends := make([]time.Time, n), make([]time.Time, n)
			sp := b.jobSpans(p)
			b.closedJob(p, sp, func(ctx *lcws.Ctx) {
				for i, j := range b.insts {
					starts[i] = time.Now()
					j.Run(ctx)
					ends[i] = time.Now()
				}
			}, func(lcws.JobStats) error {
				for i, j := range b.insts {
					name := "pbbs." + pbbsList[i].metric
					b.tr.add(name+".run", sp.run, sp.job, starts[i], ends[i])
					t := time.Now()
					err := j.Verify()
					b.tr.add(name+".verify", sp.check, sp.job, t, time.Now())
					if err != nil {
						return fmt.Errorf("%s/%s: %w", pbbsList[i].bench, pbbsList[i].input, err)
					}
				}
				return nil
			})
			for i := range b.insts {
				p.instMs[i] = append(p.instMs[i], float64(ends[i].Sub(starts[i]).Nanoseconds())/1e6)
			}
		},
		warm: 1,
	}
}
