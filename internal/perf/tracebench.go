package perf

import (
	"runtime"
	"sort"

	"lcws"
)

// TraceOverheadGate is the maximum allowed slowdown of the fork path
// with the flight recorder enabled: traced NormPerFork may be at most
// 15% above untraced on the pfor-sum workload. The gate runs on
// pfor-sum rather than spawn-tree because the recorder's contract is
// bounded *relative* overhead on workloads that do real work per split;
// spawn-tree's empty bodies make ns/fork so small that two ring stores
// per event dominate it, which is not the regression the gate protects
// against (DESIGN.md §9 reports both numbers).
const TraceOverheadGate = 1.15

// TraceAllocGate is the maximum allowed heap allocations per recorded
// trace event over whole traced Run calls. Recording into the ring is
// allocation-free; the budget absorbs the per-Run pprof-label setup.
const TraceAllocGate = 0.01

// TraceOverhead is the measurement document of the enabled-tracing
// overhead gate.
type TraceOverhead struct {
	// Bench is the gated workload ("pfor-sum").
	Bench string `json:"bench"`
	// Policy is the measured policy's figure label.
	Policy string `json:"policy"`
	// UntracedNorm and TracedNorm are the best-repetition
	// load-normalized ns/fork without and with the flight recorder
	// (same estimator as Result.NormPerFork).
	UntracedNorm float64 `json:"untraced_norm_per_fork"`
	TracedNorm   float64 `json:"traced_norm_per_fork"`
	// Ratio is TracedNorm / UntracedNorm — the number the gate bounds.
	Ratio float64 `json:"ratio"`
	// NsPerForkUntraced/Traced are the raw counterparts (informational).
	NsPerForkUntraced float64 `json:"ns_per_fork_untraced"`
	NsPerForkTraced   float64 `json:"ns_per_fork_traced"`
	// EventsPerRound is how many flight-recorder events one traced Run
	// of the spawn tree records; AllocsPerEvent is heap allocations per
	// recorded event over those Runs.
	EventsPerRound float64 `json:"events_per_round"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// Rounds and Reps record the methodology parameters.
	Rounds int `json:"rounds"`
	Reps   int `json:"reps"`
}

// tracedPForSum is MeasurePForSum on a scheduler with the flight
// recorder enabled.
func tracedPForSum(pol lcws.Policy, rounds, reps int) Result {
	s := lcws.New(lcws.WithWorkers(1), lcws.WithPolicy(pol), lcws.WithTrace(lcws.TraceConfig{}))
	data := make([]int64, PForSumN)
	for i := range data {
		data[i] = int64(i)
	}
	var acc int64
	body := func(_ *lcws.Ctx, i int) { acc += data[i] }
	root := func(ctx *lcws.Ctx) { lcws.ParFor(ctx, 0, PForSumN, PForSumGrain, body) }
	return measure(newForkBench(s, "pfor-sum", rounds, reps, func() { s.Run(root) }))[0]
}

// traceEventTotal counts every event the scheduler's recorder has
// accepted so far: the ring's surviving events plus everything that
// wrapped out. Both terms come from the same snapshot, so the sum is
// monotonic across calls and deltas count events recorded in between.
func traceEventTotal(s *lcws.Scheduler) uint64 {
	tr := s.TraceSnapshot()
	return tr.Dropped + uint64(len(tr.Events))
}

// measureTraceAllocs runs the traced spawn tree and reports heap
// allocations per recorded event and events per Run. The snapshots
// bracketing the timed window allocate on the reader side, so the
// malloc readings are taken strictly inside the bracket.
func measureTraceAllocs(pol lcws.Policy, rounds int) (allocsPerEvent, eventsPerRound float64) {
	if rounds <= 0 {
		rounds = DefaultRounds
	}
	s := lcws.New(lcws.WithWorkers(1), lcws.WithPolicy(pol), lcws.WithTrace(lcws.TraceConfig{}))
	root := func(ctx *lcws.Ctx) { lcws.ParFor(ctx, 0, SpawnTreeN, 1, noopBody) }
	s.Run(root) // warm-up: freelists, ring pages, label sets
	before := traceEventTotal(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	for r := 0; r < rounds; r++ {
		s.Run(root)
	}
	runtime.ReadMemStats(&ms)
	mallocs = ms.Mallocs - mallocs
	events := traceEventTotal(s) - before
	if events == 0 {
		return 0, 0
	}
	return float64(mallocs) / float64(events), float64(events) / float64(rounds)
}

// MeasureTraceOverhead measures the enabled-tracing cost the gate
// bounds: the traced/untraced load-normalized fork-cost ratio on
// pfor-sum under SignalLCWS (the policy with the richest hook set), and
// allocations per recorded event on the traced spawn tree. Zero
// rounds/reps select the defaults.
//
// The two sides are measured as adjacent (untraced, traced) pairs and
// the reported ratio is the MEDIAN pair's: shared containers show
// multi-second degradation episodes, and with all untraced reps timed
// before all traced ones a single episode lands on only one side and
// fakes (or hides) overhead. Pairing keeps the two halves temporally
// adjacent so an episode tends to hit both or neither, and the median
// discards the pairs where it straddled the boundary — without the
// systematic optimism a min would have (the min pair is the one whose
// noise most favored the traced half).
func MeasureTraceOverhead(rounds, reps int) TraceOverhead {
	if reps <= 0 {
		reps = DefaultReps
	}
	pol := lcws.SignalLCWS
	pairs := make([]TraceOverhead, 0, reps)
	for rep := 0; rep < reps; rep++ {
		untraced := MeasurePForSum(pol, rounds, 1)
		traced := tracedPForSum(pol, rounds, 1)
		if untraced.NormPerFork == 0 || traced.NormPerFork == 0 {
			continue
		}
		pairs = append(pairs, TraceOverhead{
			Bench:             "pfor-sum",
			Policy:            pol.String(),
			Ratio:             traced.NormPerFork / untraced.NormPerFork,
			UntracedNorm:      untraced.NormPerFork,
			TracedNorm:        traced.NormPerFork,
			NsPerForkUntraced: untraced.NsPerFork,
			NsPerForkTraced:   traced.NsPerFork,
			Rounds:            traced.Rounds,
			Reps:              reps,
		})
	}
	var out TraceOverhead
	if len(pairs) > 0 {
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].Ratio < pairs[j].Ratio })
		out = pairs[len(pairs)/2]
	} else {
		out = TraceOverhead{Bench: "pfor-sum", Policy: pol.String()}
	}
	out.AllocsPerEvent, out.EventsPerRound = measureTraceAllocs(pol, rounds)
	return out
}
