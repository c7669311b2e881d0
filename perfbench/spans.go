package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark spent inside a call into a layer
// of the program. Spans of one job share Job; Parent is the index of
// the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Job    uint64 `json:"job"`
}

// tracer keeps the traced run's spans in memory until the run ends.
// A nil *tracer records nothing, so untraced runs pay one nil check
// per span.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a finished span and returns its index.
func (t *tracer) add(name string, parent int, job uint64, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, t.span(name, parent, job, start, end))
	return len(t.spans) - 1
}

// span builds a span, clamping an end estimated before its start (a
// settle time derived from JobStats.Duration can precede the return of
// Submit) to an empty interval.
func (t *tracer) span(name string, parent int, job uint64, start, end time.Time) span {
	s, e := start.Sub(t.origin).Nanoseconds(), end.Sub(t.origin).Nanoseconds()
	return span{name, s, max(s, e), parent, job}
}

// reserve records a span whose interval and place are not known yet,
// so that children can name it as their parent before it ends; fill
// completes it.
func (t *tracer) reserve(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: -1})
	return len(t.spans) - 1
}

func (t *tracer) fill(id, parent int, job uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id] = t.span(t.spans[id].Name, parent, job, start, end)
}

// layer is the aggregate of every span of one name.
type layer struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	// SelfMs is the total minus the part of each span's interval that
	// its child spans cover.
	SelfMs float64 `json:"self_ms"`
}

// layers returns the per-name totals and self times, sorted by self
// time, largest first.
func layers(spans []span) []layer {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*layer{}
	var out []*layer
	for i, s := range spans {
		l := byName[s.Name]
		if l == nil {
			l = &layer{Name: s.Name}
			byName[s.Name] = l
			out = append(out, l)
		}
		dur := s.End - s.Start
		l.Count++
		l.TotalMs += float64(dur) / 1e6
		l.SelfMs += float64(dur-covered(children[i], s.Start, s.End)) / 1e6
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].SelfMs > out[b].SelfMs })
	res := make([]layer, len(out))
	for i, l := range out {
		res[i] = *l
	}
	return res
}

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write stores the spans and the per-layer self times as JSON under
// dir and returns the file's path.
func (t *tracer) write(dir, workload string, seed uint64) (string, []layer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ls := layers(t.spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", nil, fmt.Errorf("trace output: %w", err)
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Layers   []layer `json:"layers"`
		Spans    []span  `json:"spans"`
	}{workload, seed, ls, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", nil, fmt.Errorf("trace output %s: %w", path, err)
	}
	return path, ls, nil
}
