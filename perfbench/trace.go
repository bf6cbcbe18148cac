package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the public function it calls. Spans of one cell or one job
// share a Trace id; Parent is the span that caused this one (0 for a
// root). Times are nanoseconds since the recorder started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil recorder).
func (r *recorder) add(trace, name string, parent int64, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Trace: trace, Name: name,
		Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)),
	})
	return id
}

// reparent links the trace's parentless spans of one name to parent,
// for children recorded before their parent's span could be.
func (r *recorder) reparent(trace, name string, parent int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if s := &r.spans[i]; s.Trace == trace && s.Name == name && s.Parent == 0 {
			s.Parent = parent
		}
	}
}

// layerTime is a span name's total and self time: self is the total
// minus the part of each span's interval that its child spans cover.
type layerTime struct {
	Name        string  `json:"name"`
	Count       int     `json:"count"`
	TotalMS     float64 `json:"total_ms"`
	SelfMS      float64 `json:"self_ms"`
	MedianMS    float64 `json:"median_ms"`
	MedianSelfM float64 `json:"median_self_ms"`
}

// layers folds the spans into per-name totals and self times, sorted by
// name. Children of one span are assumed not to overlap each other,
// which holds for the benchmark's sequential call sites.
func (r *recorder) layers() []layerTime {
	r.mu.Lock()
	defer r.mu.Unlock()
	child := make(map[int64]time.Duration)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	type acc struct {
		total, self []float64
	}
	byName := make(map[string]*acc)
	for _, s := range r.spans {
		a := byName[s.Name]
		if a == nil {
			a = &acc{}
			byName[s.Name] = a
		}
		d := s.dur()
		self := d - child[s.ID]
		if self < 0 {
			self = 0
		}
		a.total = append(a.total, ms(d))
		a.self = append(a.self, ms(self))
	}
	out := make([]layerTime, 0, len(byName))
	for name, a := range byName {
		out = append(out, layerTime{
			Name: name, Count: len(a.total),
			TotalMS: sum(a.total), SelfMS: sum(a.self),
			MedianMS: median(a.total), MedianSelfM: median(a.self),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// write saves every span and the per-layer summary as one JSON file.
func (r *recorder) write(path string) error {
	lt := r.layers()
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		Layers []layerTime `json:"layers"`
		Spans  []span      `json:"spans"`
	}{lt, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
