package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Span is one timed call in a traced replay. Spans of one request share
// Req; Parent is the index of the enclosing span, -1 for a root.
type Span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory around calls the single-goroutine
// replay makes into each layer. When off, begin and end only keep the
// nesting bookkeeping, so a traced and an untraced pass make the same
// calls and their difference is the tracing overhead.
type tracer struct {
	on    bool
	epoch time.Time
	req   int
	spans []Span
	open  []int
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// request starts a new request id for the spans that follow.
func (t *tracer) request(id int) { t.req = id }

func (t *tracer) begin(name string) int {
	if !t.on {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, Span{Name: name, Req: t.req, Parent: parent, Start: int64(time.Since(t.epoch))})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// SpanSummary aggregates one span name: how often it ran, its total
// time, and its self time (duration minus the part its children cover).
type SpanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summarizeSpans computes per-name totals and self times. Children of
// one span never overlap (the replay is sequential), so the time they
// cover is the sum of their durations. The self time of root spans is
// the unattributed remainder, reported under "unattributed".
func summarizeSpans(spans []Span) []SpanSummary {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*SpanSummary{}
	add := func(name string, total, self int64) {
		a := by[name]
		if a == nil {
			a = &SpanSummary{Name: name}
			by[name] = a
		}
		a.Count++
		a.TotalMs += float64(total) / 1e6
		a.SelfMs += float64(self) / 1e6
	}
	for i, s := range spans {
		d := s.End - s.Start
		self := d - child[i]
		if s.Parent < 0 {
			add("unattributed", self, self)
			add(s.Name, d, 0)
			continue
		}
		add(s.Name, d, self)
	}
	out := make([]SpanSummary, 0, len(by))
	for _, k := range sortedKeys(by) {
		out = append(out, *by[k])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].SelfMs > out[j].SelfMs })
	return out
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
