package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// workload request share its index in Req; spans of calls that serve
// no single request carry -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Rows   int    `json:"rows,omitempty"` // work items the call covered
}

// tracer keeps spans in memory until write. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	return id
}

// end closes span id, recording how many rows the call covered.
func (t *tracer) end(id, rows int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End, t.spans[id-1].Rows = now, rows
	t.mu.Unlock()
}

// record adds a finished span measured elsewhere.
func (t *tracer) record(name string, parent, req int, from, to time.Time, rows int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: from.Sub(t.epoch).Nanoseconds(), End: to.Sub(t.epoch).Nanoseconds(), Rows: rows})
	t.mu.Unlock()
}

// timed runs f inside a span and returns f's error.
func (t *tracer) timed(name string, parent, req, rows int, f func() error) error {
	id := t.start(name, parent, req)
	err := f()
	t.end(id, rows)
	return err
}

// layer aggregates the spans named name.
type layer struct {
	calls int
	rows  int
	busy  time.Duration
}

func (t *tracer) layer(name string) layer {
	var l layer
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			l.calls++
			l.rows += s.Rows
			l.busy += time.Duration(s.End - s.Start)
		}
	}
	return l
}

// perCall is the mean span duration in microseconds.
func (l layer) perCall() float64 {
	if l.calls == 0 {
		return 0
	}
	return l.busy.Seconds() * 1e6 / float64(l.calls)
}

// perRow is the span time per row covered, in microseconds.
func (l layer) perRow() float64 {
	if l.rows == 0 {
		return 0
	}
	return l.busy.Seconds() * 1e6 / float64(l.rows)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
