package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// TracerOptions configure a Tracer. The zero value is usable.
type TracerOptions struct {
	// RingSize bounds the recent-traces ring buffer (default 64).
	RingSize int
	// SlowThreshold marks spans at or above this duration as slow:
	// they are kept in a dedicated ring and reported through SlowLogf.
	// 0 disables slow tracking.
	SlowThreshold time.Duration
	// SlowLogf, when non-nil, receives one printf-style line per slow
	// span (in addition to the slow ring). It must be safe for
	// concurrent use; log.Printf qualifies.
	SlowLogf func(format string, args ...any)
}

// Tracer collects finished spans: completed root spans (with every
// descendant that ended before them) enter a fixed-size ring of recent
// traces, and spans slower than the configured threshold additionally
// enter a slow-span ring. A Tracer is safe for concurrent use.
type Tracer struct {
	opt    TracerOptions
	nextID atomic.Uint64

	mu     sync.Mutex
	recent ring[Trace]
	slow   ring[SpanInfo]
}

// NewTracer returns a tracer with the given options.
func NewTracer(opt TracerOptions) *Tracer {
	if opt.RingSize <= 0 {
		opt.RingSize = 64
	}
	return &Tracer{
		opt:    opt,
		recent: ring[Trace]{buf: make([]Trace, 0, opt.RingSize)},
		slow:   ring[SpanInfo]{buf: make([]SpanInfo, 0, opt.RingSize)},
	}
}

// ring is a fixed-capacity circular buffer: once full, each push
// overwrites the oldest entry in place.
type ring[T any] struct {
	buf  []T // grows to cap(buf), then stays that long
	head int // index of the oldest entry once buf is full
}

func (r *ring[T]) push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	r.head = (r.head + 1) % len(r.buf)
}

// entries returns a copy of the ring, oldest first.
func (r *ring[T]) entries() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	return append(out, r.buf[:r.head]...)
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// SpanInfo is the immutable record of one finished span, JSON-ready
// for the /debug/traces and /debug/slow endpoints.
type SpanInfo struct {
	TraceID  uint64    `json:"trace_id"`
	SpanID   uint64    `json:"span_id"`
	ParentID uint64    `json:"parent_id,omitempty"`
	Name     string    `json:"name"`
	Start    time.Time `json:"start"`
	Duration int64     `json:"duration_ns"`
	Attrs    []Attr    `json:"attrs,omitempty"`
}

// Trace is one finished root span plus every descendant span that
// ended before it, in end order with the root last.
type Trace struct {
	TraceID  uint64     `json:"trace_id"`
	Root     string     `json:"root"`
	Duration int64      `json:"duration_ns"`
	Spans    []SpanInfo `json:"spans"`
}

// Span is one in-flight timed operation. A nil *Span is a valid no-op
// (StartSpan returns nil when telemetry is disabled), so callers never
// need to branch. Spans are not safe for concurrent mutation; the
// operation that started a span owns it.
type Span struct {
	tracer *Tracer
	root   *Span
	name   string
	id     uint64
	parent uint64
	trace  uint64
	start  time.Time
	attrs  []Attr

	mu    sync.Mutex // root only: guards done
	done  []SpanInfo // root only: finished descendants
	ended atomic.Bool
}

type spanCtxKey struct{}
type tracerCtxKey struct{}

// WithTracer returns a context whose spans report to t instead of the
// default tracer.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerCtxKey{}, t)
}

// TracerFrom returns the tracer carried by ctx, or the default tracer.
func TracerFrom(ctx context.Context) *Tracer {
	if t, ok := ctx.Value(tracerCtxKey{}).(*Tracer); ok {
		return t
	}
	return defaultTracer
}

// SpanFrom returns the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan begins a span named name and returns a context carrying it
// as the parent of any nested spans. The span must be ended on every
// return path; the required idiom — enforced by the spanend analyzer —
// is to follow the call immediately with a deferred End:
//
//	ctx, sp := obs.StartSpan(ctx, "kde.DensityBatch")
//	defer sp.End()
//
// When telemetry is disabled the original context and a nil (no-op)
// span are returned, so the instrumentation cost collapses to one
// atomic load.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if !enabled.Load() {
		return ctx, nil
	}
	t := TracerFrom(ctx)
	s := &Span{tracer: t, name: name, id: t.nextID.Add(1), start: time.Now()}
	if parent := SpanFrom(ctx); parent != nil && parent.tracer == t && !parent.ended.Load() {
		s.parent = parent.id
		s.trace = parent.trace
		s.root = parent.root
	} else {
		s.trace = s.id
		s.root = s
	}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// Attr annotates the span (no-op on nil). It returns the span so
// annotations chain.
func (s *Span) Attr(key string, value any) *Span {
	if s == nil || s.ended.Load() {
		return s
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	return s
}

// End finishes the span, recording its duration. Ending a root span
// publishes its trace — the root plus every descendant that ended
// first — to the tracer's recent ring; any span at or above the slow
// threshold also enters the slow ring and the slow log. End is
// idempotent and a no-op on nil.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	d := time.Since(s.start)
	info := SpanInfo{
		TraceID:  s.trace,
		SpanID:   s.id,
		ParentID: s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: d.Nanoseconds(),
		Attrs:    s.attrs,
	}
	t := s.tracer
	if s.root != s {
		s.root.mu.Lock()
		s.root.done = append(s.root.done, info)
		s.root.mu.Unlock()
	} else {
		s.mu.Lock()
		spans := append(s.done, info)
		s.done = nil
		s.mu.Unlock()
		t.pushRecent(Trace{TraceID: s.trace, Root: s.name, Duration: d.Nanoseconds(), Spans: spans})
	}
	if t.opt.SlowThreshold > 0 && d >= t.opt.SlowThreshold {
		t.pushSlow(info)
		if t.opt.SlowLogf != nil {
			t.opt.SlowLogf("obs: slow span %s: %v (trace %d, span %d)", s.name, d, s.trace, s.id)
		}
	}
}

func (t *Tracer) pushRecent(tr Trace) {
	t.mu.Lock()
	t.recent.push(tr)
	t.mu.Unlock()
}

func (t *Tracer) pushSlow(info SpanInfo) {
	t.mu.Lock()
	t.slow.push(info)
	t.mu.Unlock()
}

// Recent returns a copy of the ring of recently completed traces,
// oldest first.
func (t *Tracer) Recent() []Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recent.entries()
}

// Slow returns a copy of the ring of spans that exceeded the slow
// threshold, oldest first.
func (t *Tracer) Slow() []SpanInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.slow.entries()
}
