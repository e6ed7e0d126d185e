package obs

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanParentChild(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	ctx := WithTracer(context.Background(), tr)

	ctx, root := StartSpan(ctx, "server.density")
	cctx, child := StartSpan(ctx, "kde.DensityBatch")
	child.Attr("points", 128)
	if SpanFrom(cctx) != child {
		t.Error("child span not carried by its context")
	}
	child.End()
	root.End()

	traces := tr.Recent()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	trace := traces[0]
	if trace.Root != "server.density" {
		t.Errorf("root = %q", trace.Root)
	}
	if len(trace.Spans) != 2 {
		t.Fatalf("got %d spans, want 2 (child + root)", len(trace.Spans))
	}
	c, r := trace.Spans[0], trace.Spans[1]
	if c.Name != "kde.DensityBatch" || r.Name != "server.density" {
		t.Errorf("span order = %q, %q; want child then root", c.Name, r.Name)
	}
	if c.ParentID != r.SpanID {
		t.Errorf("child.ParentID = %d, root.SpanID = %d", c.ParentID, r.SpanID)
	}
	if c.TraceID != r.TraceID || c.TraceID != trace.TraceID {
		t.Errorf("trace IDs disagree: child %d, root %d, trace %d", c.TraceID, r.TraceID, trace.TraceID)
	}
	if len(c.Attrs) != 1 || c.Attrs[0].Key != "points" {
		t.Errorf("child attrs = %v", c.Attrs)
	}
	if r.ParentID != 0 {
		t.Errorf("root has parent %d", r.ParentID)
	}
}

func TestSpanEndIdempotentAndNilSafe(t *testing.T) {
	var nilSpan *Span
	nilSpan.End()          // must not panic
	nilSpan.Attr("k", "v") // must not panic
	if nilSpan.Attr("a", 1) != nil {
		t.Error("nil span Attr did not chain nil")
	}

	tr := NewTracer(TracerOptions{})
	_, sp := StartSpan(WithTracer(context.Background(), tr), "op")
	sp.End()
	sp.End() // second End must not re-publish
	if got := len(tr.Recent()); got != 1 {
		t.Errorf("double End published %d traces, want 1", got)
	}
}

func TestSpanAfterParentEndedIsSelfRooted(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	ctx := WithTracer(context.Background(), tr)
	ctx, parent := StartSpan(ctx, "parent")
	parent.End()
	// The context still carries the ended parent; a new span must not
	// attach to it (its trace is already published).
	_, late := StartSpan(ctx, "late")
	late.End()
	traces := tr.Recent()
	if len(traces) != 2 {
		t.Fatalf("got %d traces, want 2 (late span self-rooted)", len(traces))
	}
	if traces[1].Root != "late" {
		t.Errorf("second trace root = %q, want late", traces[1].Root)
	}
}

func TestRecentRingBounded(t *testing.T) {
	tr := NewTracer(TracerOptions{RingSize: 4})
	ctx := WithTracer(context.Background(), tr)
	for i := 0; i < 10; i++ {
		_, sp := StartSpan(ctx, fmt.Sprintf("op%d", i))
		sp.End()
	}
	got := tr.Recent()
	if len(got) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(got))
	}
	for i, trace := range got {
		if want := fmt.Sprintf("op%d", 6+i); trace.Root != want {
			t.Errorf("ring[%d] = %q, want %q (oldest first)", i, trace.Root, want)
		}
	}
}

// TestRingOrderAcrossWraps checks that both rings stay oldest first
// after every push, through several wrap-arounds, down to RingSize 1.
func TestRingOrderAcrossWraps(t *testing.T) {
	for _, size := range []int{1, 3} {
		tr := NewTracer(TracerOptions{RingSize: size, SlowThreshold: time.Nanosecond})
		ctx := WithTracer(context.Background(), tr)
		for i := 0; i < 4*size+2; i++ {
			_, sp := StartSpan(ctx, fmt.Sprintf("op%d", i))
			time.Sleep(time.Microsecond) // every span is over the slow threshold
			sp.End()

			oldest := max(0, i+1-size)
			recent, slow := tr.Recent(), tr.Slow()
			if len(recent) != i+1-oldest || len(slow) != i+1-oldest {
				t.Fatalf("size %d after %d pushes: %d recent, %d slow; want %d",
					size, i+1, len(recent), len(slow), i+1-oldest)
			}
			for j := range recent {
				want := fmt.Sprintf("op%d", oldest+j)
				if recent[j].Root != want || slow[j].Name != want {
					t.Fatalf("size %d after %d pushes: entry %d = %q (recent), %q (slow); want %q",
						size, i+1, j, recent[j].Root, slow[j].Name, want)
				}
			}
		}
	}
}

func TestSlowSpanLogged(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	tr := NewTracer(TracerOptions{
		SlowThreshold: time.Millisecond,
		SlowLogf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	ctx := WithTracer(context.Background(), tr)
	_, sp := StartSpan(ctx, "slow.op")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	_, fast := StartSpan(ctx, "fast.op")
	fast.End()

	slow := tr.Slow()
	if len(slow) != 1 || slow[0].Name != "slow.op" {
		t.Fatalf("slow ring = %+v, want exactly slow.op", slow)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 || !strings.Contains(lines[0], "slow.op") {
		t.Errorf("slow log = %q, want one line naming slow.op", lines)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(TracerOptions{RingSize: 256})
	ctx := WithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rctx, root := StartSpan(ctx, "root")
				_, child := StartSpan(rctx, "child")
				child.End()
				root.End()
			}
		}()
	}
	wg.Wait()
	traces := tr.Recent()
	if len(traces) != 256 {
		t.Fatalf("ring holds %d traces, want 256", len(traces))
	}
	for _, trace := range traces {
		if len(trace.Spans) != 2 {
			t.Fatalf("trace %d has %d spans, want 2", trace.TraceID, len(trace.Spans))
		}
	}
}

func TestTracerFromDefaults(t *testing.T) {
	if TracerFrom(context.Background()) != DefaultTracer() {
		t.Error("bare context did not fall back to the default tracer")
	}
}

func TestRuntimeGaugesAndSampler(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeGauges(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"udm_runtime_goroutines", "udm_runtime_heap_alloc_bytes", "udm_runtime_gc_runs"} {
		if !strings.Contains(sb.String(), name+" ") {
			t.Errorf("missing runtime gauge %s in:\n%s", name, sb.String())
		}
	}
	stop := StartSampler(r, time.Hour) // samples once immediately
	defer stop()
	if r.Gauge("udm_runtime_sampled_goroutines", "goroutines at the last sampler tick").Load() <= 0 {
		t.Error("sampler did not record an initial goroutine sample")
	}
	stop()
	stop() // idempotent
}
