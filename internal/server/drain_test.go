package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"udm/internal/faultinject"
)

// TestBatcherDrainOnShutdown is the regression test for the graceful-
// drain gap: Shutdown used to flip readiness and close listeners but
// never flushed the coalescing batchers, so a single-point request
// parked on a long BatchDelay timer could outlive the drain deadline
// (observed as rare lost-batch 503s in the fault matrix). Shutdown
// must now flush in-flight coalesced work immediately.
func TestBatcherDrainOnShutdown(t *testing.T) {
	// A request waits on the BatchDelay timer only while it is queued
	// behind a running batch. Stall the first batch for far longer than
	// the test (a 30s injected flush latency) and give the queued
	// request a 30s bound: without the drain, it completes only when
	// one of them runs out.
	faultinject.Reset()
	defer faultinject.Reset()
	if err := faultinject.Arm("server.batcher.flush", faultinject.Spec{Delay: 30 * time.Second, Times: 1}); err != nil {
		t.Fatal(err)
	}
	s := testServer(t, Options{BatchDelay: 30 * time.Second, MaxBatch: 64}, "")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	url := ts.URL + "/v1/models/blobs/density"

	// The blocker's client hangs up at the end of the test, which
	// cancels its stalled batch.
	blockCtx, unblock := context.WithCancel(context.Background())
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		req, err := http.NewRequestWithContext(blockCtx, "POST", url, strings.NewReader(`{"point":[1,1]}`))
		if err != nil {
			t.Error(err)
			return
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	defer func() { unblock(); <-blocked }()
	deadline := time.Now().Add(5 * time.Second)
	for flushFault.Fired() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("blocking batch never started")
		}
		time.Sleep(time.Millisecond)
	}

	type result struct {
		status int
		resp   densityResponse
	}
	resc := make(chan result, 1)
	go func() {
		var r result
		r.status = postJSON(t, url, densityRequest{Point: []float64{0, 0}}, &r.resp)
		resc <- r
	}()
	// Let the request reach the batcher and park behind the stalled
	// batch, on the delay timer.
	for pendingItems(s) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued behind the running batch")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Shutdown took %v; drain should flush the batcher immediately", d)
	}
	select {
	case r := <-resc:
		if r.status != 200 {
			t.Fatalf("parked request got %d, want 200", r.status)
		}
		if r.resp.Density == nil {
			t.Fatal("parked request got no density")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked request never completed; batcher was not drained")
	}
}

// pendingItems counts the density items queued in s's batchers.
func pendingItems(s *Server) int {
	s.rtMu.Lock()
	defer s.rtMu.Unlock()
	n := 0
	for _, mb := range s.runtimes {
		mb.density.mu.Lock()
		n += len(mb.density.pending)
		mb.density.mu.Unlock()
	}
	return n
}

// TestBatcherDrainAdmitsLateItems checks the second half of the drain
// contract: items submitted to a draining batcher skip the coalescing
// window entirely instead of arming a fresh long timer.
func TestBatcherDrainAdmitsLateItems(t *testing.T) {
	b := newBatcher(context.Background(), 64, 30*time.Second, nil,
		func(_ context.Context, reqs []int) ([]int, error) {
			out := make([]int, len(reqs))
			for i, v := range reqs {
				out[i] = v * 2
			}
			return out, nil
		})
	b.drain()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 1; i <= 4; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			got, err := b.do(context.Background(), v)
			if err != nil {
				t.Errorf("do(%d): %v", v, err)
				return
			}
			if got != 2*v {
				t.Errorf("do(%d) = %d, want %d", v, got, 2*v)
			}
		}(i)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("post-drain submissions waited on the coalescing window")
	}
}
