package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// blockingRun returns a batch function whose first call blocks until
// release is closed (signalling started once it is running); later
// calls return at once. Every call's batch size is recorded in order,
// and each result is the item times ten, so positional mixups show.
func blockingRun(started, release chan struct{}) (func(context.Context, []int) ([]int, error), func() []int) {
	var mu sync.Mutex
	var sizes []int
	run := func(ctx context.Context, reqs []int) ([]int, error) {
		mu.Lock()
		first := len(sizes) == 0
		sizes = append(sizes, len(reqs))
		mu.Unlock()
		if first {
			close(started)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		out := make([]int, len(reqs))
		for i, r := range reqs {
			out[i] = r * 10
		}
		return out, nil
	}
	return run, func() []int {
		mu.Lock()
		defer mu.Unlock()
		return append([]int(nil), sizes...)
	}
}

// waitClosed blocks until ch is closed, failing the test after 5s.
func waitClosed(t *testing.T, ch chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal("the first batch never started running")
	}
}

// waitPending blocks until n items are queued in b behind its running
// batch.
func waitPending[Req, Res any](t *testing.T, b *batcher[Req, Res], n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		got := len(b.pending)
		b.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d items pending, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatcherCoalesces checks that submissions arriving while a batch
// runs all ride the next batched call together and every waiter gets
// its own positional result.
func TestBatcherCoalesces(t *testing.T) {
	var calls int
	var mu sync.Mutex
	started, release := make(chan struct{}), make(chan struct{})
	b := newBatcher(context.Background(), 64, time.Hour, nil,
		func(_ context.Context, reqs []int) ([]string, error) {
			mu.Lock()
			calls++
			first := calls == 1
			mu.Unlock()
			if first {
				// Park the first batch so the others queue behind it.
				close(started)
				<-release
			}
			out := make([]string, len(reqs))
			for i, r := range reqs {
				out[i] = fmt.Sprintf("r%d", r)
			}
			return out, nil
		})

	const n = 16
	results := make([]string, n)
	var wg sync.WaitGroup
	submit := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := b.do(context.Background(), i)
			if err != nil {
				t.Errorf("do(%d): %v", i, err)
				return
			}
			results[i] = res
		}()
	}
	submit(0)
	waitClosed(t, started)
	for i := 1; i < n; i++ {
		submit(i)
	}
	waitPending(t, b, n-1)
	close(release)
	wg.Wait()
	for i, r := range results {
		if want := fmt.Sprintf("r%d", i); r != want {
			t.Errorf("result[%d] = %q, want %q (positional mixup)", i, r, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if calls >= n {
		t.Errorf("%d batch calls for %d submissions — no coalescing happened", calls, n)
	}
	if calls != 2 {
		t.Errorf("%d batch calls, want 2: the blocker, then everything queued behind it", calls)
	}
}

// TestBatcherIdleFlushesAtOnce checks batch-while-busy's first rule: a
// submission that finds no batch running does not wait for company,
// however long the delay bound is.
func TestBatcherIdleFlushesAtOnce(t *testing.T) {
	b := newBatcher(context.Background(), 64, time.Hour, nil,
		func(_ context.Context, reqs []int) ([]int, error) { return reqs, nil })
	for i := 0; i < 3; i++ {
		done := make(chan int, 1)
		go func() {
			v, err := b.do(context.Background(), i)
			if err != nil {
				t.Errorf("do(%d): %v", i, err)
			}
			done <- v
		}()
		select {
		case v := <-done:
			if v != i {
				t.Errorf("do(%d) = %d", i, v)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("lone submission %d waited on the delay bound instead of flushing at once", i)
		}
	}
}

// TestBatcherMaxBatchSplitsQueue checks that MaxBatch still flushes at
// once behind a running batch: 10 queued items at MaxBatch 4 become two
// full batches that do not wait, plus a remainder of 2 that rides the
// next batch once the running one returns.
func TestBatcherMaxBatchSplitsQueue(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	run, sizes := blockingRun(started, release)
	b := newBatcher(context.Background(), 4, time.Hour, nil, run)

	const n = 11 // the blocker plus 10 queued items
	got := make([]int, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	submit := func(i int) {
		go func() {
			defer close(done[i])
			v, err := b.do(context.Background(), i)
			if err != nil {
				t.Errorf("do(%d): %v", i, err)
			}
			got[i] = v
		}()
	}
	submit(0)
	waitClosed(t, started)
	for i := 1; i < n; i++ {
		submit(i)
	}
	// Two full batches of 4 flush without waiting for the blocker, and
	// the remaining 2 stay queued behind it.
	deadline := time.Now().Add(5 * time.Second)
	for len(sizes()) < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("full batches never flushed behind the running one: sizes %v", sizes())
		}
		time.Sleep(time.Millisecond)
	}
	waitPending(t, b, 2)
	close(release)
	for i := range done {
		<-done[i]
	}
	for i, v := range got {
		if v != 10*i {
			t.Errorf("result[%d] = %d, want %d (positional mixup)", i, v, 10*i)
		}
	}
	if s := sizes(); len(s) != 4 || s[0] != 1 || s[1] != 4 || s[2] != 4 || s[3] != 2 {
		t.Errorf("batch sizes %v, want [1 4 4 2]", s)
	}
}

// TestBatcherDelayBoundsWaitBehindStuckBatch checks that maxDelay is
// still an upper bound: an item queued behind a batch that never
// returns flushes when its timer fires.
func TestBatcherDelayBoundsWaitBehindStuckBatch(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	run, sizes := blockingRun(started, release)
	b := newBatcher(context.Background(), 64, 20*time.Millisecond, nil, run)

	go b.do(context.Background(), 0) // the stuck blocker, released when the test ends
	waitClosed(t, started)
	done := make(chan int, 1)
	go func() {
		v, err := b.do(context.Background(), 7)
		if err != nil {
			t.Errorf("queued do: %v", err)
		}
		done <- v
	}()
	select {
	case v := <-done:
		if v != 70 {
			t.Errorf("queued item got %d, want 70", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued item waited past its delay bound behind a stuck batch")
	}
	if s := sizes(); len(s) != 2 || s[1] != 1 {
		t.Errorf("batch sizes %v, want the queued item flushed alone", s)
	}
}

// TestBatcherNegativeDelayNeverCoalesces checks that a negative delay
// still means "never coalesce": items submitted while a batch runs
// each flush at once in a batch of their own.
func TestBatcherNegativeDelayNeverCoalesces(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	run, sizes := blockingRun(started, release)
	b := newBatcher(context.Background(), 64, -1, nil, run)

	go b.do(context.Background(), 0) // the stuck blocker, released when the test ends
	waitClosed(t, started)
	for i := 1; i <= 3; i++ {
		if v, err := b.do(context.Background(), i); err != nil || v != 10*i {
			t.Fatalf("do(%d) = %d, %v; want %d", i, v, err, 10*i)
		}
	}
	if s := sizes(); len(s) != 4 || s[1] != 1 || s[2] != 1 || s[3] != 1 {
		t.Errorf("batch sizes %v, want [1 1 1 1]", s)
	}
}

// TestBatcherQueuedWaiterCancelLeaves checks that a waiter queued
// behind a running batch leaves at once when its context ends, and
// that its batch, with every member gone, runs (if at all) under a
// canceled context.
func TestBatcherQueuedWaiterCancelLeaves(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	inner, sizes := blockingRun(started, release)
	var mu sync.Mutex
	var laterCanceled []bool // per batch after the blocker: did run see ctx end?
	run := func(ctx context.Context, reqs []int) ([]int, error) {
		if len(sizes()) > 0 { // not the blocker
			canceled := false
			select {
			case <-ctx.Done():
				canceled = true
			case <-time.After(5 * time.Second):
			}
			mu.Lock()
			laterCanceled = append(laterCanceled, canceled)
			mu.Unlock()
		}
		return inner(ctx, reqs)
	}
	b := newBatcher(context.Background(), 64, time.Hour, nil, run)

	blocker := make(chan error, 1)
	go func() {
		_, err := b.do(context.Background(), 0)
		blocker <- err
	}()
	waitClosed(t, started)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.do(ctx, 1)
		done <- err
	}()
	waitPending(t, b, 1)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("queued waiter got %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("canceled waiter stayed queued behind the running batch")
	}
	close(release)
	if err := <-blocker; err != nil {
		t.Fatalf("blocker: %v", err)
	}
	b.mu.Lock() // the run loop has taken the abandoned batch; wait for it to finish
	for b.busy {
		b.mu.Unlock()
		time.Sleep(time.Millisecond)
		b.mu.Lock()
	}
	b.mu.Unlock()
	mu.Lock()
	defer mu.Unlock()
	for _, c := range laterCanceled {
		if !c {
			t.Error("a batch whose every member left ran under a live context")
		}
	}
}

// TestBatcherFlushesAtMaxBatch checks the size trigger fires before the
// delay timer: MaxBatch items queued behind a running batch flush
// together at once, without waiting for it or for the timer.
func TestBatcherFlushesAtMaxBatch(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	defer close(release)
	run, sizes := blockingRun(started, release)
	b := newBatcher(context.Background(), 4, time.Hour, nil, run)

	go b.do(context.Background(), 0) // the blocker, released when the test ends
	waitClosed(t, started)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 1; i <= 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if v, err := b.do(context.Background(), i); err != nil || v != 10*i {
				t.Errorf("do(%d) = %d, %v; want %d", i, v, err, 10*i)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("full batch waited %v for the delay timer instead of flushing at max size", elapsed)
	}
	if s := sizes(); len(s) != 2 || s[1] != 4 {
		t.Errorf("batch sizes %v, want [1 4]: the queued items flush as one full batch", s)
	}
}

// TestBatcherErrorFansOut checks every member of a failed batch sees
// the batch error.
func TestBatcherErrorFansOut(t *testing.T) {
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})
	inner, sizes := blockingRun(started, release)
	b := newBatcher(context.Background(), 8, time.Hour, nil,
		func(ctx context.Context, reqs []int) ([]int, error) {
			inner(ctx, reqs)
			return nil, boom
		})

	blocker := make(chan error, 1)
	go func() {
		_, err := b.do(context.Background(), 0)
		blocker <- err
	}()
	waitClosed(t, started)
	var wg sync.WaitGroup
	for i := 1; i <= 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.do(context.Background(), i); !errors.Is(err, boom) {
				t.Errorf("do(%d) err = %v, want boom", i, err)
			}
		}()
	}
	waitPending(t, b, 3)
	close(release)
	wg.Wait()
	if err := <-blocker; !errors.Is(err, boom) {
		t.Errorf("blocker err = %v, want boom", err)
	}
	if s := sizes(); len(s) != 2 || s[1] != 3 {
		t.Errorf("batch sizes %v, want [1 3]: the three members share one failed batch", s)
	}
}

// TestBatcherCancellationPropagates checks the acceptance criterion
// that a client disconnect cancels the underlying batch work: when
// every member's context ends, the batch context is canceled and the
// worker-pool computation stops.
func TestBatcherCancellationPropagates(t *testing.T) {
	runCanceled := make(chan struct{})
	running := make(chan struct{})
	b := newBatcher(context.Background(), 64, time.Millisecond, nil,
		func(ctx context.Context, reqs []int) ([]int, error) {
			close(running)
			select {
			case <-ctx.Done():
				close(runCanceled)
				return nil, ctx.Err()
			case <-time.After(30 * time.Second):
				return reqs, nil
			}
		})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.do(ctx, 1)
		done <- err
	}()
	<-running // the waiter's batch is running: cancel from inside it
	cancel()

	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("do returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter did not return after cancel")
	}
	select {
	case <-runCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("batch computation was not canceled after its only client left")
	}
}

// TestBatcherSurvivingWaiterKeepsBatchAlive checks the flip side: a
// batch with one live waiter runs to completion even when another
// member disconnects.
func TestBatcherSurvivingWaiterKeepsBatchAlive(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	inner, sizes := blockingRun(started, release)
	running, proceed := make(chan struct{}), make(chan struct{})
	b := newBatcher(context.Background(), 64, time.Hour, nil,
		func(ctx context.Context, reqs []int) ([]int, error) {
			if len(sizes()) == 1 {
				// The shared batch: hold it mid-run while a member leaves.
				close(running)
				<-proceed
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			return inner(ctx, reqs)
		})

	go b.do(context.Background(), 0) // the blocker both members queue behind
	waitClosed(t, started)
	ctx1, cancel1 := context.WithCancel(context.Background())
	gone := make(chan error, 1)
	go func() {
		_, err := b.do(ctx1, 1)
		gone <- err
	}()
	waitPending(t, b, 1) // the leaving member queues first
	live := make(chan int, 1)
	go func() {
		v, err := b.do(context.Background(), 2)
		if err != nil {
			t.Errorf("live waiter: %v", err)
		}
		live <- v
	}()
	waitPending(t, b, 2)
	close(release)
	select {
	case <-running:
	case <-time.After(5 * time.Second):
		t.Fatal("the shared batch never started")
	}
	cancel1() // first member disconnects mid-batch
	if err := <-gone; !errors.Is(err, context.Canceled) {
		t.Errorf("canceled waiter got %v, want context.Canceled", err)
	}
	close(proceed)

	select {
	case v := <-live:
		if v != 20 {
			t.Errorf("surviving waiter got %d, want 20", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("surviving waiter starved — batch was canceled despite a live member")
	}
	if s := sizes(); len(s) != 2 || s[1] != 2 {
		t.Errorf("batch sizes %v, want [1 2]: both members share the second batch", s)
	}
}

func TestLRUCache(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", 1)
	c.put("b", 2)
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Fatalf("get a = %v/%v", v, ok)
	}
	c.put("c", 3) // evicts b (least recently used after the get of a)
	if _, ok := c.get("b"); ok {
		t.Error("b survived past capacity")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Errorf("%s evicted wrongly", k)
		}
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}

	var nilCache *lruCache
	nilCache.put("x", 1) // must not panic
	if _, ok := nilCache.get("x"); ok {
		t.Error("nil cache returned a hit")
	}
}

func TestCacheKey(t *testing.T) {
	x := []float64{1.25, -3.5}
	exact1 := cacheKey("default", "m", 1, 0, "exact", nil, x, 0)
	exact2 := cacheKey("default", "m", 1, 0, "exact", nil, []float64{1.25, -3.5}, 0)
	if exact1 != exact2 {
		t.Error("identical points produced different exact keys")
	}
	if cacheKey("default", "m", 1, 0, "exact", nil, []float64{1.25, -3.5000001}, 0) == exact1 {
		t.Error("distinct points collided under exact keying")
	}
	if cacheKey("default", "m", 1, 1, "exact", nil, x, 0) == exact1 {
		t.Error("model version not part of the key (stale cache after ingest)")
	}
	if cacheKey("default", "m", 2, 0, "exact", nil, x, 0) == exact1 {
		t.Error("activation generation not part of the key (stale cache after hot-swap)")
	}
	if cacheKey("tenant-b", "m", 1, 0, "exact", nil, x, 0) == exact1 {
		t.Error("tenant not part of the key (tenants would alias each other's densities)")
	}
	if cacheKey("default", "m", 1, 0, "exact", []int{0}, x, 0) == exact1 {
		t.Error("subspace dims not part of the key")
	}
	if cacheKey("default", "other", 1, 0, "exact", nil, x, 0) == exact1 {
		t.Error("model name not part of the key")
	}
	if cacheKey("default", "m", 1, 0, "approx(1e-06)", nil, x, 0) == exact1 {
		t.Error("accuracy mode not part of the key (approx answers would alias exact)")
	}
	if cacheKey("default", "m", 1, 0, "approx(1e-06)", nil, x, 0) == cacheKey("default", "m", 1, 0, "approx(1e-03)", nil, x, 0) {
		t.Error("distinct epsilon budgets shared a key")
	}
	// Quantized keys merge near-identical points.
	if cacheKey("default", "m", 1, 0, "exact", nil, []float64{1.2501, -3.5}, 0.01) != cacheKey("default", "m", 1, 0, "exact", nil, []float64{1.2503, -3.5}, 0.01) {
		t.Error("quantization did not merge nearby points")
	}
}
