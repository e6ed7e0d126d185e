package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// batcher coalesces concurrent single-item requests into one batched
// call on the shared worker pool, batching only while busy: at most
// one batch per batcher is normally in flight. A submission that finds
// no batch running flushes at once, in a goroutine of its own, so a
// lone request never waits for company. Submissions that arrive while
// a batch runs queue in pending; when the running batch returns, its
// goroutine takes whatever is pending and runs that next, looping until
// nothing is pending. Queueing ends early in two cases: MaxBatch
// pending items flush at once, and maxDelay bounds how long an item may
// wait behind a running batch (the timer is armed only for queued
// items). A maxDelay ≤ 0 never coalesces: every item flushes at once.
// Coalescing turns N queued single-point HTTP requests into one
// DensityBatch / ClassifyBatch call that the parallel engine fans out
// across cores.
//
// Cancellation: each submitted item carries its own context. A waiter
// whose context ends stops waiting immediately (its slot in the batch
// is still computed — results are positional). The batch's own context
// is derived from the server's base lifecycle context and the
// members': it is canceled as soon as EVERY member's context has
// ended, so work for a batch whose clients all disconnected is
// abandoned by the worker pool mid-flight, and it dies with the server
// regardless. A batch with at least one live waiter always runs to
// completion.
type batcher[Req, Res any] struct {
	base     context.Context
	run      func(ctx context.Context, reqs []Req) ([]Res, error)
	maxBatch int
	maxDelay time.Duration
	metrics  *Metrics

	// drainNow flips on when the owning server starts draining: pending
	// items flush immediately instead of waiting behind the running
	// batch, so graceful shutdown never strands an in-flight waiter
	// behind a timer that may outlive the listener.
	drainNow atomic.Bool

	mu      sync.Mutex
	busy    bool // a run loop owns the batcher (see loop)
	pending []batchWaiter[Req, Res]
	timer   *time.Timer
}

type batchWaiter[Req, Res any] struct {
	ctx context.Context
	req Req
	ch  chan batchResult[Res]
}

type batchResult[Res any] struct {
	val Res
	err error
}

// newBatcher builds a coalescer whose batch contexts descend from
// base, so in-flight batch work is canceled when the owning server's
// lifecycle ends.
func newBatcher[Req, Res any](base context.Context, maxBatch int, maxDelay time.Duration, metrics *Metrics,
	run func(ctx context.Context, reqs []Req) ([]Res, error)) *batcher[Req, Res] {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if base == nil {
		base = context.Background()
	}
	return &batcher[Req, Res]{base: base, run: run, maxBatch: maxBatch, maxDelay: maxDelay, metrics: metrics}
}

// do submits one item and blocks until its result is ready or ctx
// ends. The error is either the batch error (every member of a failed
// batch sees it) or ctx.Err().
func (b *batcher[Req, Res]) do(ctx context.Context, req Req) (Res, error) {
	w := batchWaiter[Req, Res]{ctx: ctx, req: req, ch: make(chan batchResult[Res], 1)}
	b.mu.Lock()
	b.pending = append(b.pending, w)
	switch {
	case !b.busy:
		// Idle: start a run loop with this item at once.
		b.busy = true
		batch := b.takeLocked()
		b.mu.Unlock()
		go b.loop(batch)
	case len(b.pending) >= b.maxBatch || b.maxDelay <= 0 || b.drainNow.Load():
		// A full batch, no coalescing configured, or a draining server:
		// flush beside the running batch instead of queueing behind it.
		batch := b.takeLocked()
		b.mu.Unlock()
		go b.flush(batch)
	default:
		// Queued behind the running batch; bound the wait.
		if len(b.pending) == 1 {
			b.timer = time.AfterFunc(b.maxDelay, b.flushTimer)
		}
		b.mu.Unlock()
	}
	select {
	case r := <-w.ch:
		if r.err != nil && ctx.Err() != nil {
			// The batch failed after this waiter's context ended (both
			// select arms were ready; Go picks one at random). The
			// cancellation owns the outcome: reporting the batch error
			// would let upstream resilience retry or count a failure on
			// behalf of a client that already hung up.
			var zero Res
			return zero, ctx.Err()
		}
		return r.val, r.err
	case <-ctx.Done():
		var zero Res
		return zero, ctx.Err()
	}
}

// drain puts the batcher in drain mode and flushes whatever is pending:
// items already waiting ride out immediately, and items admitted while
// the listener winds down never queue behind a running batch. Part of
// graceful shutdown — without it, a request queued just before SIGTERM
// behind a slow batch could sit on the max-delay timer while the HTTP
// server's drain deadline expires under it (observed as rare
// lost-batch 503s).
func (b *batcher[Req, Res]) drain() {
	b.drainNow.Store(true)
	b.flushTimer()
}

// takeLocked detaches the pending batch and disarms the timer. Callers
// hold b.mu.
func (b *batcher[Req, Res]) takeLocked() []batchWaiter[Req, Res] {
	batch := b.pending
	b.pending = nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	return batch
}

// loop runs batch, then keeps running whatever queued behind it until
// nothing is pending, and then marks the batcher idle.
func (b *batcher[Req, Res]) loop(batch []batchWaiter[Req, Res]) {
	for {
		b.flush(batch)
		b.mu.Lock()
		if len(b.pending) == 0 {
			b.busy = false
			b.mu.Unlock()
			return
		}
		batch = b.takeLocked()
		b.mu.Unlock()
	}
}

// flushTimer flushes whatever is pending in the calling goroutine: the
// max-delay bound firing behind a running batch, or a drain.
func (b *batcher[Req, Res]) flushTimer() {
	b.mu.Lock()
	batch := b.takeLocked()
	b.mu.Unlock()
	if len(batch) > 0 {
		b.flush(batch)
	}
}

// flush executes one batch and distributes positional results.
func (b *batcher[Req, Res]) flush(batch []batchWaiter[Req, Res]) {
	if b.metrics != nil {
		b.metrics.BatchFlushes.Add(1)
		b.metrics.BatchedItems.Add(int64(len(batch)))
		b.metrics.BatchSize.Observe(float64(len(batch)))
	}
	// Derive the batch context: canceled once every member's context is
	// done, so fully-abandoned work stops burning the pool. It descends
	// from the batcher's base (the server lifecycle), never from any one
	// member — a batch with live waiters must survive other members'
	// cancellations.
	ctx, cancel := context.WithCancel(b.base)
	var live atomic.Int64
	live.Store(int64(len(batch)))
	stops := make([]func() bool, len(batch))
	for i, w := range batch {
		stops[i] = context.AfterFunc(w.ctx, func() {
			if live.Add(-1) == 0 {
				cancel()
			}
		})
	}
	reqs := make([]Req, len(batch))
	for i, w := range batch {
		reqs[i] = w.req
	}
	// The flush fault point sees the batch context, so an injected delay
	// here models a stalled flush that members may cancel out of.
	err := flushFault.Hit(ctx)
	var res []Res
	if err == nil {
		res, err = b.run(ctx, reqs)
	}
	for _, stop := range stops {
		stop()
	}
	cancel()
	for i, w := range batch {
		r := batchResult[Res]{err: err}
		if err == nil {
			r.val = res[i]
		}
		select {
		case w.ch <- r:
		default: // waiter already gone; buffered chan, can't happen, but never block
		}
	}
}
