package server

import (
	"context"
	"testing"
)

// BenchmarkResilienceOverhead measures the per-call tax the retry
// wrapper and circuit breaker add around a SUCCESSFUL evaluation — the
// price every request pays when nothing is failing. The bare case calls
// the same op directly; the deltas are the numbers reported in
// EXPERIMENTS.md. A real batch evaluation costs tens of microseconds,
// so the wrapper must stay in the tens of nanoseconds to hold the ≤5%
// overall budget the obs snapshot gate enforces.
func BenchmarkResilienceOverhead(b *testing.B) {
	op := func(ctx context.Context) (float64, error) { return 1, nil }
	ctx := context.Background()

	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := op(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("retry", func(b *testing.B) {
		r := newRetrier(Options{}.WithDefaults(), newMetrics().Retries)
		for i := 0; i < b.N; i++ {
			if _, err := retryDo(ctx, r, nil, op); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("retry-breaker", func(b *testing.B) {
		opt := Options{}.WithDefaults()
		m := newMetrics()
		r := newRetrier(opt, m.Retries)
		br := newBreaker("bench", opt, m.reg)
		for i := 0; i < b.N; i++ {
			if _, err := retryDo(ctx, r, br, op); err != nil {
				b.Fatal(err)
			}
		}
	})
}
