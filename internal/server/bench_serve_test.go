package server

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"udm/internal/datagen"
	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/rng"
	"udm/internal/uncertain"
)

// BenchmarkServeRequest times one single-point /v1 request through the
// server's whole in-process handler: routing, tenant resolution,
// admission, JSON decode, the density cache, the coalescer, the model
// evaluation and JSON encode, everything but the network. The harness
// adds a request and a recorder per op (a few µs and a few dozen
// allocs of the reported numbers).
//
// Dimensions, in sub-benchmark order:
//   - coalescing: "coalesce" is the default (batch-while-busy under a
//     2ms bound); "nocoalesce" sets BatchDelay -1, one batch per request.
//   - model and path: "transform" is the test transform (40
//     micro-clusters, 2-d), "stream" the test stream engine (20
//     micro-clusters), and "point20k" an exact estimator over N = 20000
//     records (a summarizer of 20000 singleton micro-clusters, one
//     kernel per record, as PointKDE), where a batched evaluation on
//     the SoA engine does real work. "miss" sends a fresh point per
//     request, "hit" one cached point; classify has no cache.
//   - load: "seq" is one caller, "par64" 64 concurrent callers, for
//     which ns/op is the amortized cost (the inverse of throughput).
func BenchmarkServeRequest(b *testing.B) {
	cases := []struct {
		name, path string
		hit        bool
	}{
		{"transform-density-miss", "/v1/models/blobs/density", false},
		{"transform-density-hit", "/v1/models/blobs/density", true},
		{"transform-classify", "/v1/models/blobs/classify", false},
		{"stream-density-miss", "/v1/models/live/density", false},
		{"stream-density-hit", "/v1/models/live/density", true},
		{"point20k-density-miss", "/v1/models/point20k/density", false},
		{"point20k-density-hit", "/v1/models/point20k/density", true},
	}
	for _, co := range []struct {
		name  string
		delay time.Duration
	}{{"coalesce", 0}, {"nocoalesce", -1}} {
		b.Run(co.name, func(b *testing.B) {
			s := testServer(b, Options{BatchDelay: co.delay}, "")
			if err := s.reg.Add(point20kModel(b)); err != nil {
				b.Fatal(err)
			}
			h := s.Handler()
			for _, c := range cases {
				var fresh atomic.Int64 // distinct miss points across runs and callers
				serve := func() error {
					i := int64(0)
					if !c.hit {
						i = fresh.Add(1)
					}
					// Miss points step by 1e-9, so every one has its own
					// cache key; the hit point is always (0.5, 0).
					body := strconv.AppendFloat([]byte(`{"point":[`), 0.5+1e-9*float64(i), 'g', -1, 64)
					body = append(body, ",0]}"...)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest("POST", c.path, bytes.NewReader(body)))
					if rec.Code != 200 {
						return fmt.Errorf("%s: status %d: %s", c.path, rec.Code, rec.Body)
					}
					return nil
				}
				b.Run(c.name+"/seq", func(b *testing.B) {
					// The first request warms the runtime, and the cache
					// for hits.
					if err := serve(); err != nil {
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for range b.N {
						if err := serve(); err != nil {
							b.Fatal(err)
						}
					}
				})
				b.Run(c.name+"/par64", func(b *testing.B) {
					if err := serve(); err != nil {
						b.Fatal(err)
					}
					b.SetParallelism(max(1, 64/runtime.GOMAXPROCS(0)))
					b.ReportAllocs()
					b.ResetTimer()
					b.RunParallel(func(pb *testing.PB) {
						for pb.Next() {
							if err := serve(); err != nil {
								b.Error(err)
								return
							}
						}
					})
				})
			}
		})
	}
}

// point20kModel is an exact estimator over 20000 perturbed two-blob
// records: a summarizer with room for every record keeps each in a
// micro-cluster of its own.
func point20kModel(b *testing.B) *Model {
	b.Helper()
	const n = 20000
	clean, err := datagen.TwoBlobs(2.5).Generate(n, rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	noisy, err := uncertain.Perturb(clean, 1.0, rng.New(6))
	if err != nil {
		b.Fatal(err)
	}
	sum := microcluster.NewSummarizer(n, noisy.Dims())
	for i, x := range noisy.X {
		sum.Add(x, noisy.Err[i])
	}
	m, err := NewSummarizerModel("point20k", sum, kde.Options{ErrorAdjust: true})
	if err != nil {
		b.Fatal(err)
	}
	return m
}
