package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"udm/internal/server"
)

func prepared(t *testing.T, name string, seed int64) workload {
	t.Helper()
	for _, mk := range workloads {
		if w := mk(seed); w.name() == name {
			if err := w.prepare(); err != nil {
				t.Fatal(err)
			}
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

// The request sequence is a pure function of the seed: the same seed
// gives byte-identical requests, in any order of generation, and a
// different seed gives a different sequence.
func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	for _, mk := range workloads {
		name := mk(0).name()
		t.Run(name, func(t *testing.T) {
			a, b, c := prepared(t, name, 7), prepared(t, name, 7), prepared(t, name, 8)
			differs := false
			for i := 199; i >= 0; i-- { // b runs backwards: no request depends on another
				ra, rb, rc := a.request("main", i), b.request("main", i), c.request("main", i)
				if ra.path != rb.path || !bytes.Equal(ra.body, rb.body) {
					t.Fatalf("request %d differs under the same seed:\n%s %s\n%s %s", i, ra.path, ra.body, rb.path, rb.body)
				}
				if ra.path != rc.path || !bytes.Equal(ra.body, rc.body) {
					differs = true
				}
			}
			if !differs {
				t.Fatal("seeds 7 and 8 gave the same 200 requests")
			}
		})
	}
}

// stub answers point-small's requests from the library oracle, but
// corrupts its answer to the request carrying target as told.
func stub(t *testing.T, w *staticWorkload, target []float64, flipBit, wrongTenant bool) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		parts := strings.Split(r.URL.Path, "/") // /v1/t/{tenant}/models/blobs/{op}
		tenant, op := parts[3], parts[6]
		o := w.oracle[tenant]
		var point []float64
		switch op {
		case opDensity:
			var req server.DensityRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Error(err)
				return
			}
			point = req.Point
		case opClassify:
			var req server.ClassifyRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				t.Error(err)
				return
			}
			point = req.Point
		}
		bad := slices.Equal(point, target)
		if bad && wrongTenant {
			tenant = map[string]string{"t1": "t2", "t2": "t1"}[tenant]
		}
		rw.Header().Set(server.TenantHeader, tenant)
		var resp any
		if op == opDensity {
			ds, err := densities(o.est, [][]float64{point})
			if err != nil {
				t.Error(err)
				return
			}
			if bad && flipBit {
				ds[0] = math.Float64frombits(math.Float64bits(ds[0]) ^ 1)
			}
			resp = server.DensityResponse{Densities: ds, Density: &ds[0]}
		} else {
			labels, err := o.clf.ClassifyBatchContext(context.Background(), [][]float64{point}, 1)
			if err != nil {
				t.Error(err)
				return
			}
			resp = server.ClassifyResponse{Labels: labels, Label: &labels[0]}
		}
		_ = json.NewEncoder(rw).Encode(resp)
	}))
}

// The oracle passes a server that answers like the library, and fails
// one that flips a single bit of one density or echoes the wrong
// tenant once.
func TestOracleCatchesOneWrongAnswer(t *testing.T) {
	w := prepared(t, "point-small", 3).(*staticWorkload)
	dir := t.TempDir()
	if _, err := w.writeArtifacts(dir); err != nil {
		t.Fatal(err)
	}
	if err := w.loadOracle(&deployment{dir: dir}); err != nil {
		t.Fatal(err)
	}
	// The first fresh (not hot, so sent once) density point of the
	// sequence, and the first fresh point of any kind.
	var density, first []float64
	for i := 0; density == nil; i++ {
		r := w.request("main", i)
		if !r.hot && first == nil {
			first = r.rows[0]
		}
		if !r.hot && r.op == opDensity {
			density = r.rows[0]
		}
	}
	for _, tc := range []struct {
		name         string
		target       []float64
		flip, tenant bool
		wantFailed   int
	}{
		{"honest", nil, false, false, 0},
		{"flipped bit", density, true, false, 1},
		{"wrong tenant", first, false, true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := stub(t, w, tc.target, tc.flip, tc.tenant)
			defer srv.Close()
			win := drive(context.Background(), w, srv.URL, "main", 200*time.Millisecond, nil)
			o := summarize(w, win)
			if o.attempted < 20 || o.failed != tc.wantFailed {
				t.Fatalf("attempted %d, failed %d, want %d failed: %v", o.attempted, o.failed, tc.wantFailed, o.failures)
			}
		})
	}
}

func TestQuantileNearestRank(t *testing.T) {
	var xs []time.Duration
	for i := 100; i >= 1; i-- {
		xs = append(xs, time.Duration(i)*time.Millisecond)
	}
	for _, tc := range []struct {
		xs   []time.Duration
		q    float64
		want time.Duration
	}{
		{xs, 0.50, 50 * time.Millisecond},
		{xs, 0.99, 99 * time.Millisecond},
		{xs, 1, 100 * time.Millisecond},
		{xs[:3], 0.50, 99 * time.Millisecond}, // {100, 99, 98}: rank 2
		{xs[:3], 0.99, 100 * time.Millisecond},
		{xs[:1], 0.50, 100 * time.Millisecond},
	} {
		if got := quantile(tc.xs, tc.q); got != tc.want {
			t.Errorf("quantile(%d samples, %v) = %v, want %v", len(tc.xs), tc.q, got, tc.want)
		}
	}
	if xs[0] != 100*time.Millisecond {
		t.Error("quantile reordered its input")
	}
}

// Counter deltas over a window, on fixed scrapes of a proxy and two
// shards.
func TestCounterDeltas(t *testing.T) {
	start := []counters{
		{"cache_hits": 10, "cache_misses": 5, "batch_flushes": 3, "batched_items": 4, "errors": 1, "latency_count": 100, "latency_mean_us": 50},
		{"cache_hits": 0, "cache_misses": 0, "shed": 2, "latency_count": 0, "latency_mean_us": 0},
		{"fanouts": 7, "shed": 1, "errors": 0, "latency_count": 10, "latency_mean_us": 200},
	}
	end := []counters{
		{"cache_hits": 40, "cache_misses": 15, "batch_flushes": 3, "batched_items": 4, "errors": 3, "latency_count": 300, "latency_mean_us": 70},
		{"cache_hits": 20, "cache_misses": 5, "shed": 2, "latency_count": 50, "latency_mean_us": 10},
		{"fanouts": 17, "shed": 4, "errors": 0, "latency_count": 30, "latency_mean_us": 300},
	}
	if us, n := windowMean(start[0], end[0]); n != 200 || us != (70*300-50*100)/200.0 {
		t.Errorf("windowMean = %v over %v, want 80 over 200", us, n)
	}
	if us, n := windowMean(start[1], start[1]); us != 0 || n != 0 {
		t.Errorf("empty window mean = %v over %v", us, n)
	}
	samples := []sample{
		{req: request{op: opIngest}},
		{req: request{op: opDensity, single: true}},
		{req: request{op: opDensity, single: true}},
		{req: request{op: opDensity, single: true}, err: errors.New("503")},
	}
	ph := &phase{start: start, end: end, out: outcome{meanLat: 400 * time.Microsecond, throughput: 90}}
	untraced := &phase{out: outcome{throughput: 100, cpuPerReq: 30 * time.Microsecond}}
	m, _ := perLayer(newTracer(), &prober{samples: samples, allocs: 12}, ph, untraced)
	for name, want := range map[string]float64{
		"server.cache_lookups":   65,
		"server.cache_hit_ratio": 50.0 / 65,
		"server.shed":            3,
		"server.errors":          2,
		"distrib.fanouts":        10,
		// Behind the proxy, batches are the fan-outs that were not
		// ingests: 2 single reads over 10 - 1 fan-outs.
		"server.batch_flushes":   9,
		"server.avg_batch_size":  2.0 / 9,
		"server.handle_mean_us":  (300*30 - 200*10) / 20.0,
		"server.handled":         20,
		"http.overhead_us":       400 - 350,
		"server.allocs_per_req":  12,
		"trace.overhead_pct":     10,
		"client.cpu_us_per_req":  30,
		"kde.density_us_per_row": 0,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// The end-to-end numbers come from the half of the window's slices in
// which the host stole the least CPU time.
func TestQuietHalf(t *testing.T) {
	s := time.Second
	// Five full slices stealing 40%, 0%, 10%, 0% and 50% of the
	// machine's 100 ticks each.
	ticks := []tick{{0, cpuTicks{}}}
	for k, stolen := range []float64{40, 0, 10, 0, 50} {
		prev := ticks[k].c
		ticks = append(ticks, tick{time.Duration(k+1) * s, cpuTicks{steal: prev.steal + stolen, total: prev.total + 100}})
	}
	ok := func(at, lat time.Duration) sample { return sample{at: at, lat: lat} }
	win := &window{ticks: ticks, elapsed: 5*s + s/2, samples: []sample{
		ok(0, s/2),     // ends in slice 0: noisy
		ok(s, s/4),     // slice 1
		ok(s+s/2, s/4), // slice 1
		ok(2*s, 3*s/2), // ends in slice 3
		ok(2*s, s/2),   // slice 2
		ok(4*s, 2*s/5), // slice 4: noisy
		ok(5*s, s/10),  // after the last full slice
		{err: errors.New("503"), at: s, lat: s / 4}, // failed: no latency
	}}
	q := quiet(win)
	if want := []time.Duration{s, 2 * s, 3 * s}; !slices.Equal(q.from, want) {
		t.Fatalf("quiet slices start at %v, want %v", q.from, want)
	}
	if q.steal != 10.0/3 || q.length() != 3*s {
		t.Errorf("quiet half steals %v%% over %v, want 3.33%% over 3s", q.steal, q.length())
	}
	var w workload // stream-rw checks its answers after the window, so the samples need none
	for _, mk := range workloads {
		if w = mk(1); w.name() == "stream-rw" {
			break
		}
	}
	o := summarize(w, win)
	if o.n != 4 || o.throughput != 4.0/3 || o.ok != 7 || o.failed != 1 {
		t.Errorf("n=%d throughput=%v ok=%d failed=%d, want 4 samples, 4/3 req/s, 7 OK, 1 failed", o.n, o.throughput, o.ok, o.failed)
	}
	if o.p50 != s/4 || o.p99 != 3*s/2 {
		t.Errorf("p50 %v p99 %v over the quiet half, want 250ms and 1.5s", o.p50, o.p99)
	}

	// A window shorter than two slices is taken whole.
	short := &window{ticks: ticks[:2], elapsed: s, samples: []sample{ok(0, s/2)}}
	if q := quiet(short); q.length() != s || !q.holds(s/2) {
		t.Errorf("short window: quiet %v, holds(500ms)=%v", q.length(), q.holds(s/2))
	}
}
