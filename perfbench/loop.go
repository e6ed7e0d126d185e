package main

import (
	"cmp"
	"context"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// connections is the closed loop's concurrency: two clients, each
// sending its next request as soon as the previous answer is read, with
// no think time. It matches the two cores of the reference machine.
const connections = 2

// slice is the length of the pieces a timed window is cut into, each
// with the share of CPU time the host stole in it.
const slice = time.Second

// sample is one request of a window and what came back.
type sample struct {
	req request
	ans answer
	at  time.Duration // when it was sent, from the window's start
	lat time.Duration // send to last byte of the answer
	err error         // transport failure, non-2xx or malformed answer
}

// window is one timed closed-loop run.
type window struct {
	samples []sample // in request order
	ticks   []tick   // the machine's CPU counters every slice
	elapsed time.Duration
	cpu     time.Duration // this process's CPU time during the window
	acked   int           // records acknowledged by ingest answers
}

// tick is the machine's CPU counters read at an offset into a window.
type tick struct {
	at time.Duration
	c  cpuTicks
}

// loadClient returns an HTTP client that keeps one connection per
// closed-loop worker open.
func loadClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     connections,
		MaxIdleConnsPerHost: connections,
		DisableCompression:  true,
	}}
}

// drive runs sequence seq of w against url for dur from request 0, on
// `connections` workers pulling the next request index from a shared
// counter. With tr set, every request is traced: a root span per
// request with the generation, the HTTP exchange and the answer decode
// as children, all carrying the request's index.
func drive(ctx context.Context, w workload, url, seq string, dur time.Duration, tr *tracer) *window {
	c := loadClient()
	defer c.CloseIdleConnections()
	var next atomic.Int64
	var acked atomic.Int64
	per := make([][]sample, connections)
	cpu0 := cpuTime()
	t0 := time.Now()
	deadline := t0.Add(dur)
	ticks := []tick{{0, readCPUTicks()}}
	stopTicks, ticked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ticked)
		tc := time.NewTicker(slice)
		defer tc.Stop()
		for {
			select {
			case <-stopTicks:
				return
			case now := <-tc.C:
				ticks = append(ticks, tick{now.Sub(t0), readCPUTicks()})
			}
		}
	}()
	var wg sync.WaitGroup
	for k := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				root := tr.start("request", 0, i)
				gen := tr.start("generate", root, i)
				req := w.request(seq, i)
				tr.end(gen, len(req.rows))
				s := sample{req: req}
				h := tr.start("http", root, i)
				t := time.Now()
				status, hdr, body, err := call(c, http.MethodPost, url+req.path, req.body, nil)
				s.lat, s.at = time.Since(t), t.Sub(t0)
				tr.end(h, len(req.rows))
				if err == nil {
					dec := tr.start("decode", root, i)
					s.ans, err = decodeAnswer(req, status, hdr, body)
					tr.end(dec, len(req.rows))
				}
				tr.end(root, len(req.rows))
				if err == nil {
					err = shape(req, s.ans)
				}
				s.err = err
				if err == nil && req.op == opIngest {
					acked.Add(int64(s.ans.ingested))
				}
				// Keep the rows and results only where the oracle or the
				// JSON probes will read them: a small live heap keeps the
				// harness's garbage collection out of the measurement.
				if i >= jsonProbeRequests {
					s.req.body = nil
					if !w.sampled(i) {
						s.req.rows, s.req.errs, s.ans.densities, s.ans.labels = nil, nil, nil, nil
					}
				}
				per[k] = append(per[k], s)
			}
		}()
	}
	wg.Wait()
	close(stopTicks)
	<-ticked
	win := &window{ticks: ticks, elapsed: time.Since(t0), cpu: cpuTime() - cpu0, acked: int(acked.Load())}
	for _, p := range per {
		win.samples = append(win.samples, p...)
	}
	slices.SortFunc(win.samples, func(a, b sample) int { return a.req.idx - b.req.idx })
	return win
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// outcome is a window's end-to-end summary. Throughput and the
// latency quantiles are taken over the window's quiet half (see quiet);
// the rest over the whole window.
type outcome struct {
	attempted, ok, failed int
	throughput            float64 // OK answers per second of the quiet half
	quietSeconds          float64
	quietSteal            float64 // percent of CPU time stolen in the quiet half
	allThroughput         float64 // OK answers per second of the whole window
	p50, p90, p95         time.Duration
	p99, p999             time.Duration
	n                     int // latency samples behind the quantiles
	writeP50              time.Duration
	writes                int
	meanLat               time.Duration
	cpuPerReq             time.Duration
	failures              []error
}

// summarize compares the window's sampled answers with the oracle and
// computes its end-to-end metrics. Every failed request — a transport
// error, a non-2xx status, a malformed or wrong answer — counts as
// failed, and only OK answers contribute latencies.
func summarize(w workload, win *window) outcome {
	o := outcome{attempted: len(win.samples)}
	q := quiet(win)
	var lats, writes []time.Duration
	var sum time.Duration
	for _, s := range win.samples {
		err := s.err
		if err == nil && w.sampled(s.req.idx) {
			err = w.verify(s.req, s.ans)
		}
		if err != nil {
			o.failed++
			o.failures = append(o.failures, err)
			continue
		}
		o.ok++
		if q.holds(s.at + s.lat) {
			lats = append(lats, s.lat)
		}
		sum += s.lat
		if s.req.op == opIngest {
			writes = append(writes, s.lat)
		}
	}
	o.allThroughput = float64(o.ok) / win.elapsed.Seconds()
	o.quietSeconds, o.quietSteal = q.length().Seconds(), q.steal
	o.throughput = float64(len(lats)) / o.quietSeconds
	o.n, o.writes = len(lats), len(writes)
	if len(lats) > 0 {
		o.p50, o.p90, o.p95 = quantile(lats, 0.50), quantile(lats, 0.90), quantile(lats, 0.95)
		o.p99, o.p999 = quantile(lats, 0.99), quantile(lats, 0.999)
	}
	if o.ok > 0 {
		o.meanLat = sum / time.Duration(o.ok)
	}
	if len(writes) > 0 {
		o.writeP50 = quantile(writes, 0.50)
	}
	if o.attempted > 0 {
		o.cpuPerReq = win.cpu / time.Duration(o.attempted)
	}
	return o
}

// quietHalf is the part of a window the end-to-end metrics are taken
// over: a set of slices, each [from, to) from the window's start.
type quietHalf struct {
	from, to []time.Duration
	steal    float64
}

// quiet picks the half of the window's full slices (rounded up) in
// which the host stole the least CPU time, earlier slices first among
// equals. On a shared host the hypervisor takes the cores away from
// the whole machine for seconds at a time, and a request that waits
// for it measures the host, not the program; the quieter half keeps
// most of that out of the comparison of two commits. A window shorter
// than two slices is taken whole.
func quiet(win *window) quietHalf {
	n := len(win.ticks) - 1
	if n < 2 {
		return quietHalf{from: []time.Duration{0}, to: []time.Duration{win.elapsed}}
	}
	idx := make([]int, n)
	for k := range idx {
		idx[k] = k
	}
	steal := func(k int) float64 { return stealPct(win.ticks[k].c, win.ticks[k+1].c) }
	slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(steal(a), steal(b)) })
	idx = idx[:(n+1)/2]
	slices.Sort(idx)
	var q quietHalf
	var stolen, total float64
	for _, k := range idx {
		q.from = append(q.from, win.ticks[k].at)
		q.to = append(q.to, win.ticks[k+1].at)
		stolen += win.ticks[k+1].c.steal - win.ticks[k].c.steal
		total += win.ticks[k+1].c.total - win.ticks[k].c.total
	}
	if total > 0 {
		q.steal = 100 * stolen / total
	}
	return q
}

// holds reports whether offset t falls in one of q's slices.
func (q quietHalf) holds(t time.Duration) bool {
	k, _ := slices.BinarySearch(q.to, t+1) // first slice ending after t
	return k < len(q.to) && t >= q.from[k]
}

func (q quietHalf) length() time.Duration {
	var d time.Duration
	for k := range q.from {
		d += q.to[k] - q.from[k]
	}
	return d
}
