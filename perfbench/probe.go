package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"udm/internal/core"
	"udm/internal/distrib"
	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/obs"
	"udm/internal/server"
	"udm/internal/stream"
)

// Probe sizes: how many of the main sequence's first requests each
// in-process probe replays.
const (
	jsonProbeRequests   = 500
	evalProbeRequests   = 200
	replayProbeRequests = 300
	coalesceProbeItems  = 300
	rebuildReps         = 20
	spanProbeOps        = 20000

	// serveBatchDelay and serveMaxBatch are udmserve's and udmproxy's
	// default coalescing window and batch cap.
	serveBatchDelay = 2 * time.Millisecond
	serveMaxBatch   = 64
)

// prober runs a traced run's layer probes. Each probe calls one
// layer's public functions in process, on the workload's own requests
// and artifacts, inside spans.
type prober struct {
	t       *tracer
	w       workload
	samples []sample // the traced window, in request order
	allocs  float64  // allocations per request replayed in process
}

// requests returns the first n requests of the main sequence that keep
// pred.
func (p *prober) requests(n int, pred func(request) bool) []request {
	var out []request
	for i := 0; len(out) < n && i < 50*n; i++ {
		if r := p.w.request("main", i); pred(r) {
			out = append(out, r)
		}
	}
	return out
}

func isOp(op string) func(request) bool { return func(r request) bool { return r.op == op } }

// jsonCodec decodes the window's request bodies into the server's wire
// types and encodes its answers from them, as the server does.
func (p *prober) jsonCodec() error {
	for _, s := range p.samples {
		if s.req.body == nil {
			break
		}
		if s.err != nil {
			continue
		}
		var in, out any
		switch s.req.op {
		case opDensity:
			in = new(server.DensityRequest)
			resp := server.DensityResponse{Densities: s.ans.densities}
			if s.req.single {
				resp.Density = &s.ans.densities[0]
			}
			out = resp
		case opClassify:
			in = new(server.ClassifyRequest)
			resp := server.ClassifyResponse{Labels: s.ans.labels}
			if s.req.single {
				resp.Label = &s.ans.labels[0]
			}
			out = resp
		case opIngest:
			in = new(server.IngestRequest)
			out = server.IngestResponse{Ingested: s.ans.ingested, Count: s.ans.count}
		}
		rows := len(s.req.rows)
		if err := p.t.timed("json.decode", 0, s.req.idx, rows, func() error {
			dec := json.NewDecoder(bytes.NewReader(s.req.body))
			dec.DisallowUnknownFields()
			return dec.Decode(in)
		}); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := p.t.timed("json.encode", 0, s.req.idx, rows, func() error {
			return json.NewEncoder(&buf).Encode(out)
		}); err != nil {
			return err
		}
	}
	return nil
}

// kde times the estimator: each density request's rows as one batch,
// each request's first row alone, and rebuilds of the estimator from
// the model's summary (what a stream model pays after every version
// bump, and the proxy after every ingest).
func (p *prober) kde(est kde.Estimator, sum *microcluster.Summarizer, opt kde.Options) error {
	for _, r := range p.requests(evalProbeRequests, isOp(opDensity)) {
		if err := p.t.timed("kde.DensityBatchOpts", 0, r.idx, len(r.rows), func() error {
			_, err := densities(est, r.rows)
			return err
		}); err != nil {
			return err
		}
		if err := p.t.timed("kde.single", 0, r.idx, 1, func() error {
			_, err := densities(est, r.rows[:1])
			return err
		}); err != nil {
			return err
		}
	}
	for range rebuildReps {
		if err := p.t.timed("kde.NewCluster", 0, -1, sum.Len(), func() error {
			_, err := kde.NewCluster(sum, opt)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// classify times the subspace classifier on each classify request.
func (p *prober) classify(clf *core.Classifier) error {
	for _, r := range p.requests(evalProbeRequests, isOp(opClassify)) {
		if err := p.t.timed("core.ClassifyBatchContext", 0, r.idx, len(r.rows), func() error {
			_, err := clf.ClassifyBatchContext(context.Background(), r.rows, 0)
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// stream times record ingestion and the summary snapshot a stream
// model takes before every estimator rebuild.
func (p *prober) stream(eng *stream.Engine) error {
	ts := int64(eng.Count())
	for _, r := range p.requests(evalProbeRequests, isOp(opIngest)) {
		id := p.t.start("stream.Engine.Add", 0, r.idx)
		for k, x := range r.rows {
			ts++
			eng.Add(x, r.errs[k], ts)
		}
		p.t.end(id, len(r.rows))
	}
	for range rebuildReps {
		if err := p.t.timed("stream.Engine.Summarizer", 0, -1, 1, func() error {
			_, err := eng.Summarizer()
			return err
		}); err != nil {
			return err
		}
	}
	return nil
}

// coalesceItem is one single-point request waiting in the coalescer.
type coalesceItem struct {
	x   []float64
	idx int
	at  time.Time
}

// coalesce replays the workload's coalesced single-point requests
// through the server's coalescer at udmserve's default window, from
// `connections` closed-loop callers, recording each item's wait from
// submission to the start of its batch. eval answers a batch per op.
func (p *prober) coalesce(reqs []request, eval map[string]func([][]float64) error) error {
	if len(reqs) == 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cs := map[string]*server.Coalescer[coalesceItem, struct{}]{}
	for op, f := range eval {
		cs[op] = server.NewCoalescer(ctx, serveMaxBatch, serveBatchDelay,
			func(_ context.Context, items []coalesceItem) ([]struct{}, error) {
				now := time.Now()
				rows := make([][]float64, len(items))
				for k, it := range items {
					p.t.record("server.coalesce_wait", 0, it.idx, it.at, now, 1)
					rows[k] = it.x
				}
				err := f(rows)
				p.t.record("server.coalesce_batch", 0, -1, now, time.Now(), len(items))
				return make([]struct{}, len(items)), err
			})
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := 0
	for range connections {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if _, err := cs[r.op].Do(ctx, coalesceItem{x: r.rows[0], idx: r.idx, at: time.Now()}); err != nil {
					mu.Lock()
					firstErr = err
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for _, c := range cs {
		c.Drain()
	}
	return firstErr
}

// obsSpan times a span start and end on a tracer set up as udmserve
// sets up its own.
func (p *prober) obsSpan() {
	t := obs.NewTracer(obs.TracerOptions{RingSize: 256, SlowThreshold: time.Second, SlowLogf: log.Printf})
	ctx := obs.WithTracer(context.Background(), t)
	id := p.t.start("obs.StartSpan+End", 0, -1)
	for range spanProbeOps {
		_, sp := obs.StartSpan(ctx, "server.density")
		sp.Attr("model", "probe")
		sp.End()
	}
	p.t.end(id, spanProbeOps)
}

// replay serves the first requests of the main sequence through an
// in-process handler and counts the heap allocations per request,
// net of the same loop through a handler that only drains the body.
func (p *prober) replay(h http.Handler, n int) error {
	reqs := p.requests(n, func(request) bool { return true })
	run := func(h http.Handler, span string) (uint64, error) {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for _, r := range reqs {
			hr := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
			rec := httptest.NewRecorder()
			id := p.t.start(span, 0, r.idx)
			h.ServeHTTP(rec, hr)
			p.t.end(id, len(r.rows))
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("in-process replay of request %d: %d %s", r.idx, rec.Code, rec.Body.Bytes())
			}
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, nil
	}
	noop := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
	})
	base, err := run(noop, "replay.noop")
	if err != nil {
		return err
	}
	got, err := run(h, "server.Handler")
	if err != nil {
		return err
	}
	p.allocs = (float64(got) - float64(base)) / float64(len(reqs))
	return nil
}

// --- per-workload probes ---

func (w *staticWorkload) probe(ctx context.Context, e *env, d *deployment, p *prober) error {
	o := w.oracle[w.tenants[0]]
	if err := p.jsonCodec(); err != nil {
		return err
	}
	if err := p.kde(o.est, o.sum, serveKDE()); err != nil {
		return err
	}
	if err := p.classify(o.clf); err != nil {
		return err
	}
	singles := p.requests(coalesceProbeItems, func(r request) bool { return r.single && !r.hot })
	if err := p.coalesce(singles, map[string]func([][]float64) error{
		opDensity: func(rows [][]float64) error { _, err := densities(o.est, rows); return err },
		opClassify: func(rows [][]float64) error {
			_, err := o.clf.ClassifyBatchContext(context.Background(), rows, 0)
			return err
		},
	}); err != nil {
		return err
	}
	p.obsSpan()
	reg := server.NewRegistry()
	for _, t := range w.tenants {
		tr, err := core.LoadTransformFile(filepath.Join(d.dir, t+".gob"))
		if err != nil {
			return err
		}
		m, err := server.NewTransformModel(w.model, tr, core.ClassifierOptions{KDE: serveKDE()})
		if err != nil {
			return err
		}
		if err := reg.AddTenant(t, m); err != nil {
			return err
		}
	}
	return replayOn(p, server.New(reg, server.Options{}), w.replay)
}

// replayOn replays n requests through srv's handler and shuts srv
// down.
func replayOn(p *prober, srv *server.Server, n int) error {
	err := p.replay(srv.Handler(), n)
	if serr := srv.Shutdown(context.Background()); err == nil {
		err = serr
	}
	return err
}

func (w *streamWorkload) probe(ctx context.Context, e *env, d *deployment, p *prober) error {
	if err := p.jsonCodec(); err != nil {
		return err
	}
	sum := w.sums[0]
	opt := serveKDE()
	if w.proxied {
		var err error
		if sum, err = microcluster.MergeSummarizers(w.sums...); err != nil {
			return err
		}
		opt = proxyKDE()
	}
	if err := p.kde(w.est, sum, opt); err != nil {
		return err
	}
	singles := p.requests(coalesceProbeItems, func(r request) bool { return r.single })
	if err := p.coalesce(singles, map[string]func([][]float64) error{
		opDensity: func(rows [][]float64) error { _, err := densities(w.est, rows); return err },
	}); err != nil {
		return err
	}
	p.obsSpan()
	eng, err := pullEngine(e, w.shards(d)[0].url)
	if err != nil {
		return err
	}
	if err := p.stream(eng); err != nil {
		return err
	}
	if !w.proxied {
		eng, err := pullEngine(e, d.front().url)
		if err != nil {
			return err
		}
		m, err := server.NewStreamModel("live", eng, serveKDE(), "")
		if err != nil {
			return err
		}
		reg := server.NewRegistry()
		if err := reg.Add(m); err != nil {
			return err
		}
		return replayOn(p, server.New(reg, server.Options{}), replayProbeRequests)
	}
	if err := w.probeDistrib(e, d, p); err != nil {
		return err
	}
	var shards []distrib.Shard
	for i, s := range w.shards(d) {
		shards = append(shards, distrib.Shard{Name: strconv.Itoa(i), URL: s.url})
	}
	px, err := distrib.NewProxy(shards, []distrib.ModelConfig{{
		Name: "live", Mode: distrib.ModePartitioned, Dims: 10, KDE: proxyKDE(),
	}}, distrib.Options{})
	if err != nil {
		return err
	}
	err = p.replay(px.Handler(), replayProbeRequests)
	if serr := px.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// probeDistrib times the shard wire protocol the proxy speaks: summary
// pulls, the merged head build, partial-term fan-out RPCs pinned to the
// pulled versions, and keyed shard ingest. It calls the endpoints, not
// the Go client types, so the proxy's internals can change freely.
func (w *streamWorkload) probeDistrib(e *env, d *deployment, p *prober) error {
	shards := w.shards(d)
	sums := make([]*microcluster.Summarizer, len(shards))
	versions := make([]uint64, len(shards))
	for range rebuildReps {
		for i, s := range shards {
			if err := p.t.timed("distrib.summary_pull", 0, -1, 1, func() error {
				sum, v, err := pullSummary(e.ctl, s.url)
				if err != nil {
					return err
				}
				sums[i] = sum
				versions[i], err = strconv.ParseUint(v, 10, 64)
				return err
			}); err != nil {
				return err
			}
		}
	}
	var bw []float64
	for range rebuildReps {
		if err := p.t.timed("distrib.merge", 0, -1, 1, func() error {
			merged, err := microcluster.MergeSummarizers(sums...)
			if err != nil {
				return err
			}
			est, err := kde.NewCluster(merged, proxyKDE())
			if err != nil {
				return err
			}
			bw = make([]float64, merged.Dims())
			for j := range bw {
				bw[j] = est.BandwidthFor(j)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	for _, r := range p.requests(evalProbeRequests, isOp(opDensity)) {
		for i, s := range shards {
			body := mustJSON(server.PartialRequest{Points: r.rows, Bandwidths: bw, Version: versions[i]})
			if err := p.t.timed("distrib.partial_rpc", 0, r.idx, len(r.rows), func() error {
				return postOK(e.ctl, s.url+streamPath+"/partial", body, nil)
			}); err != nil {
				return err
			}
		}
	}
	// Keyed ingest changes the shards, so it runs last.
	for k, r := range p.requests(evalProbeRequests/4, isOp(opIngest)) {
		s := shards[k%len(shards)]
		hdr := http.Header{server.IdempotencyHeader: []string{"perfbench-probe-" + strconv.Itoa(r.idx)}}
		if err := p.t.timed("distrib.ingest_rpc", 0, r.idx, len(r.rows), func() error {
			return postOK(e.ctl, s.url+r.path, r.body, hdr)
		}); err != nil {
			return err
		}
	}
	return nil
}

// postOK posts body and fails on any answer but 200.
func postOK(c *http.Client, url string, body []byte, hdr http.Header) error {
	status, _, b, err := call(c, http.MethodPost, url, body, hdr)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: %d %s", url, status, b)
	}
	return nil
}
