package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	"udm/internal/datagen"
	"udm/internal/dataset"
	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/server"
	"udm/internal/stream"
)

// Both write workloads serve a stream model of the forest-cover profile
// (q=140 micro-clusters per engine, d=10) seeded with 20k perturbed
// records. Their model changes under the load, so answers in the
// window are checked for shape only; the exact checks run in settle,
// once the window has quiesced.
const (
	streamQ    = 140
	streamRows = 20000
	streamPath = "/v1/models/live"
	seedBatch  = 500 // records per seeding ingest through the proxy
)

type streamWorkload struct {
	base
	// proxied puts udmproxy in front of two udmserve shards holding a
	// partitioned model; otherwise one udmserve holds the whole model.
	proxied bool
	// ingestShare of the requests ingest 4 rows; the rest are
	// single-point densities, hotShare of them from the hot set.
	ingestShare, hotShare float64

	train *dataset.Dataset
	est   *kde.ClusterKDE // the settle oracle, for the probes
	eng   *stream.Engine  // the pulled engine (stream-rw)
	sums  []*microcluster.Summarizer
}

// newStreamRW is one udmserve holding a stream model: 30% ingest of 4
// rows with per-entry errors, 70% single-point density, half of it
// from a hot set. Every ingest bumps the model version, which retires
// cached densities and forces an estimator rebuild on the next read.
func newStreamRW(seed int64) workload {
	return &streamWorkload{base: newBase("stream-rw", seed), ingestShare: 0.3, hotShare: 0.5}
}

// newProxyFanout is udmproxy in front of 2 udmserve shards holding a
// partitioned stream model, seeded through the proxy so rows land where
// the ring routes them: 90% single-point density, 10% 4-row ingest.
func newProxyFanout(seed int64) workload {
	return &streamWorkload{base: newBase("proxy-fanout", seed), proxied: true, ingestShare: 0.1}
}

func (w *streamWorkload) prepare() error {
	pop, noisy, err := newPopulation(datagen.ForestCover(), streamRows, w.root.Split("train"))
	if err != nil {
		return err
	}
	w.pop, w.train = pop, noisy
	w.hot, _ = w.pop.fresh(64, w.root.Split("hot"))
	return nil
}

// saveEngine writes a stream engine holding rows to path.
func saveEngine(path string, rows *dataset.Dataset) error {
	eng, err := stream.NewEngine(stream.Options{MicroClusters: streamQ, Dims: 10})
	if err != nil {
		return err
	}
	if rows != nil {
		for i, x := range rows.X {
			eng.Add(x, rows.Err[i], int64(i+1))
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := eng.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (w *streamWorkload) deploy(ctx context.Context, e *env, dir string) (*deployment, error) {
	d := &deployment{dir: dir}
	fail := func(err error) (*deployment, error) {
		d.stop()
		return nil, err
	}
	if !w.proxied {
		p := filepath.Join(dir, "live.gob")
		if err := saveEngine(p, w.train); err != nil {
			return nil, err
		}
		s, err := start(ctx, e.udmserve(), dir, "udmserve", "-addr", "127.0.0.1:0", "-model", "live=stream:"+p)
		if err != nil {
			return nil, err
		}
		d.procs = append(d.procs, s)
		if err := waitReady(ctx, e.ctl, s.url); err != nil {
			return fail(err)
		}
		d.seeded = w.train.Len()
		return d, nil
	}
	proxyArgs := []string{"-addr", "127.0.0.1:0", "-model", "live=partitioned:10"}
	for _, sh := range []string{"a", "b"} {
		p := filepath.Join(dir, sh+".gob")
		if err := saveEngine(p, nil); err != nil {
			return fail(err)
		}
		s, err := start(ctx, e.udmserve(), dir, "shard-"+sh, "-addr", "127.0.0.1:0", "-model", "live=stream:"+p)
		if err != nil {
			return fail(err)
		}
		d.procs = append(d.procs, s)
		proxyArgs = append(proxyArgs, "-shard", sh+"="+s.url)
	}
	px, err := start(ctx, e.udmproxy(), dir, "udmproxy", proxyArgs...)
	if err != nil {
		return fail(err)
	}
	d.procs = append(d.procs, px)
	for _, p := range d.procs {
		if err := waitReady(ctx, e.ctl, p.url); err != nil {
			return fail(err)
		}
	}
	for lo := 0; lo < w.train.Len(); lo += seedBatch {
		hi := min(lo+seedBatch, w.train.Len())
		r := ingestReq(streamPath, "default", w.train.X[lo:hi], w.train.Err[lo:hi])
		a, err := send(e.ctl, px.url, r)
		if err == nil {
			err = shape(r, a)
		}
		if err != nil {
			return fail(fmt.Errorf("seeding through the proxy: %w", err))
		}
		d.seeded += a.ingested
	}
	return d, nil
}

func (w *streamWorkload) request(seq string, i int) request {
	r := w.src(seq, i)
	var req request
	if r.Float64() < w.ingestShare {
		x, e := w.pop.fresh(4, r)
		req = ingestReq(streamPath, "default", x, e)
	} else {
		x, hot := w.point(r, w.hotShare)
		req = densityReq(streamPath, "default", [][]float64{x}, true)
		req.hot = hot
	}
	req.idx = i
	return req
}

func (w *streamWorkload) loadOracle(*deployment) error { return nil }

func (w *streamWorkload) sampled(int) bool { return false }

func (w *streamWorkload) verify(request, answer) error { return nil }

// shards returns the udmserve processes holding the model.
func (w *streamWorkload) shards(d *deployment) []*proc {
	if w.proxied {
		return d.procs[:len(d.procs)-1]
	}
	return d.procs
}

// settle checks exactly-once ingest (the servers hold the seeded
// records plus every acknowledged one, no more and no fewer) and
// compares probe densities with the library: for one node, on the
// engine pulled from /checkpoint; behind the proxy, on the merge of the
// shards' summaries (Definition 1), the single node holding all rows.
func (w *streamWorkload) settle(e *env, d *deployment, acked int) (int, []error) {
	var errs []error
	total := 0
	for _, s := range w.shards(d) {
		n, err := modelCount(e, s.url, "live")
		if err != nil {
			return 1, []error{err}
		}
		total += n
	}
	if want := d.seeded + acked; total != want {
		errs = append(errs, fmt.Errorf("exactly-once: servers hold %d records, want %d seeded + %d acknowledged = %d",
			total, d.seeded, acked, want))
	}
	if err := w.pullOracle(e, d); err != nil {
		return 1, append(errs, err)
	}
	if w.eng != nil && w.eng.Count() != total {
		errs = append(errs, fmt.Errorf("exactly-once: /checkpoint holds %d records, /v1/models lists %d", w.eng.Count(), total))
	}
	want, err := densities(w.est, w.hot)
	if err != nil {
		return 1, append(errs, err)
	}
	n, es := densityProbes(e, d.front().url, streamPath, "default", w.hot, want)
	return n + 1, append(errs, es...)
}

// pullOracle rebuilds the library's view of the quiesced model.
func (w *streamWorkload) pullOracle(e *env, d *deployment) error {
	if !w.proxied {
		eng, err := pullEngine(e, d.front().url)
		if err != nil {
			return err
		}
		sum, err := eng.Summarizer()
		if err != nil {
			return err
		}
		w.eng, w.sums = eng, []*microcluster.Summarizer{sum}
		w.est, err = kde.NewCluster(sum, serveKDE())
		return err
	}
	w.sums = w.sums[:0]
	for _, s := range w.shards(d) {
		sum, _, err := pullSummary(e.ctl, s.url)
		if err != nil {
			return err
		}
		w.sums = append(w.sums, sum)
	}
	merged, err := microcluster.MergeSummarizers(w.sums...)
	if err != nil {
		return err
	}
	w.est, err = kde.NewCluster(merged, proxyKDE())
	return err
}

// pullEngine reads a stream model's checkpoint over the wire.
func pullEngine(e *env, url string) (*stream.Engine, error) {
	status, _, b, err := call(e.ctl, http.MethodGet, url+streamPath+"/checkpoint", nil, nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET checkpoint: %d %s", status, b)
	}
	return stream.LoadEngine(bytes.NewReader(b))
}

// pullSummary reads a shard's micro-cluster summary and the version it
// reflects, as the proxy does when it builds its merged head.
func pullSummary(c *http.Client, url string) (*microcluster.Summarizer, string, error) {
	status, hdr, b, err := call(c, http.MethodGet, url+streamPath+"/summary", nil, nil)
	if err != nil {
		return nil, "", err
	}
	if status != http.StatusOK {
		return nil, "", fmt.Errorf("GET summary: %d %s", status, b)
	}
	sum, err := microcluster.Load(bytes.NewReader(b))
	return sum, hdr.Get(server.VersionHeader), err
}
