package main

import (
	"context"
	"fmt"
	"path/filepath"

	"udm/internal/core"
	"udm/internal/datagen"
	"udm/internal/dataset"
	"udm/internal/rng"
)

// staticWorkload serves trained transforms that never change under the
// load, so every answer can be checked against the library as it
// comes. It backs point-small and bulk-forest.
type staticWorkload struct {
	base
	spec    *datagen.Spec
	rows    int      // training rows per model
	q       int      // micro-clusters
	tenants []string // one model copy per tenant
	model   string
	every   int // verify every every-th answer
	replay  int // requests the traced run replays in process

	// draw builds one request for tenant t from its random stream.
	draw func(w *staticWorkload, r *rng.Source, t string) request

	train  map[string]*dataset.Dataset
	oracle map[string]*transformOracle
}

// newPointSmall is the small 2-d two-blobs transform (q=40) served to
// two tenants, each with its own copy. 70% single-point density (half
// of the points from a 64-point hot set, half fresh) and 30%
// single-point classify: evaluation costs microseconds, so the request
// front dominates.
func newPointSmall(seed int64) workload {
	return &staticWorkload{
		base: newBase("point-small", seed), spec: datagen.TwoBlobs(2.5),
		rows: 400, q: 40, tenants: []string{"t1", "t2"}, model: "blobs", every: 1, replay: replayProbeRequests,
		draw: func(w *staticWorkload, r *rng.Source, t string) request {
			if r.Float64() < 0.7 {
				x, hot := w.point(r, 0.5)
				req := densityReq(w.path(t), t, [][]float64{x}, true)
				req.hot = hot
				return req
			}
			x, _ := w.pop.fresh(1, r)
			return classifyReq(w.path(t), t, x, true)
		},
	}
}

// newBulkForest is the forest-cover profile transform (N=20k rows
// perturbed at f=1, q=140, d=10). 80% density requests of 64 fresh
// rows and 20% classify requests of 8 fresh rows: multi-point requests
// bypass the cache and the coalescer, so kde and core do the work.
// Every eighth answer is checked and 40 requests are replayed in
// process: the classifier oracle costs about as much as the server's
// own work.
func newBulkForest(seed int64) workload {
	return &staticWorkload{
		base: newBase("bulk-forest", seed), spec: datagen.ForestCover(),
		rows: 20000, q: 140, tenants: []string{"default"}, model: "forest", every: 8, replay: 40,
		draw: func(w *staticWorkload, r *rng.Source, t string) request {
			if r.Float64() < 0.8 {
				x, _ := w.pop.fresh(64, r)
				return densityReq(w.path(t), t, x, false)
			}
			x, _ := w.pop.fresh(8, r)
			return classifyReq(w.path(t), t, x, false)
		},
	}
}

func (w *staticWorkload) prepare() error {
	w.train = map[string]*dataset.Dataset{}
	for k, t := range w.tenants {
		pop, noisy, err := newPopulation(w.spec, w.rows, w.root.Split("train/"+t))
		if err != nil {
			return err
		}
		if k == 0 {
			w.pop = pop
		}
		w.train[t] = noisy
	}
	w.hot, _ = w.pop.fresh(64, w.root.Split("hot"))
	return nil
}

// path is the URL prefix of tenant t's model. The default tenant uses
// the legacy un-namespaced routes.
func (w *staticWorkload) path(t string) string {
	if t == "default" {
		return "/v1/models/" + w.model
	}
	return "/v1/t/" + t + "/models/" + w.model
}

// writeArtifacts trains one transform per tenant, saves it under dir
// and returns the udmserve -model flags that serve them.
func (w *staticWorkload) writeArtifacts(dir string) ([]string, error) {
	var args []string
	for _, t := range w.tenants {
		tr, err := core.NewTransform(w.train[t], core.TransformOptions{
			MicroClusters: w.q, ErrorAdjust: true, Seed: w.root.Split("order/" + t).Seed(),
		})
		if err != nil {
			return nil, err
		}
		p := filepath.Join(dir, t+".gob")
		if err := tr.SaveFile(p); err != nil {
			return nil, err
		}
		ref := w.model
		if t != "default" {
			ref = t + "/" + w.model
		}
		args = append(args, "-model", ref+"=transform:"+p)
	}
	return args, nil
}

func (w *staticWorkload) deploy(ctx context.Context, e *env, dir string) (*deployment, error) {
	models, err := w.writeArtifacts(dir)
	if err != nil {
		return nil, err
	}
	s, err := start(ctx, e.udmserve(), dir, "udmserve", append([]string{"-addr", "127.0.0.1:0"}, models...)...)
	if err != nil {
		return nil, err
	}
	d := &deployment{procs: []*proc{s}, dir: dir}
	if err := waitReady(ctx, e.ctl, s.url); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (w *staticWorkload) request(seq string, i int) request {
	r := w.src(seq, i)
	t := w.tenants[r.Intn(len(w.tenants))]
	req := w.draw(w, r, t)
	req.idx = i
	return req
}

func (w *staticWorkload) loadOracle(d *deployment) error {
	w.oracle = map[string]*transformOracle{}
	for _, t := range w.tenants {
		o, err := loadTransformOracle(filepath.Join(d.dir, t+".gob"))
		if err != nil {
			return err
		}
		w.oracle[t] = o
	}
	return nil
}

func (w *staticWorkload) sampled(i int) bool { return i%w.every == 0 }

func (w *staticWorkload) verify(req request, a answer) error {
	o, ok := w.oracle[req.tenant]
	if !ok {
		return fmt.Errorf("request %d: no oracle for tenant %q", req.idx, req.tenant)
	}
	return o.verify(req, a)
}

// settle asks every tenant for the hot set's densities, one point at a
// time through the cache and coalescer (point-small's window has
// cached them) and once as a batch, and compares them with the library.
func (w *staticWorkload) settle(e *env, d *deployment, _ int) (int, []error) {
	n := 0
	var errs []error
	for _, t := range w.tenants {
		want, err := densities(w.oracle[t].est, w.hot)
		if err != nil {
			return n, append(errs, err)
		}
		k, es := densityProbes(e, d.front().url, w.path(t), t, w.hot, want)
		n += k
		errs = append(errs, es...)
	}
	return n, errs
}
