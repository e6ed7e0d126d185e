package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"udm/internal/core"
	"udm/internal/datagen"
	"udm/internal/dataset"
	"udm/internal/evalopt"
	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/rng"
	"udm/internal/server"
	"udm/internal/uncertain"
)

const (
	opDensity  = "density"
	opClassify = "classify"
	opIngest   = "ingest"
)

// request is one HTTP call of a workload's sequence.
type request struct {
	idx    int
	op     string
	tenant string // the tenant every answer must echo
	path   string // URL path on the front server
	body   []byte
	rows   [][]float64
	errs   [][]float64 // ingest only
	single bool        // a one-point request (coalesced and cached by the server)
	hot    bool        // drawn from the hot set
}

// answer is the decoded reply to one request.
type answer struct {
	tenant    string
	densities []float64
	labels    []int
	ingested  int
	count     int
	coverage  float64
}

// workload is one traffic mix against one deployment. Everything a
// workload sends is a pure function of its seed.
type workload interface {
	name() string
	// prepare generates the training data and the query population.
	prepare() error
	// deploy writes the artifacts under dir, starts the servers and
	// returns once every /readyz answers 200 and the model is seeded.
	deploy(ctx context.Context, e *env, dir string) (*deployment, error)
	// request returns request i of the sequence named seq.
	request(seq string, i int) request
	// loadOracle builds the library oracle on the deployed artifacts.
	loadOracle(d *deployment) error
	// sampled picks the answers verify sees. Every answer's shape is
	// checked as it arrives; workloads whose model changes under the
	// load sample none and make their exact comparisons in settle.
	sampled(i int) bool
	// verify compares one well-shaped answer with the oracle.
	verify(req request, a answer) error
	// settle runs once the window has quiesced; acked is the number of
	// records the servers acknowledged since deploy. It returns the
	// number of checks made and the failures.
	settle(e *env, d *deployment, acked int) (int, []error)
	// probe times the layers the workload's requests cross, by calling
	// each layer's public functions in process (traced runs only).
	probe(ctx context.Context, e *env, d *deployment, p *prober) error
}

// deployment is one set of running servers.
type deployment struct {
	procs  []*proc // the front is procs[len(procs)-1]
	dir    string
	seeded int // records ingested before the window
}

func (d *deployment) front() *proc { return d.procs[len(d.procs)-1] }

func (d *deployment) stop() {
	for i := len(d.procs) - 1; i >= 0; i-- {
		d.procs[i].stop()
	}
}

// workloads lists the benchmark's traffic mixes; each names itself.
var workloads = []func(seed int64) workload{newPointSmall, newBulkForest, newStreamRW, newProxyFanout}

// serveKDE is the estimator policy udmserve applies with its default
// flags: the error-adjusted kernel and an empty -eval string.
func serveKDE() kde.Options {
	ev, err := evalopt.Parse("")
	if err != nil {
		panic(err) // the empty grammar always parses
	}
	return kde.Options{ErrorAdjust: true, Eval: ev}
}

// proxyKDE is the estimator policy udmproxy applies to partitioned
// models with its default flags.
func proxyKDE() kde.Options { return kde.Options{ErrorAdjust: true} }

// population draws rows like a labeled training set perturbed at f=1,
// the paper's §4 protocol: entry j gets N(0, s²) noise with
// s ~ U(0, 2σ_j), σ_j the column's standard deviation, and s is the
// entry's known error.
type population struct {
	spec  *datagen.Spec
	sigma []float64
}

// newPopulation generates n clean training rows and perturbs them.
func newPopulation(spec *datagen.Spec, n int, r *rng.Source) (population, *dataset.Dataset, error) {
	clean, err := spec.Generate(n, r.Split("clean"))
	if err != nil {
		return population{}, nil, err
	}
	noisy, err := uncertain.Perturb(clean, 1, r.Split("perturb"))
	if err != nil {
		return population{}, nil, err
	}
	_, sigma := clean.ColumnStats()
	return population{spec: spec, sigma: sigma}, noisy, nil
}

// fresh draws n new perturbed rows and their errors.
func (p population) fresh(n int, r *rng.Source) (x, e [][]float64) {
	ds, err := p.spec.Generate(n, r)
	if err != nil {
		panic(err) // the specs are fixed and valid, and n ≥ 1
	}
	e = make([][]float64, n)
	for i, row := range ds.X {
		e[i] = make([]float64, len(row))
		for j := range row {
			s := r.Uniform(0, 2) * p.sigma[j]
			if s > 0 {
				row[j] += r.Norm(0, s)
			}
			e[i][j] = s
		}
	}
	return ds.X, e
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire types of finite floats always encode
	}
	return b
}

// base holds what every workload shares: its seed, its random root and
// the hot set.
type base struct {
	wname string
	root  *rng.Source
	pop   population
	hot   [][]float64
}

func newBase(name string, seed int64) base {
	return base{wname: name, root: rng.New(seed).Split(name)}
}

func (b *base) name() string { return b.wname }

// src is the random stream of request i of sequence seq: independent
// of every other request, so request i never depends on how many
// requests ran before it.
func (b *base) src(seq string, i int) *rng.Source {
	return b.root.Split(seq + "/" + strconv.Itoa(i))
}

// point draws one density query: from the hot set with probability
// hotShare, else fresh.
func (b *base) point(r *rng.Source, hotShare float64) ([]float64, bool) {
	if r.Float64() < hotShare {
		return b.hot[r.Intn(len(b.hot))], true
	}
	x, _ := b.pop.fresh(1, r)
	return x[0], false
}

func densityReq(path, tenant string, rows [][]float64, single bool) request {
	wire := server.DensityRequest{Points: rows}
	if single {
		wire = server.DensityRequest{Point: rows[0]}
	}
	return request{op: opDensity, tenant: tenant, path: path + "/density", body: mustJSON(wire), rows: rows, single: single}
}

func classifyReq(path, tenant string, rows [][]float64, single bool) request {
	wire := server.ClassifyRequest{Points: rows}
	if single {
		wire = server.ClassifyRequest{Point: rows[0]}
	}
	return request{op: opClassify, tenant: tenant, path: path + "/classify", body: mustJSON(wire), rows: rows, single: single}
}

func ingestReq(path, tenant string, rows, errs [][]float64) request {
	wire := server.IngestRequest{Points: rows, Errors: errs}
	return request{op: opIngest, tenant: tenant, path: path + "/ingest", body: mustJSON(wire), rows: rows, errs: errs}
}

// shape checks what every answer must satisfy whatever the model
// state: the tenant echo, one result per row, and well-formed values.
func shape(req request, a answer) error {
	if a.tenant != req.tenant {
		return fmt.Errorf("request %d: tenant echo %q, want %q", req.idx, a.tenant, req.tenant)
	}
	switch req.op {
	case opDensity:
		if len(a.densities) != len(req.rows) {
			return fmt.Errorf("request %d: %d densities for %d rows", req.idx, len(a.densities), len(req.rows))
		}
		for _, d := range a.densities {
			if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
				return fmt.Errorf("request %d: density %v", req.idx, d)
			}
		}
		if a.coverage != 0 {
			return fmt.Errorf("request %d: degraded answer (coverage %v)", req.idx, a.coverage)
		}
	case opClassify:
		if len(a.labels) != len(req.rows) {
			return fmt.Errorf("request %d: %d labels for %d rows", req.idx, len(a.labels), len(req.rows))
		}
	case opIngest:
		if a.ingested != len(req.rows) {
			return fmt.Errorf("request %d: ingested %d of %d rows", req.idx, a.ingested, len(req.rows))
		}
	}
	return nil
}

// sameBits reports the first row whose density differs from want in
// any bit.
func sameBits(req request, got, want []float64) error {
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			return fmt.Errorf("request %d row %d: density %v (bits %#x), library says %v (bits %#x)",
				req.idx, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
	return nil
}

// transformOracle answers like a udmserve transform model: densities
// of the global summary and labels of the subspace classifier, both
// under udmserve's default options.
type transformOracle struct {
	sum *microcluster.Summarizer
	est *kde.ClusterKDE
	clf *core.Classifier
}

func loadTransformOracle(path string) (*transformOracle, error) {
	t, err := core.LoadTransformFile(path)
	if err != nil {
		return nil, err
	}
	clf, err := core.NewClassifier(t, core.ClassifierOptions{KDE: serveKDE()})
	if err != nil {
		return nil, err
	}
	est, err := kde.NewCluster(t.Global(), serveKDE())
	if err != nil {
		return nil, err
	}
	return &transformOracle{sum: t.Global(), est: est, clf: clf}, nil
}

func (o *transformOracle) verify(req request, a answer) error {
	switch req.op {
	case opDensity:
		want, err := densities(o.est, req.rows)
		if err != nil {
			return err
		}
		return sameBits(req, a.densities, want)
	case opClassify:
		want, err := o.clf.ClassifyBatchContext(context.Background(), req.rows, 0)
		if err != nil {
			return err
		}
		for j := range want {
			if a.labels[j] != want[j] {
				return fmt.Errorf("request %d row %d: label %d, library says %d", req.idx, j, a.labels[j], want[j])
			}
		}
	}
	return nil
}

// densities evaluates rows on est as one batch.
func densities(est kde.Estimator, rows [][]float64) ([]float64, error) {
	return kde.DensityBatchOpts(est, rows, nil, kde.BatchOptions{})
}

// densityProbes asks front for the density of every probe point, one
// request per point and once more as one batch, and compares each
// answer with want bit for bit. It returns the number of checks.
func densityProbes(e *env, front, path, tenant string, points [][]float64, want []float64) (int, []error) {
	var errs []error
	reqs := make([]request, 0, len(points)+1)
	for i, x := range points {
		r := densityReq(path, tenant, [][]float64{x}, true)
		r.idx = -1 - i
		reqs = append(reqs, r)
	}
	batch := densityReq(path, tenant, points, false)
	batch.idx = -1 - len(points)
	reqs = append(reqs, batch)
	for k, r := range reqs {
		a, err := send(e.ctl, front, r)
		if err == nil {
			err = shape(r, a)
		}
		if err == nil {
			w := want
			if r.single {
				w = want[k : k+1]
			}
			err = sameBits(r, a.densities, w)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("settle probe: %w", err))
		}
	}
	return len(reqs), errs
}

// modelCount reads the record count udmserve lists for a stream model.
func modelCount(e *env, url, model string) (int, error) {
	var doc struct {
		Models []struct {
			Name  string `json:"name"`
			Count int    `json:"count"`
		} `json:"models"`
	}
	if err := getJSON(e.ctl, url+"/v1/models", &doc); err != nil {
		return 0, err
	}
	for _, m := range doc.Models {
		if m.Name == model {
			return m.Count, nil
		}
	}
	return 0, fmt.Errorf("%s lists no model %q", url, model)
}

// send posts one request and decodes its answer.
func send(c *http.Client, front string, r request) (answer, error) {
	status, hdr, body, err := call(c, http.MethodPost, front+r.path, r.body, nil)
	if err != nil {
		return answer{}, err
	}
	return decodeAnswer(r, status, hdr, body)
}

// decodeAnswer parses a reply into the server's wire types.
func decodeAnswer(r request, status int, hdr http.Header, body []byte) (answer, error) {
	a := answer{tenant: hdr.Get(server.TenantHeader)}
	if status != http.StatusOK {
		return a, fmt.Errorf("request %d: %s answered %d: %s", r.idx, r.path, status, body)
	}
	switch r.op {
	case opDensity:
		var resp server.DensityResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return a, fmt.Errorf("request %d: %w", r.idx, err)
		}
		if r.single && (resp.Density == nil || len(resp.Densities) != 1 ||
			math.Float64bits(*resp.Density) != math.Float64bits(resp.Densities[0])) {
			return a, fmt.Errorf("request %d: single-point answer without a matching density field: %s", r.idx, body)
		}
		a.densities, a.coverage = resp.Densities, resp.Coverage
	case opClassify:
		var resp server.ClassifyResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return a, fmt.Errorf("request %d: %w", r.idx, err)
		}
		if r.single && (resp.Label == nil || len(resp.Labels) != 1 || *resp.Label != resp.Labels[0]) {
			return a, fmt.Errorf("request %d: single-point answer without a matching label field: %s", r.idx, body)
		}
		a.labels = resp.Labels
	case opIngest:
		var resp server.IngestResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return a, fmt.Errorf("request %d: %w", r.idx, err)
		}
		a.ingested, a.count = resp.Ingested, resp.Count
	}
	return a, nil
}
