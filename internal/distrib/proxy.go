package distrib

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"udm/internal/evalopt"
	"udm/internal/kde"
	"udm/internal/kernel"
	"udm/internal/obs"
	"udm/internal/outlier"
	"udm/internal/server"
	"udm/internal/udmerr"
)

// ModelConfig declares one model the proxy serves and how it is laid
// out across the shard set. Every shard must serve the model under the
// same name; Dims and KDE must match the shard-side configuration
// (KDE's bandwidth rule decides the merged head's global bandwidths,
// so a mismatch breaks bit-identity).
type ModelConfig struct {
	// Name is the model's reference: a plain name lives in the default
	// tenant, a qualified "tenant/name" in that tenant's namespace. The
	// proxy addresses the shards through the matching namespace, so a
	// qualified model must be registered under the same tenant on every
	// shard.
	Name string
	Mode Mode
	Dims int
	KDE  kde.Options
}

// Options configure the proxy front tier. The zero value is usable.
type Options struct {
	// Server supplies the knobs the proxy shares with the single-node
	// server: micro-batching (MaxBatch, BatchDelay), admission control
	// (MaxInflight, RequestTimeout), slow-span logging, and the
	// retry/breaker configuration each shard guard runs under.
	Server server.Options
	// FanoutWorkers bounds the scatter stage's concurrency (≤ 0 means
	// one worker per shard is allowed, the parallel pool's default).
	FanoutWorkers int
	// VNodes is the consistent-hash ring's virtual nodes per shard
	// (default 64).
	VNodes int
	// RingSeed seeds the ring layout (default 1). Every proxy replica
	// must use the same seed to route identically.
	RingSeed uint64
	// ShardTimeout bounds each shard RPC attempt (default 10s).
	ShardTimeout time.Duration
	// RefreshMax bounds how many times a fan-out refreshes its head and
	// re-scatters after a shard answers 409 stale_version (default 3).
	RefreshMax int
}

func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = 64
	}
	if o.RingSeed == 0 {
		o.RingSeed = 1
	}
	if o.ShardTimeout <= 0 {
		o.ShardTimeout = 10 * time.Second
	}
	if o.RefreshMax <= 0 {
		o.RefreshMax = 3
	}
	return o
}

// densityItem is one coalesced single-point density answer: the value
// plus the fan-out's coverage (1 on a complete answer).
type densityItem struct {
	d        float64
	coverage float64
}

// proxyModel is one served model: its coordinator plus the coalescer
// that micro-batches concurrent single-point density requests onto one
// fan-out, exactly as the single-node server coalesces them onto one
// batched library call.
type proxyModel struct {
	cfg      ModelConfig
	co       *Coordinator
	coalesce *server.Coalescer[[]float64, densityItem]
}

// Proxy is the distributed front tier: an HTTP server that is drop-in
// URL-compatible with the single-node udmserve surface (/healthz,
// /readyz, /metrics, /v1/models, classify/density/outliers/ingest) and
// answers by fanning out to the shard set. See the package comment for
// the merge-determinism contract.
type Proxy struct {
	opt       Options
	serverOpt server.Options // server.Options.WithDefaults applied
	metrics   *Metrics
	tracer    *obs.Tracer
	shards    []*ShardClient
	models    map[string]*proxyModel
	names     []string
	inflight  chan struct{}
	ready     atomic.Bool
	handler   http.Handler
	httpSrv   *http.Server
}

// NewProxy builds a proxy over the shard set. Like server.New, batch
// work is unbounded by any caller lifecycle; use NewProxyContext to tie
// coalesced fan-outs to a lifetime.
func NewProxy(shards []Shard, models []ModelConfig, opt Options) (*Proxy, error) {
	return NewProxyContext(nil, shards, models, opt)
}

// NewProxyContext is NewProxy with an explicit lifecycle context for
// the coalescers (nil means an unbounded lifetime).
func NewProxyContext(ctx context.Context, shards []Shard, models []ModelConfig, opt Options) (*Proxy, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("distrib: proxy needs at least one shard")
	}
	opt = opt.withDefaults()
	sopt := opt.Server.WithDefaults()
	p := &Proxy{
		opt:       opt,
		serverOpt: sopt,
		metrics:   newProxyMetrics(),
		tracer: obs.NewTracer(obs.TracerOptions{
			RingSize:      256,
			SlowThreshold: sopt.SlowRequest,
			SlowLogf:      sopt.SlowLogf,
		}),
		models:   make(map[string]*proxyModel),
		inflight: make(chan struct{}, sopt.MaxInflight),
	}
	ring, err := NewRing(len(shards), opt.VNodes, opt.RingSeed)
	if err != nil {
		return nil, err
	}
	p.shards = make([]*ShardClient, len(shards))
	for i, sh := range shards {
		p.shards[i] = NewShardClient(i, sh, opt, p.metrics.reg)
	}
	ctx = obs.WithTracer(ctx, p.tracer)
	for _, cfg := range models {
		if _, dup := p.models[cfg.Name]; dup || !validModelRef(cfg.Name) {
			return nil, fmt.Errorf("distrib: duplicate or invalid model reference %q", cfg.Name)
		}
		if cfg.Mode != ModePartitioned && cfg.Mode != ModeReplicated {
			return nil, fmt.Errorf("distrib: model %q: mode %q is not %q or %q: %w",
				cfg.Name, cfg.Mode, ModePartitioned, ModeReplicated, udmerr.ErrBadOption)
		}
		co, err := NewCoordinator(cfg.Name, cfg.Mode, cfg.Dims, cfg.KDE, p.shards, ring, opt, p.metrics)
		if err != nil {
			return nil, err
		}
		pm := &proxyModel{cfg: cfg, co: co}
		pm.coalesce = server.NewCoalescer(ctx, sopt.MaxBatch, sopt.BatchDelay,
			func(ctx context.Context, reqs [][]float64) ([]densityItem, error) {
				var ds []float64
				cov := 1.0
				var err error
				if cfg.Mode == ModePartitioned {
					ds, cov, err = co.Density(ctx, reqs, nil)
				} else {
					ds, err = co.ReplicatedDensity(ctx, reqs, server.DensityRequest{})
				}
				if err != nil {
					return nil, err
				}
				items := make([]densityItem, len(ds))
				for i, d := range ds {
					items[i] = densityItem{d: d, coverage: cov}
				}
				return items, nil
			})
		p.models[cfg.Name] = pm
		p.names = append(p.names, cfg.Name)
	}
	p.handler = p.routes()
	p.ready.Store(true)
	return p, nil
}

// Handler returns the root handler (useful for httptest and embedding).
func (p *Proxy) Handler() http.Handler { return p.handler }

// Metrics exposes the proxy's counters.
func (p *Proxy) Metrics() *Metrics { return p.metrics }

// Coordinator returns the named model's coordinator (nil when absent)
// — exposed for cmd/udmproxy and tests.
func (p *Proxy) Coordinator(model string) *Coordinator {
	pm, ok := p.models[model]
	if !ok {
		return nil
	}
	return pm.co
}

// Serve accepts connections on l until Shutdown.
func (p *Proxy) Serve(l net.Listener) error {
	p.httpSrv = &http.Server{
		Handler:           p.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return p.httpSrv.Serve(l)
}

// ListenAndServe listens on addr and serves until Shutdown.
func (p *Proxy) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("distrib: %w", err)
	}
	return p.Serve(l)
}

// Shutdown drains the proxy: readiness flips to 503, the coalescers
// flush their in-flight queues (the same drain contract as the
// single-node server — no waiter may be stranded on a batch-delay
// timer that outlives the listener), and in-flight requests run to
// completion bounded by ctx.
func (p *Proxy) Shutdown(ctx context.Context) error {
	p.ready.Store(false)
	for _, pm := range p.models {
		pm.coalesce.Drain()
	}
	if p.httpSrv != nil {
		return p.httpSrv.Shutdown(ctx)
	}
	return nil
}

func (p *Proxy) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	mux.HandleFunc("GET /readyz", p.handleReadyz)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	// The proxy mirrors the server's tenant surface: namespaced
	// /v1/t/{tenant}/... routes plus the legacy /v1/... alias resolving
	// the tenant from X-UDM-Tenant (default tenant when absent).
	for _, pre := range []string{"/v1", "/v1/t/{tenant}"} {
		mux.HandleFunc("GET "+pre+"/models", p.handleModels)
		mux.HandleFunc("POST "+pre+"/models/{model}/classify", p.guard("classify", p.handleClassify))
		mux.HandleFunc("POST "+pre+"/models/{model}/density", p.guard("density", p.handleDensity))
		mux.HandleFunc("POST "+pre+"/models/{model}/outliers", p.guard("outliers", p.handleOutliers))
		mux.HandleFunc("POST "+pre+"/models/{model}/ingest", p.guard("ingest", p.handleIngest))
	}
	return mux
}

// validModelRef accepts a plain model name or a "tenant/name"
// qualified reference, both parts under the server's identifier rules.
func validModelRef(ref string) bool {
	if tenant, name, ok := strings.Cut(ref, "/"); ok {
		return server.ValidIdent(tenant) && server.ValidIdent(name)
	}
	return server.ValidIdent(ref)
}

// requestTenant mirrors the server's resolution order: path segment,
// then X-UDM-Tenant, then the default tenant.
func requestTenant(r *http.Request) (string, bool) {
	t := r.PathValue("tenant")
	if t == "" {
		t = r.Header.Get(server.TenantHeader)
	}
	if t == "" {
		return server.DefaultTenant, true
	}
	return t, server.ValidIdent(t)
}

// modelRef builds the registry key a (tenant, name) pair addresses:
// default-tenant models are registered under their plain name.
func modelRef(tenant, name string) string {
	if tenant == server.DefaultTenant {
		return name
	}
	return tenant + "/" + name
}

// guard mirrors the single-node server's admission middleware: request
// counting, load shedding at MaxInflight, the per-request timeout, and
// the root fan-out trace span.
func (p *Proxy) guard(endpoint string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	counter := p.metrics.endpointCounter(endpoint)
	latency := p.metrics.endpointLatency(endpoint)
	spanName := "proxy." + endpoint
	return func(w http.ResponseWriter, r *http.Request) {
		p.metrics.Requests.Inc()
		counter.Inc()
		tenant, ok := requestTenant(r)
		if !ok {
			p.writeError(w, http.StatusBadRequest, "bad_tenant",
				fmt.Sprintf("invalid tenant id %q (want 1-64 chars of [A-Za-z0-9._-])", r.PathValue("tenant")))
			return
		}
		w.Header().Set(server.TenantHeader, tenant)
		select {
		case p.inflight <- struct{}{}:
		default:
			p.metrics.Shed.Inc()
			w.Header().Set("Retry-After", "1")
			p.writeError(w, http.StatusTooManyRequests, "overloaded",
				fmt.Sprintf("more than %d requests in flight", p.serverOpt.MaxInflight))
			return
		}
		defer func() { <-p.inflight }()
		ctx, cancel := context.WithTimeout(r.Context(), p.serverOpt.RequestTimeout)
		defer cancel()
		ctx, sp := obs.StartSpan(obs.WithTracer(ctx, p.tracer), spanName)
		defer sp.End()
		sp.Attr("model", r.PathValue("model"))
		start := time.Now()
		h(w, r.WithContext(ctx))
		d := time.Since(start)
		p.metrics.Latency.Observe(d.Seconds())
		latency.Observe(d.Seconds())
	}
}

func (p *Proxy) writeError(w http.ResponseWriter, status int, code, msg string) {
	p.metrics.Errors.Inc()
	switch status {
	case http.StatusGatewayTimeout:
		p.metrics.Timeouts.Inc()
	case server.StatusClientClosedRequest:
		p.metrics.Canceled.Inc()
	}
	server.WriteErrorBody(w, status, code, msg)
}

func (p *Proxy) fail(w http.ResponseWriter, err error) {
	status, code := server.StatusFor(err)
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	p.writeError(w, status, code, err.Error())
}

// decode parses a JSON request body with the server's strictness.
func (p *Proxy) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		p.writeError(w, http.StatusBadRequest, "malformed_json", err.Error())
		return false
	}
	return true
}

// model resolves the request's (tenant, model) pair against the
// configured model references. The guard already validated and echoed
// the tenant.
func (p *Proxy) model(w http.ResponseWriter, r *http.Request) (*proxyModel, bool) {
	tenant, ok := requestTenant(r)
	if !ok {
		p.writeError(w, http.StatusBadRequest, "bad_tenant",
			fmt.Sprintf("invalid tenant id %q", r.PathValue("tenant")))
		return nil, false
	}
	name := r.PathValue("model")
	pm, ok := p.models[modelRef(tenant, name)]
	if !ok {
		p.writeError(w, http.StatusNotFound, "model_not_found",
			fmt.Sprintf("no model named %q in tenant %q (have %v)", name, tenant, p.names))
		return nil, false
	}
	return pm, true
}

// points mirrors the server's single/multi point normalization and
// width validation.
func (p *Proxy) points(pm *proxyModel, point []float64, rows [][]float64) ([][]float64, bool, error) {
	single := false
	if point != nil {
		rows = append([][]float64{point}, rows...)
		single = len(rows) == 1
	}
	if len(rows) == 0 {
		return nil, false, fmt.Errorf("distrib: no points in request: %w", udmerr.ErrBadOption)
	}
	for i, x := range rows {
		if len(x) != pm.cfg.Dims {
			return nil, false, fmt.Errorf("distrib: point %d has %d dims, model %q has %d: %w",
				i, len(x), pm.cfg.Name, pm.cfg.Dims, udmerr.ErrDimensionMismatch)
		}
	}
	return rows, single, nil
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (p *Proxy) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !p.ready.Load() {
		server.WriteErrorBody(w, http.StatusServiceUnavailable, "draining", "proxy is shutting down")
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleMetrics serves the proxy metrics: a JSON snapshot by default,
// the Prometheus exposition with ?format=prometheus (proxy registry —
// including the shard-labeled series and breaker states — followed by
// the process-wide default registry).
func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := p.metrics.reg.WritePrometheus(w); err != nil {
			return
		}
		_ = obs.Default().WritePrometheus(w)
		return
	}
	server.WriteJSON(w, http.StatusOK, p.metrics.snapshot())
}

func (p *Proxy) handleModels(w http.ResponseWriter, r *http.Request) {
	tenant, ok := requestTenant(r)
	if !ok {
		p.writeError(w, http.StatusBadRequest, "bad_tenant",
			fmt.Sprintf("invalid tenant id %q", r.PathValue("tenant")))
		return
	}
	w.Header().Set(server.TenantHeader, tenant)
	type info struct {
		Name   string `json:"name"`
		Kind   string `json:"kind"`
		Dims   int    `json:"dims"`
		Shards int    `json:"shards"`
	}
	out := make([]info, 0, len(p.names))
	for _, ref := range p.names {
		refTenant, name, qualified := strings.Cut(ref, "/")
		if !qualified {
			refTenant, name = server.DefaultTenant, ref
		}
		if refTenant != tenant {
			continue
		}
		pm := p.models[ref]
		out = append(out, info{Name: name, Kind: string(pm.cfg.Mode), Dims: pm.cfg.Dims, Shards: len(p.shards)})
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{"models": out})
}

func (p *Proxy) handleClassify(w http.ResponseWriter, r *http.Request) {
	pm, ok := p.model(w, r)
	if !ok {
		return
	}
	if pm.cfg.Mode != ModeReplicated {
		p.writeError(w, http.StatusBadRequest, "unsupported_kind",
			fmt.Sprintf("model %q is %s; /classify needs a replicated transform model", pm.cfg.Name, pm.cfg.Mode))
		return
	}
	var req server.ClassifyRequest
	if !p.decode(w, r, &req) {
		return
	}
	rows, single, err := p.points(pm, req.Point, req.Points)
	if err != nil {
		p.fail(w, err)
		return
	}
	labels, err := pm.co.Classify(r.Context(), rows)
	if err != nil {
		p.fail(w, err)
		return
	}
	resp := server.ClassifyResponse{Labels: labels}
	if single {
		resp.Label = &labels[0]
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (p *Proxy) handleDensity(w http.ResponseWriter, r *http.Request) {
	pm, ok := p.model(w, r)
	if !ok {
		return
	}
	var req server.DensityRequest
	if !p.decode(w, r, &req) {
		return
	}
	rows, single, err := p.points(pm, req.Point, req.Points)
	if err != nil {
		p.fail(w, err)
		return
	}
	for _, j := range req.Dims {
		if j < 0 || j >= pm.cfg.Dims {
			p.fail(w, fmt.Errorf("distrib: subspace dimension %d out of range [0,%d): %w",
				j, pm.cfg.Dims, udmerr.ErrDimensionMismatch))
			return
		}
	}
	acc, accOK := kernel.ParseAccuracy(req.Accuracy, req.Epsilon)
	if !accOK {
		p.fail(w, fmt.Errorf("distrib: accuracy %q with epsilon %v is not a valid mode: %w",
			req.Accuracy, req.Epsilon, udmerr.ErrBadOption))
		return
	}
	bkName := req.Backend
	if bkName == "" {
		bkName = r.Header.Get("X-UDM-Backend")
	}
	bk, err := evalopt.ParseBackend(bkName)
	if err != nil {
		p.fail(w, fmt.Errorf("distrib: %w", err))
		return
	}
	if pm.cfg.Mode == ModePartitioned {
		// The partial-term protocol is the exact engine: approximate
		// accuracy modes and backends have no cross-shard merge story.
		if !acc.IsExact() || (bk != evalopt.BackendDefault && bk != evalopt.BackendExact) {
			p.fail(w, fmt.Errorf("distrib: model %q is partitioned; fan-out density is exact-only (got accuracy %q, backend %q): %w",
				pm.cfg.Name, req.Accuracy, bkName, udmerr.ErrBadOption))
			return
		}
		var ds []float64
		coverage := 1.0
		if single && req.Dims == nil {
			item, err := pm.coalesce.Do(r.Context(), rows[0])
			if err != nil {
				p.fail(w, err)
				return
			}
			ds, coverage = []float64{item.d}, item.coverage
		} else {
			ds, coverage, err = pm.co.Density(r.Context(), rows, req.Dims)
			if err != nil {
				p.fail(w, err)
				return
			}
		}
		resp := server.DensityResponse{Densities: ds}
		if single {
			resp.Density = &ds[0]
		}
		if coverage < 1 {
			w.Header().Set("X-UDM-Degraded", "partial")
			resp.Coverage = coverage
		}
		server.WriteJSON(w, http.StatusOK, resp)
		return
	}
	ds, err := pm.co.ReplicatedDensity(r.Context(), rows, req)
	if err != nil {
		p.fail(w, err)
		return
	}
	resp := server.DensityResponse{Densities: ds}
	if single {
		resp.Density = &ds[0]
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

func (p *Proxy) handleOutliers(w http.ResponseWriter, r *http.Request) {
	pm, ok := p.model(w, r)
	if !ok {
		return
	}
	var req server.OutliersRequest
	if !p.decode(w, r, &req) {
		return
	}
	rows, _, err := p.points(pm, nil, req.Points)
	if err != nil {
		p.fail(w, err)
		return
	}
	for i, er := range req.Errors {
		if er != nil && len(er) != pm.cfg.Dims {
			p.fail(w, fmt.Errorf("distrib: error row %d has %d dims, model %q has %d: %w",
				i, len(er), pm.cfg.Name, pm.cfg.Dims, udmerr.ErrDimensionMismatch))
			return
		}
	}
	if pm.cfg.Mode == ModeReplicated {
		resp, err := pm.co.ForwardOutliers(r.Context(), req)
		if err != nil {
			p.fail(w, err)
			return
		}
		server.WriteJSON(w, http.StatusOK, resp)
		return
	}
	// Partitioned: score locally against the merged head — the exact
	// summary of the union of the shards' data, so the scores match a
	// single node's.
	head, err := pm.co.CurrentHead(r.Context())
	if err != nil {
		p.fail(w, err)
		return
	}
	opt := outlier.Options{
		Contamination: req.Contamination,
		Dims:          req.Dims,
		KDE:           pm.cfg.KDE,
	}
	if req.Errors != nil {
		opt.UseQueryError = true
		opt.KDE.ErrorAdjust = true
	}
	res, err := outlier.DetectStream(head.Sum, rows, req.Errors, opt)
	if err != nil {
		p.fail(w, err)
		return
	}
	scores := make([]float64, len(res.Scores))
	for i, v := range res.Scores {
		scores[i] = finite(v)
	}
	server.WriteJSON(w, http.StatusOK, server.OutliersResponse{
		Scores:    scores,
		Outliers:  res.Outlier,
		Threshold: finite(res.Threshold),
	})
}

// finite mirrors the server's JSON clamp for ±Inf/NaN scores.
func finite(v float64) float64 {
	switch {
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsInf(v, 1), math.IsNaN(v):
		return math.MaxFloat64
	}
	return v
}

func (p *Proxy) handleIngest(w http.ResponseWriter, r *http.Request) {
	pm, ok := p.model(w, r)
	if !ok {
		return
	}
	if pm.cfg.Mode != ModePartitioned {
		p.writeError(w, http.StatusBadRequest, "unsupported_kind",
			fmt.Sprintf("model %q is %s; /ingest needs a partitioned stream model", pm.cfg.Name, pm.cfg.Mode))
		return
	}
	var req server.IngestRequest
	if !p.decode(w, r, &req) {
		return
	}
	if _, _, err := p.points(pm, nil, req.Points); err != nil {
		p.fail(w, err)
		return
	}
	if req.Errors != nil && len(req.Errors) != len(req.Points) {
		p.fail(w, fmt.Errorf("distrib: %d error rows for %d points: %w",
			len(req.Errors), len(req.Points), udmerr.ErrDimensionMismatch))
		return
	}
	if req.Timestamps != nil && len(req.Timestamps) != len(req.Points) {
		p.fail(w, fmt.Errorf("distrib: %d timestamps for %d points: %w",
			len(req.Timestamps), len(req.Points), udmerr.ErrDimensionMismatch))
		return
	}
	for i, er := range req.Errors {
		if er != nil && len(er) != pm.cfg.Dims {
			p.fail(w, fmt.Errorf("distrib: error row %d has %d dims, model %q has %d: %w",
				i, len(er), pm.cfg.Name, pm.cfg.Dims, udmerr.ErrDimensionMismatch))
			return
		}
	}
	resp, err := pm.co.Ingest(r.Context(), req)
	if err != nil {
		p.fail(w, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, resp)
}
