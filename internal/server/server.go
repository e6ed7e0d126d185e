package server

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"udm/internal/kde"
	"udm/internal/obs"
)

// Options configure the serving layer. The zero value is usable; every
// field has a production-minded default.
type Options struct {
	// MaxBatch caps how many coalesced single-point requests ride one
	// batched library call (default 64).
	MaxBatch int
	// BatchDelay bounds how long a single-point request may wait in
	// its model's coalescer (default 2ms, which 0 also selects). A
	// request that finds no batch running flushes at once; requests
	// that arrive while one runs queue and ride the next batch
	// together, flushing early at MaxBatch or when this bound expires.
	// Negative disables coalescing: every request flushes at once in
	// a batch of its own. Shedding and caching apply either way.
	BatchDelay time.Duration
	// RequestTimeout bounds each request's server-side work (default
	// 30s). Exceeding it returns 504 and cancels the underlying batch
	// computation through the context-first library APIs.
	RequestTimeout time.Duration
	// MaxInflight caps concurrently-admitted /v1 requests; excess
	// requests are shed immediately with 429 (default 256).
	MaxInflight int
	// CacheSize bounds the density LRU cache in entries (default 4096;
	// negative disables caching).
	CacheSize int
	// CacheQuantum quantizes density-cache keys: 0 (default) keys on
	// exact float bits — cached answers stay bit-identical to direct
	// library calls — while a positive quantum trades exactness for hit
	// rate on nearby points.
	CacheQuantum float64
	// Workers caps the worker pool used for batched evaluations (≤ 0 =
	// GOMAXPROCS).
	Workers int
	// Debug enables the runtime introspection surface: /debug/pprof/*,
	// /debug/traces (recent request traces), /debug/slow (spans over the
	// slow threshold), and runtime gauges on the metrics registry
	// (default off — these endpoints are unauthenticated).
	Debug bool
	// SlowRequest is the span duration at or above which a request is
	// logged as slow and retained in the slow-span ring (default 1s;
	// negative disables slow tracking).
	SlowRequest time.Duration
	// SlowLogf receives slow-span log lines (default log.Printf). It
	// must be safe for concurrent use.
	SlowLogf func(format string, args ...any)

	// RetryMax is how many times a transiently-failed model evaluation
	// is re-run beyond the first attempt (default 2; negative disables
	// retries). Input errors, context endings and breaker refusals are
	// never retried.
	RetryMax int
	// RetryBase and RetryCap bound the decorrelated-jitter backoff
	// between retry attempts: each sleep is drawn from [RetryBase,
	// 3×previous] and clamped to RetryCap (defaults 5ms and 250ms).
	RetryBase time.Duration
	RetryCap  time.Duration
	// RetrySeed seeds the backoff jitter stream, making retry schedules
	// reproducible for a fixed seed and arrival order (default 1).
	RetrySeed int64
	// BreakerThreshold is the number of consecutive transient evaluation
	// failures that opens a model's circuit breaker (default 5; negative
	// disables breakers). While open, requests for that model fail fast
	// with 503 circuit_open — or are served stale densities in degraded
	// mode — without touching the model.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses traffic before
	// letting probe requests through (default 5s).
	BreakerCooldown time.Duration
	// BreakerProbes is how many half-open probe requests may be in
	// flight at once, and how many must succeed consecutively to close
	// the breaker again (default 1).
	BreakerProbes int

	// TenantMaxInflight is the default per-tenant fair-share cap on
	// concurrently admitted /v1 requests (default MaxInflight, i.e. no
	// tighter than the global gate until configured; negative =
	// unlimited). One tenant bursting past its share sheds with 429
	// tenant_overloaded while other tenants keep their headroom.
	TenantMaxInflight int
	// TenantMaxModels is the default per-tenant cap on occupied registry
	// slots, active or staged (0 = unlimited).
	TenantMaxModels int
	// TenantMaxPoints is the default per-tenant cap on resident
	// summarized points across active models (0 = unlimited); ingest and
	// staged uploads that would exceed it are refused with 429
	// quota_exceeded.
	TenantMaxPoints int64
	// TenantQuotas overrides the three per-tenant caps for specific
	// tenants; zero fields inherit the defaults above.
	TenantQuotas map[string]Quota

	// ModelKDE is the estimator policy applied to models staged via
	// PUT /v1/t/{tenant}/models/{model} (the upload carries only the
	// artifact; evaluation policy is the operator's).
	ModelKDE kde.Options
	// ModelThreshold is the classifier density threshold for staged
	// transform uploads (0 = the library default).
	ModelThreshold float64
}

// WithDefaults returns o with every zero field set to its default —
// the one place the serving options are defaulted, shared by udmserve
// and udmproxy. Negative SlowRequest and RetryMax become 0 (disabled).
func (o Options) WithDefaults() Options {
	if o.MaxBatch == 0 {
		o.MaxBatch = 64
	}
	if o.BatchDelay == 0 {
		o.BatchDelay = 2 * time.Millisecond
	}
	if o.RequestTimeout == 0 {
		o.RequestTimeout = 30 * time.Second
	}
	if o.MaxInflight == 0 {
		o.MaxInflight = 256
	}
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	if o.SlowRequest == 0 {
		o.SlowRequest = time.Second
	} else if o.SlowRequest < 0 {
		o.SlowRequest = 0 // 0 disables slow tracking in the tracer
	}
	if o.SlowLogf == nil {
		o.SlowLogf = log.Printf
	}
	if o.RetryMax == 0 {
		o.RetryMax = 2
	} else if o.RetryMax < 0 {
		o.RetryMax = 0
	}
	if o.RetryBase == 0 {
		o.RetryBase = 5 * time.Millisecond
	}
	if o.RetryCap == 0 {
		o.RetryCap = 250 * time.Millisecond
	}
	if o.RetrySeed == 0 {
		o.RetrySeed = 1
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown == 0 {
		o.BreakerCooldown = 5 * time.Second
	}
	if o.BreakerProbes == 0 {
		o.BreakerProbes = 1
	}
	if o.TenantMaxInflight == 0 {
		o.TenantMaxInflight = o.MaxInflight
	}
	return o
}

// Server is the HTTP serving layer: routing, admission control,
// micro-batching, caching, metrics and lifecycle over a model
// registry.
type Server struct {
	reg      *Registry
	opt      Options
	metrics  *Metrics
	tracer   *obs.Tracer
	cache    *lruCache
	inflight chan struct{}
	handler  http.Handler
	ready    atomic.Bool

	// Resilience: shared retry pacing, one breaker per (tenant, model)
	// slot — shared across that slot's versions, created lazily — and
	// the stale density cache backing degraded mode. The stale cache is
	// keyed without the model version or generation, so entries survive
	// the bumps that retire the exact cache — deliberately: a stale
	// answer is degraded mode's whole point.
	retry    *retrier
	brMu     sync.Mutex
	breakers map[string]*breaker // key: tenant + "\x00" + name
	stale    *lruCache

	// ingestSeen remembers recently acknowledged ingest batches by
	// idempotency key so a retry of a lost response never re-applies
	// records (idempotency.go).
	ingestSeen *ingestDedup

	// tenantStates holds each tenant's fair-share admission ledger and
	// labeled counters, created on first sight (tenancy.go).
	tnMu         sync.Mutex
	tenantStates map[string]*tenantState

	httpSrv *http.Server

	// runtimes maps each published *Model instance — not its name — to
	// its coalescing batchers, so a micro-batch only ever contains
	// requests that resolved the same (model, generation) pair: the
	// version-pinning half of atomic hot-swap. baseCtx parents every
	// batch flush; retired instances are drained and dropped on swap.
	baseCtx  context.Context
	rtMu     sync.Mutex
	runtimes map[*Model]*modelBatchers
}

// modelBatchers holds one coalescer per (model, operation) pair.
// Classify and full-dimensional density each get one; density requests
// over explicit dimension subsets bypass coalescing (a batch must share
// one dims slice).
type modelBatchers struct {
	classify *batcher[[]float64, int]
	density  *batcher[[]float64, float64]
}

// New builds a server over a fully-populated registry. The registry
// must not be mutated afterwards. Batch work is unbounded by any
// caller lifecycle; use NewContext to tie in-flight batches to a
// lifetime.
func New(reg *Registry, opt Options) *Server {
	return NewContext(context.Background(), reg, opt)
}

// NewContext is New with an explicit lifecycle context: every
// micro-batched library call descends from ctx, so canceling it
// abandons in-flight batch work (individual waiters still observe
// their own request contexts first). A nil ctx means an unbounded
// lifetime.
func NewContext(ctx context.Context, reg *Registry, opt Options) *Server {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.WithDefaults()
	s := &Server{
		reg:     reg,
		opt:     opt,
		metrics: newMetrics(),
		tracer: obs.NewTracer(obs.TracerOptions{
			RingSize:      256,
			SlowThreshold: opt.SlowRequest,
			SlowLogf:      opt.SlowLogf,
		}),
		cache:        newLRUCache(opt.CacheSize),
		inflight:     make(chan struct{}, opt.MaxInflight),
		breakers:     make(map[string]*breaker),
		stale:        newLRUCache(opt.CacheSize),
		ingestSeen:   newIngestDedup(),
		tenantStates: make(map[string]*tenantState),
		runtimes:     make(map[*Model]*modelBatchers),
	}
	s.retry = newRetrier(opt, s.metrics.Retries)
	s.metrics.reg.GaugeFunc("udm_server_cache_entries", "live density-cache entries",
		func() float64 { return float64(s.cache.len()) })
	if opt.Debug {
		obs.RegisterRuntimeGauges(s.metrics.reg)
	}
	// Batch flushes run under the server lifecycle context, not any one
	// request's; carry the server tracer so their library spans land in
	// the same rings as request spans. Batchers themselves are built
	// lazily per published model instance (see runtime) — models now
	// appear and swap at runtime, not only before the server starts.
	s.baseCtx = obs.WithTracer(ctx, s.tracer)
	s.handler = s.routes()
	s.ready.Store(true)
	return s
}

// breakerFor get-or-creates the circuit breaker for a (tenant, model)
// slot. The breaker outlives version swaps on purpose: a promote is
// not evidence the dependency recovered, and a rollback must not reset
// accumulated failure state. The metric label stays the bare model
// name for the default tenant so pre-tenancy dashboards keep working.
func (s *Server) breakerFor(tenant, name string) *breaker {
	key := tenant + "\x00" + name
	s.brMu.Lock()
	defer s.brMu.Unlock()
	br, ok := s.breakers[key]
	if !ok {
		br = newBreaker(qualified(tenant, name), s.opt, s.metrics.reg)
		s.breakers[key] = br
	}
	return br
}

// runtime get-or-creates the coalescing batchers for one published
// (model, generation) pair, keyed by model instance: every request in
// a coalesced batch resolved the same instance, so a batch can never
// span a version swap. Flush closures capture the instance and the
// slot's breaker, and run under the server lifecycle context.
func (s *Server) runtime(sm *servedModel) *modelBatchers {
	s.rtMu.Lock()
	defer s.rtMu.Unlock()
	mb, ok := s.runtimes[sm.m]
	if ok {
		return mb
	}
	m, opt := sm.m, s.opt
	br := s.breakerFor(sm.tenant, m.Name())
	mb = &modelBatchers{}
	if clf := m.Classifier(); clf != nil {
		mb.classify = newBatcher(s.baseCtx, opt.MaxBatch, opt.BatchDelay, s.metrics,
			func(ctx context.Context, reqs [][]float64) ([]int, error) {
				return retryDo(ctx, s.retry, br, func(ctx context.Context) ([]int, error) {
					if err := evalFault.Hit(ctx); err != nil {
						return nil, err
					}
					return clf.ClassifyBatchContext(ctx, reqs, opt.Workers)
				})
			})
	}
	mb.density = newBatcher(s.baseCtx, opt.MaxBatch, opt.BatchDelay, s.metrics,
		func(ctx context.Context, reqs [][]float64) ([]float64, error) {
			return retryDo(ctx, s.retry, br, func(ctx context.Context) ([]float64, error) {
				if err := evalFault.Hit(ctx); err != nil {
					return nil, err
				}
				est, _, err := m.estimator()
				if err != nil {
					return nil, err
				}
				return kde.DensityBatchOpts(est, reqs, nil, kde.BatchOptions{Ctx: ctx, Workers: opt.Workers})
			})
		})
	s.runtimes[sm.m] = mb
	return mb
}

// retire drains and drops a swapped-out model instance's batchers.
// Draining (not killing) them is what makes the swap zero-downtime:
// requests already pinned to the old version flush immediately and
// finish on it, while new arrivals resolve the new instance.
func (s *Server) retire(m *Model) {
	s.rtMu.Lock()
	mb := s.runtimes[m]
	delete(s.runtimes, m)
	s.rtMu.Unlock()
	if mb == nil {
		return
	}
	if mb.classify != nil {
		mb.classify.drain()
	}
	if mb.density != nil {
		mb.density.drain()
	}
}

// Handler returns the root handler (useful for httptest and embedding).
func (s *Server) Handler() http.Handler { return s.handler }

// Metrics exposes the server's counters (useful for tests and
// embedding).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Tracer exposes the server's span tracer: request spans (and the
// library spans they parent) land in its recent and slow rings.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// Serve accepts connections on l until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) Serve(l net.Listener) error {
	s.httpSrv = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s.httpSrv.Serve(l)
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	return s.Serve(l)
}

// Shutdown drains the server gracefully: readiness flips to 503 (so
// load balancers stop routing here), the coalescing batchers flush
// their in-flight queues (so no waiter is stranded behind a max-delay
// timer that outlives the listener), in-flight requests run to
// completion (bounded by ctx), and every stream model is checkpointed
// via its engine's Save. It returns the first error encountered.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	s.rtMu.Lock()
	mbs := make([]*modelBatchers, 0, len(s.runtimes))
	for _, mb := range s.runtimes {
		mbs = append(mbs, mb)
	}
	s.rtMu.Unlock()
	for _, mb := range mbs {
		if mb.classify != nil {
			mb.classify.drain()
		}
		if mb.density != nil {
			mb.density.drain()
		}
	}
	var first error
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
	}
	if err := s.reg.Checkpoint(); err != nil && first == nil {
		first = err
	}
	return first
}

// routes wires the endpoint table.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	// Every model route is registered twice: under the tenant namespace
	// /v1/t/{tenant}/models/... and under the legacy /v1/models/...
	// alias, which resolves the tenant from X-UDM-Tenant (defaulting to
	// the default tenant) — pre-tenancy clients keep working unchanged.
	for _, p := range []string{"/v1", "/v1/t/{tenant}"} {
		mux.HandleFunc("GET "+p+"/models", s.handleModels)
		mux.HandleFunc("POST "+p+"/models/{model}/classify", s.guard("classify", s.metrics.ClassifyRequests, s.handleClassify))
		mux.HandleFunc("POST "+p+"/models/{model}/density", s.guard("density", s.metrics.DensityRequests, s.handleDensity))
		mux.HandleFunc("POST "+p+"/models/{model}/outliers", s.guard("outliers", s.metrics.OutlierRequests, s.handleOutliers))
		mux.HandleFunc("POST "+p+"/models/{model}/ingest", s.guard("ingest", s.metrics.IngestRequests, s.handleIngest))
		// Hot-swap lifecycle: stage an uploaded artifact, promote it
		// atomically, roll back to the retired version.
		mux.HandleFunc("PUT "+p+"/models/{model}", s.handleStage)
		mux.HandleFunc("POST "+p+"/models/{model}/promote", s.handlePromote)
		mux.HandleFunc("POST "+p+"/models/{model}/rollback", s.handleRollback)
		// Distributed-serving protocol (internal/distrib): summary pull,
		// partial-term fan-out, and replica catch-up.
		mux.HandleFunc("GET "+p+"/models/{model}/summary", s.handleSummary)
		mux.HandleFunc("GET "+p+"/models/{model}/checkpoint", s.handleCheckpoint)
		mux.HandleFunc("GET "+p+"/models/{model}/tail", s.handleTail)
		mux.HandleFunc("POST "+p+"/models/{model}/partial", s.guard("partial", s.metrics.PartialRequests, s.handlePartial))
	}
	if s.opt.Debug {
		mux.HandleFunc("GET /debug/traces", s.handleTraces)
		mux.HandleFunc("GET /debug/slow", s.handleSlow)
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// guard is the admission-control middleware for /v1 model endpoints:
// resolve and echo the tenant, count the request (total, per-endpoint
// and per-tenant), shed with 429 when MaxInflight requests are already
// admitted globally or the tenant is past its fair-share cap, bound
// the work with the per-request timeout, open the request's root trace
// span, and record the latency of admitted requests overall and per
// endpoint. The global gate is taken first so a tenant-capped request
// still cannot oversubscribe the server; shed responses carry
// X-UDM-Tenant, so a client can tell whose budget ran out.
func (s *Server) guard(endpoint string, endpointCounter *obs.Counter, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	endpointLatency := s.metrics.endpointLatency(endpoint)
	spanName := "server." + endpoint
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.Requests.Add(1)
		endpointCounter.Add(1)
		tenant, ok := requestTenant(r)
		if !ok {
			s.badTenant(w, r.PathValue("tenant"))
			return
		}
		w.Header().Set(TenantHeader, tenant)
		ts := s.tenant(tenant)
		ts.requests.Inc()
		select {
		case s.inflight <- struct{}{}:
		default:
			s.metrics.Shed.Add(1)
			w.Header().Set("Retry-After", "1")
			writeError(w, s.metrics, http.StatusTooManyRequests, "overloaded",
				fmt.Sprintf("more than %d requests in flight", s.opt.MaxInflight))
			return
		}
		defer func() { <-s.inflight }()
		if !ts.acquire() {
			s.metrics.Shed.Add(1)
			ts.shed.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, s.metrics, http.StatusTooManyRequests, "tenant_overloaded",
				fmt.Sprintf("tenant %q has more than %d requests in flight", tenant, ts.limit))
			return
		}
		defer ts.release()
		ctx, cancel := context.WithTimeout(r.Context(), s.opt.RequestTimeout)
		defer cancel()
		ctx, sp := obs.StartSpan(obs.WithTracer(ctx, s.tracer), spanName)
		defer sp.End()
		sp.Attr("model", qualified(tenant, r.PathValue("model")))
		start := time.Now()
		h(w, r.WithContext(ctx))
		d := time.Since(start)
		s.metrics.Latency.Observe(d.Seconds())
		endpointLatency.Observe(d.Seconds())
	}
}
