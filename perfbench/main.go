// Command perfbench is the serving benchmark: it builds a workload's
// models from a seed, starts the shipped udmserve (and udmproxy) with
// default options, drives them over the HTTP wire API in a closed loop
// of two connections with no think time, checks every sampled answer
// against the library, and prints the end-to-end metrics.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload point-small --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the same workload and seed run again traced: spans
// around the benchmark's own calls into each layer, kept in memory and
// written out at the end, give the per-layer metrics. The last line of
// standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Any wrong answer makes the command exit 1.
// --workload all runs the four workloads in turn, each ending with its
// own result line.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// setups is how many times a run builds and starts its deployment;
	// setup_s is their median. The last deployment is measured.
	setups = 5
	warmup = 2 * time.Second
)

// env is what the workloads need from the harness.
type env struct {
	bin string       // directory holding the udmserve and udmproxy binaries
	ctl *http.Client // control traffic: readiness, scrapes, settle checks
}

func (e *env) udmserve() string { return filepath.Join(e.bin, "udmserve") }
func (e *env) udmproxy() string { return filepath.Join(e.bin, "udmproxy") }

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: point-small, bulk-forest, stream-rw, proxy-fanout, or all of them in turn")
	seed := flag.Int64("seed", 1, "seed of the workload's data and request sequence")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	bin := flag.String("bin", ".bench_build/perfbench/bin", "directory holding the built udmserve and udmproxy")
	work := flag.String("workdir", ".bench_build/perfbench", "directory for artifacts, server logs, traces and results")
	flag.Parse()
	var selected []workload
	for _, mk := range workloads {
		if w := mk(*seed); *name == "all" || *name == w.name() {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// The harness runs on one core and collects garbage rarely, so it
	// never takes both cores from the servers it measures; they keep the
	// default GOMAXPROCS (serverProcs).
	debug.SetGCPercent(400)
	serverProcs := runtime.GOMAXPROCS(1)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code := 0
	for _, w := range selected {
		r := &runner{
			w: w, seed: *seed, serverProcs: serverProcs,
			window: time.Duration(*seconds) * time.Second, traced: *trace == 1,
			e: &env{bin: *bin, ctl: &http.Client{Timeout: time.Minute}}, work: *work,
		}
		res, err := r.run(ctx)
		if err == nil {
			var line []byte
			if line, err = json.Marshal(res); err == nil {
				fmt.Println(string(line))
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			stop()
			os.Exit(1)
		}
		if !res.Correct {
			code = 1
		}
	}
	stop()
	os.Exit(code)
}

// runner is one invocation: one workload, one seed, traced or not.
type runner struct {
	w           workload
	seed        int64
	serverProcs int // GOMAXPROCS the servers run with
	window      time.Duration
	traced      bool
	e           *env
	work        string

	attempted, failed int
	failures          []error
}

// phase is one measured window on one deployment.
type phase struct {
	out        outcome
	start, end []counters // per process, at the window's edges
	acked      int
	samples    []sample
	steal      float64 // percent of the machine's CPU time stolen in the window
}

func (r *runner) run(ctx context.Context) (*result, error) {
	tag := fmt.Sprintf("%s-seed%d-trace%d", r.w.name(), r.seed, b2i(r.traced))
	runDir := filepath.Join(r.work, "runs", fmt.Sprintf("%s-%d", tag, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	prov := provenance(r.seed, r.serverProcs)
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%g trace=%d connections=%d\n",
		r.w.name(), r.seed, r.window.Seconds(), b2i(r.traced), connections)
	fmt.Printf("provenance: %s\n", prov)

	var setupS []float64
	var untraced *phase
	var dep *deployment
	defer func() {
		if dep != nil {
			dep.stop()
		}
	}()
	for k := range setups {
		dir := filepath.Join(runDir, fmt.Sprintf("setup%d", k))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := r.w.prepare(); err != nil {
			return nil, err
		}
		d, err := r.w.deploy(ctx, r.e, dir)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		dep = d
		if k == setups-1 {
			break
		}
		// A traced run measures the same window untraced on the
		// second-to-last deployment: the difference is the tracing
		// overhead, and the harness's own CPU cost is read untraced.
		if r.traced && k == setups-2 {
			if untraced, err = r.measure(ctx, d, nil); err != nil {
				return nil, err
			}
		}
		dep = nil
		d.stop()
	}
	fmt.Printf("setup_s samples: %v\n", setupS)

	var tr *tracer
	if r.traced {
		tr = newTracer()
	}
	ph, err := r.measure(ctx, dep, tr)
	if err != nil {
		return nil, err
	}
	res := &result{}
	var detail map[string]string
	if !r.traced {
		var rss float64
		for _, p := range dep.procs {
			m, err := p.hwmMiB()
			if err != nil {
				return nil, err
			}
			rss += m
		}
		res.Metrics = map[string]metric{
			"throughput_rps": {ph.out.throughput, "req/s"},
			"latency_p50_ms": {ms(ph.out.p50), "ms"},
			"setup_s":        {median(setupS), "s"},
			"peak_rss_mb":    {rss, "MiB"},
		}
		detail = map[string]string{
			"throughput_rps": fmt.Sprintf("%d OK answers in the quiet %.4f s; whole window %.1f req/s", ph.out.n, ph.out.quietSeconds, ph.out.allThroughput),
			"latency_p50_ms": fmt.Sprintf("nearest rank over the quiet half, n=%d", ph.out.n),
			"setup_s":        fmt.Sprintf("median of %d set-ups", len(setupS)),
			"peak_rss_mb":    fmt.Sprintf("sum of VmHWM over %d server processes", len(dep.procs)),
		}
	} else {
		p := &prober{t: tr, w: r.w, samples: ph.samples}
		if err := r.w.probe(ctx, r.e, dep, p); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		res.Metrics, detail = perLayer(tr, p, ph, untraced)
		if err := os.MkdirAll(filepath.Join(r.work, "traces"), 0o755); err != nil {
			return nil, err
		}
		tp := filepath.Join(r.work, "traces", tag+".jsonl")
		if err := tr.write(tp); err != nil {
			return nil, err
		}
		fmt.Printf("spans: %s\n", tp)
	}
	dep.stop()
	dep = nil

	// Shown, not gated: the failed share is carried by "attempted" and
	// "failed", only the write workloads have write latencies, and the
	// tail follows the host's CPU steal more than the program (see
	// README.md); the traced run reports p95 and p99 per layer.
	fmt.Printf("failed_share %g fraction (%d/%d)\n", float64(r.failed)/float64(max(r.attempted, 1)), r.failed, r.attempted)
	fmt.Printf("latency_tail_ms p90 %.4f p95 %.4f p99 %.4f p99.9 %.4f ms (nearest rank over the quiet half, n=%d)\n",
		ms(ph.out.p90), ms(ph.out.p95), ms(ph.out.p99), ms(ph.out.p999), ph.out.n)
	if ph.out.writes > 0 {
		fmt.Printf("write_p50_ms %.4f ms (nearest rank, n=%d)\n", ms(ph.out.writeP50), ph.out.writes)
	}
	// A run taken while the hypervisor ran other guests on these cores
	// measures the host as much as the program.
	fmt.Printf("host_steal_pct %.2f %% (CPU time stolen by the host during the window; %.2f %% in its quiet half)\n", ph.steal, ph.out.quietSteal)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%s %.6g %s (%s)\n", n, m.Value, m.Unit, detail[n])
	}
	for i, err := range r.failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failures\n", len(r.failures)-10)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	}
	res.Attempted, res.Failed, res.Correct = r.attempted, r.failed, r.failed == 0
	if err := r.save(tag, prov, res, detail); err != nil {
		return nil, err
	}
	return res, nil
}

// measure warms d up, runs the timed window, verifies every sampled
// answer and settles: the quiesced servers must hold exactly the
// acknowledged records and answer probes like the library.
func (r *runner) measure(ctx context.Context, d *deployment, tr *tracer) (*phase, error) {
	warm := drive(ctx, r.w, d.front().url, "warmup", warmup, nil)
	ph := &phase{acked: warm.acked}
	var err error
	if ph.start, err = r.scrapeAll(d); err != nil {
		return nil, err
	}
	// Collect the set-up's garbage now rather than inside the window.
	runtime.GC()
	t0 := readCPUTicks()
	win := drive(ctx, r.w, d.front().url, "main", r.window, tr)
	ph.steal = stealPct(t0, readCPUTicks())
	if ph.end, err = r.scrapeAll(d); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}
	ph.acked += win.acked
	ph.samples = win.samples
	if err := r.w.loadOracle(d); err != nil {
		return nil, err
	}
	ph.out = summarize(r.w, win)
	for _, o := range []outcome{summarize(r.w, warm), ph.out} {
		r.attempted += o.attempted
		r.failed += o.failed
		r.failures = append(r.failures, o.failures...)
	}
	n, errs := r.w.settle(r.e, d, ph.acked)
	r.attempted += n
	r.failed += len(errs)
	r.failures = append(r.failures, errs...)
	return ph, nil
}

func (r *runner) scrapeAll(d *deployment) ([]counters, error) {
	out := make([]counters, len(d.procs))
	for i, p := range d.procs {
		c, err := scrape(r.e.ctl, p.url)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// provenance names what produced a result: the commit (or, outside a
// git checkout, a digest of the Go sources), the toolchain, the
// machine's CPU count, the servers' GOMAXPROCS, the seed and the date.
func provenance(seed int64, serverProcs int) string {
	commit := "none"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return fmt.Sprintf("commit=%s source_sha256=%s go=%s nproc=%d gomaxprocs=%d harness_gomaxprocs=%d seed=%d date=%s",
		commit, sourceDigest(), runtime.Version(), runtime.NumCPU(), serverProcs, runtime.GOMAXPROCS(0), seed,
		time.Now().UTC().Format(time.RFC3339))
}

// sourceDigest hashes every Go source and go.mod under the working
// directory, skipping hidden directories (build output, VCS data).
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", p)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// save writes the full result beside the traces, for baselines.
func (r *runner) save(tag, prov string, res *result, detail map[string]string) error {
	dir := filepath.Join(r.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	msgs := make([]string, 0, len(r.failures))
	for _, err := range r.failures {
		msgs = append(msgs, err.Error())
	}
	b, err := json.MarshalIndent(map[string]any{
		"provenance": prov, "result": res, "detail": detail, "failures": msgs,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, tag+".json"), b, 0o644)
}
