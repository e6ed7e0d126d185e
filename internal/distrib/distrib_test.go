package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"udm/internal/core"
	"udm/internal/datagen"
	"udm/internal/kde"
	"udm/internal/microcluster"
	"udm/internal/rng"
	"udm/internal/server"
	"udm/internal/stream"
	"udm/internal/uncertain"
)

var testKDE = kde.Options{ErrorAdjust: true}

// testRows generates the shared seeded dataset.
func testRows(t testing.TB, n int, seed int64) [][]float64 {
	t.Helper()
	clean, err := datagen.TwoBlobs(2.5).Generate(n, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return clean.X
}

// splitEngines deals rows round-robin into k stream engines — a
// deterministic disjoint partition of the dataset.
func splitEngines(t testing.TB, rows [][]float64, k int) []*stream.Engine {
	t.Helper()
	dims := 2
	if len(rows) > 0 {
		dims = len(rows[0])
	}
	engines := make([]*stream.Engine, k)
	for i := range engines {
		eng, err := stream.NewEngine(stream.Options{MicroClusters: 12, Dims: dims})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	for i, x := range rows {
		engines[i%k].Add(x, nil, int64(i+1))
	}
	return engines
}

// startShards serves each engine as model "live" on its own in-process
// shard server and returns the shard table.
func startShards(t testing.TB, engines []*stream.Engine) []Shard {
	t.Helper()
	shards := make([]Shard, len(engines))
	for i, eng := range engines {
		reg := server.NewRegistry()
		m, err := server.NewStreamModel("live", eng, testKDE, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(m); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(reg, server.Options{}).Handler())
		t.Cleanup(ts.Close)
		shards[i] = Shard{Name: shardName(i), URL: ts.URL}
	}
	return shards
}

func shardName(i int) string { return string(rune('a'+i)) + "-shard" }

// mergedComparator builds the single-node reference: one server whose
// model is the merged summary of every shard's data.
func mergedComparator(t testing.TB, engines []*stream.Engine) string {
	t.Helper()
	sums := make([]*microcluster.Summarizer, len(engines))
	for i, eng := range engines {
		s, err := eng.Summarizer()
		if err != nil {
			t.Fatal(err)
		}
		sums[i] = s
	}
	merged, err := microcluster.MergeSummarizers(sums...)
	if err != nil {
		t.Fatal(err)
	}
	reg := server.NewRegistry()
	m, err := server.NewSummarizerModel("live", merged, testKDE)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Add(m); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(reg, server.Options{}).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func postJSON(t testing.TB, url string, body, out any) int {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func testQueries(n int, seed int64) [][]float64 {
	r := rng.New(seed)
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{r.Norm(0, 3), r.Norm(0, 3)}
	}
	return out
}

func bitsEqual(t testing.TB, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d: %v (%x) != %v (%x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestFanoutBitIdentity is the tentpole acceptance check at the
// distributed-system level: the proxy's fan-out density answers over
// 1/2/4/8 shards are bit-identical to a single node serving the merged
// summary of the same seeded dataset — batch, single-point (through
// the coalescer), and subspace forms.
func TestFanoutBitIdentity(t *testing.T) {
	rows := testRows(t, 600, 11)
	queries := testQueries(25, 42)
	for _, k := range []int{1, 2, 4, 8} {
		engines := splitEngines(t, rows, k)
		shards := startShards(t, engines)
		p, err := NewProxy(shards, []ModelConfig{
			{Name: "live", Mode: ModePartitioned, Dims: 2, KDE: testKDE},
		}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		px := httptest.NewServer(p.Handler())
		t.Cleanup(px.Close)
		single := mergedComparator(t, engines)

		var got, want server.DensityResponse
		if s := postJSON(t, px.URL+"/v1/models/live/density", server.DensityRequest{Points: queries}, &got); s != 200 {
			t.Fatalf("k=%d: proxy density status %d", k, s)
		}
		if s := postJSON(t, single+"/v1/models/live/density", server.DensityRequest{Points: queries}, &want); s != 200 {
			t.Fatalf("k=%d: single density status %d", k, s)
		}
		bitsEqual(t, "batch", got.Densities, want.Densities)
		if got.Coverage != 0 {
			t.Fatalf("k=%d: healthy answer carries coverage %v", k, got.Coverage)
		}

		for qi, q := range queries[:5] {
			var pg, pw server.DensityResponse
			postJSON(t, px.URL+"/v1/models/live/density", server.DensityRequest{Point: q}, &pg)
			postJSON(t, single+"/v1/models/live/density", server.DensityRequest{Point: q}, &pw)
			if pg.Density == nil || pw.Density == nil {
				t.Fatalf("k=%d query %d: missing single-point density", k, qi)
			}
			bitsEqual(t, "single-point", []float64{*pg.Density}, []float64{*pw.Density})
		}

		var sg, sw server.DensityResponse
		postJSON(t, px.URL+"/v1/models/live/density", server.DensityRequest{Points: queries, Dims: []int{0}}, &sg)
		postJSON(t, single+"/v1/models/live/density", server.DensityRequest{Points: queries, Dims: []int{0}}, &sw)
		bitsEqual(t, "subspace", sg.Densities, sw.Densities)
	}
}

// TestProxyIngestRouting checks hash-routed ingest and the
// stale-version protocol: records land on their ring owners, a head
// pinned before an ingest refreshes transparently (shards answer 409,
// the coordinator re-pins), and post-ingest fan-out answers stay
// bit-identical to the merged single node.
func TestProxyIngestRouting(t *testing.T) {
	rows := testRows(t, 240, 19)
	engines := splitEngines(t, rows[:0], 2) // two empty engines
	shards := startShards(t, engines)
	p, err := NewProxy(shards, []ModelConfig{
		{Name: "live", Mode: ModePartitioned, Dims: 2, KDE: testKDE},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	px := httptest.NewServer(p.Handler())
	t.Cleanup(px.Close)

	first, second := rows[:160], rows[160:]
	var ir server.IngestResponse
	if s := postJSON(t, px.URL+"/v1/models/live/ingest", server.IngestRequest{Points: first}, &ir); s != 200 {
		t.Fatalf("ingest status %d", s)
	}
	if ir.Ingested != len(first) || ir.Count != len(first) {
		t.Fatalf("ingest ack %+v, want %d/%d", ir, len(first), len(first))
	}
	// Records landed on their consistent-hash owners (same ring params
	// as the proxy's defaults).
	ring, err := NewRing(2, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts := make([]int, 2)
	for _, x := range first {
		wantCounts[ring.OwnerPoint(x)]++
	}
	for i, eng := range engines {
		if eng.Count() != wantCounts[i] {
			t.Fatalf("shard %d holds %d records, ring owns %d", i, eng.Count(), wantCounts[i])
		}
	}

	queries := testQueries(10, 7)
	var got server.DensityResponse
	if s := postJSON(t, px.URL+"/v1/models/live/density", server.DensityRequest{Points: queries}, &got); s != 200 {
		t.Fatalf("density status %d", s)
	}
	// The head is now pinned at the first ingest's versions. Ingest
	// again: the next query must survive the shards' 409 stale_version
	// answers by re-pinning.
	if s := postJSON(t, px.URL+"/v1/models/live/ingest", server.IngestRequest{Points: second}, &ir); s != 200 {
		t.Fatalf("second ingest status %d", s)
	}
	// Force the stale path: re-pin happens inside the fan-out, so warm
	// the head and then bypass InvalidateHead by pinning an old view.
	co := p.Coordinator("live")
	if _, err := co.CurrentHead(context.Background()); err != nil {
		t.Fatal(err)
	}
	var after server.DensityResponse
	if s := postJSON(t, px.URL+"/v1/models/live/density", server.DensityRequest{Points: queries}, &after); s != 200 {
		t.Fatalf("post-ingest density status %d", s)
	}
	single := mergedComparator(t, engines)
	var want server.DensityResponse
	postJSON(t, single+"/v1/models/live/density", server.DensityRequest{Points: queries}, &want)
	bitsEqual(t, "post-ingest", after.Densities, want.Densities)
}

// TestStaleVersionRefresh pins a head, advances one shard behind the
// proxy's back, and checks the fan-out transparently re-pins instead of
// surfacing the shards' 409s.
func TestStaleVersionRefresh(t *testing.T) {
	rows := testRows(t, 300, 23)
	engines := splitEngines(t, rows, 2)
	shards := startShards(t, engines)
	p, err := NewProxy(shards, []ModelConfig{
		{Name: "live", Mode: ModePartitioned, Dims: 2, KDE: testKDE},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	px := httptest.NewServer(p.Handler())
	t.Cleanup(px.Close)

	queries := testQueries(8, 3)
	var first server.DensityResponse
	if s := postJSON(t, px.URL+"/v1/models/live/density", server.DensityRequest{Points: queries}, &first); s != 200 {
		t.Fatalf("priming density status %d", s)
	}
	fanoutsBefore := p.Metrics().Fanouts.Load()
	// Advance shard 0 directly — the proxy's cached head is now stale
	// and it has no way to know until a shard says 409.
	engines[0].Add([]float64{0.5, -0.25}, nil, 9999)
	var after server.DensityResponse
	if s := postJSON(t, px.URL+"/v1/models/live/density", server.DensityRequest{Points: queries}, &after); s != 200 {
		t.Fatalf("post-advance density status %d", s)
	}
	if got := p.Metrics().Fanouts.Load(); got < fanoutsBefore+2 {
		t.Fatalf("expected a stale re-scatter (fanouts %d -> %d)", fanoutsBefore, got)
	}
	single := mergedComparator(t, engines)
	var want server.DensityResponse
	postJSON(t, single+"/v1/models/live/density", server.DensityRequest{Points: queries}, &want)
	bitsEqual(t, "re-pinned", after.Densities, want.Densities)
}

// TestProxyDefaultsMatchServer checks that a proxy built from zero
// options runs with the serving defaults udmserve gets from
// server.Options.WithDefaults, slow spans at 1s included: a zero slow
// threshold would switch slow tracking off.
func TestProxyDefaultsMatchServer(t *testing.T) {
	p, err := NewProxy([]Shard{{Name: "a", URL: "http://127.0.0.1:1"}}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, want := p.serverOpt, server.Options{}.WithDefaults()
	if got.SlowRequest != time.Second || want.SlowRequest != time.Second {
		t.Errorf("slow-span threshold: proxy %v, udmserve %v; want 1s for both", got.SlowRequest, want.SlowRequest)
	}
	if got.SlowLogf == nil {
		t.Error("proxy has no slow-span log")
	}
	if got.MaxBatch != want.MaxBatch || got.BatchDelay != want.BatchDelay ||
		got.RequestTimeout != want.RequestTimeout || got.MaxInflight != want.MaxInflight {
		t.Errorf("proxy defaults (batch %d, delay %v, timeout %v, inflight %d) differ from udmserve's (%d, %v, %v, %d)",
			got.MaxBatch, got.BatchDelay, got.RequestTimeout, got.MaxInflight,
			want.MaxBatch, want.BatchDelay, want.RequestTimeout, want.MaxInflight)
	}
}

// TestProxyReplicated checks the replicated mode: classify and density
// batches split across replicas concatenate to exactly the single
// node's answers, and kind mismatches keep the server's error codes.
func TestProxyReplicated(t *testing.T) {
	clean, err := datagen.TwoBlobs(2.5).Generate(400, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := uncertain.Perturb(clean, 1.0, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.NewTransform(noisy, core.TransformOptions{MicroClusters: 40, ErrorAdjust: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	shards := make([]Shard, 2)
	var singleURL string
	for i := range shards {
		reg := server.NewRegistry()
		m, err := server.NewTransformModel("blobs", tr, core.ClassifierOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.Add(m); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(reg, server.Options{}).Handler())
		t.Cleanup(ts.Close)
		shards[i] = Shard{Name: shardName(i), URL: ts.URL}
		singleURL = ts.URL
	}
	p, err := NewProxy(shards, []ModelConfig{
		{Name: "blobs", Mode: ModeReplicated, Dims: 2},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	px := httptest.NewServer(p.Handler())
	t.Cleanup(px.Close)

	queries := testQueries(31, 5)
	var gc, wc server.ClassifyResponse
	if s := postJSON(t, px.URL+"/v1/models/blobs/classify", server.ClassifyRequest{Points: queries}, &gc); s != 200 {
		t.Fatalf("proxy classify status %d", s)
	}
	postJSON(t, singleURL+"/v1/models/blobs/classify", server.ClassifyRequest{Points: queries}, &wc)
	if len(gc.Labels) != len(wc.Labels) {
		t.Fatalf("%d labels, want %d", len(gc.Labels), len(wc.Labels))
	}
	for i := range gc.Labels {
		if gc.Labels[i] != wc.Labels[i] {
			t.Fatalf("label %d: %d != %d", i, gc.Labels[i], wc.Labels[i])
		}
	}
	var gd, wd server.DensityResponse
	postJSON(t, px.URL+"/v1/models/blobs/density", server.DensityRequest{Points: queries}, &gd)
	postJSON(t, singleURL+"/v1/models/blobs/density", server.DensityRequest{Points: queries}, &wd)
	bitsEqual(t, "replicated density", gd.Densities, wd.Densities)

	// Kind mismatches keep the single-node error codes.
	var eb server.ErrorBody
	if s := postJSON(t, px.URL+"/v1/models/blobs/ingest", server.IngestRequest{Points: queries}, &eb); s != 400 || eb.Error.Code != "unsupported_kind" {
		t.Fatalf("replicated ingest: %d %q, want 400 unsupported_kind", s, eb.Error.Code)
	}
}

// TestProxyValidation checks the proxy's drop-in error surface.
func TestProxyValidation(t *testing.T) {
	engines := splitEngines(t, testRows(t, 100, 31), 2)
	shards := startShards(t, engines)
	p, err := NewProxy(shards, []ModelConfig{
		{Name: "live", Mode: ModePartitioned, Dims: 2, KDE: testKDE},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	px := httptest.NewServer(p.Handler())
	t.Cleanup(px.Close)

	cases := []struct {
		path string
		body any
		code string
		want int
	}{
		{"/v1/models/nope/density", server.DensityRequest{Point: []float64{0, 0}}, "model_not_found", 404},
		{"/v1/models/live/density", server.DensityRequest{Point: []float64{0}}, "dimension_mismatch", 400},
		{"/v1/models/live/density", server.DensityRequest{}, "bad_option", 400},
		{"/v1/models/live/density", server.DensityRequest{Point: []float64{0, 0}, Dims: []int{5}}, "dimension_mismatch", 400},
		{"/v1/models/live/density", server.DensityRequest{Point: []float64{0, 0}, Backend: "grid"}, "bad_option", 400},
		{"/v1/models/live/density", server.DensityRequest{Point: []float64{0, 0}, Accuracy: "approx", Epsilon: 1e-3}, "bad_option", 400},
		{"/v1/models/live/classify", server.ClassifyRequest{Point: []float64{0, 0}}, "unsupported_kind", 400},
	}
	for _, tc := range cases {
		var eb server.ErrorBody
		if s := postJSON(t, px.URL+tc.path, tc.body, &eb); s != tc.want || eb.Error.Code != tc.code {
			t.Fatalf("%s: %d %q, want %d %q", tc.path, s, eb.Error.Code, tc.want, tc.code)
		}
	}

	resp, err := http.Get(px.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz %d", resp.StatusCode)
	}
	var models struct {
		Models []map[string]any `json:"models"`
	}
	resp, err = http.Get(px.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(models.Models) != 1 || models.Models[0]["name"] != "live" {
		t.Fatalf("models listing %+v", models.Models)
	}
}

// TestProxyOutliersPartitioned checks outlier scoring against the
// merged head matches the single node over the merged summary.
func TestProxyOutliersPartitioned(t *testing.T) {
	engines := splitEngines(t, testRows(t, 400, 13), 3)
	shards := startShards(t, engines)
	p, err := NewProxy(shards, []ModelConfig{
		{Name: "live", Mode: ModePartitioned, Dims: 2, KDE: testKDE},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	px := httptest.NewServer(p.Handler())
	t.Cleanup(px.Close)
	single := mergedComparator(t, engines)

	queries := append(testQueries(12, 77), []float64{40, -40}) // one far outlier
	req := server.OutliersRequest{Points: queries, Contamination: 0.2}
	var got, want server.OutliersResponse
	if s := postJSON(t, px.URL+"/v1/models/live/outliers", req, &got); s != 200 {
		t.Fatalf("proxy outliers status %d", s)
	}
	postJSON(t, single+"/v1/models/live/outliers", req, &want)
	bitsEqual(t, "outlier scores", got.Scores, want.Scores)
	if len(got.Outliers) != len(want.Outliers) {
		t.Fatalf("flag count %d, want %d", len(got.Outliers), len(want.Outliers))
	}
	for i := range got.Outliers {
		if got.Outliers[i] != want.Outliers[i] {
			t.Fatalf("flag %d: %v != %v", i, got.Outliers[i], want.Outliers[i])
		}
	}
	if !got.Outliers[len(got.Outliers)-1] {
		t.Fatal("far point not flagged as outlier")
	}
}
