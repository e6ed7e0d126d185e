# Local mirror of .github/workflows/ci.yml — `make check` and `make
# race` run exactly what CI runs, so a green local run means a green CI
# run.

GO ?= go

# Pinned third-party tool versions (tools/tools.go is the source of
# truth; tools/tools_test.go asserts this file and CI agree with it).
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: check build vet fmt test perfbench-test race lint lint-udm lint-fix-check lint-staticcheck lint-vuln tools bench-smoke fuzz-smoke faults serve-smoke proxy-smoke tenant-smoke loadtest bench bench-snapshot bench-kde ci

## check: everything the CI "check" job gates on (build+vet+fmt+test,
## and the same for the nested benchmark module)
check: build vet fmt test perfbench-test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

test:
	$(GO) test ./...

## perfbench-test: vet and test the serving benchmark (perfbench/ is a
## module of its own, which the root ./... never enters, so a server
## API change that broke it would otherwise go unnoticed)
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

## race: the CI race-detector job (correctness gate for the parallel engine)
race:
	$(GO) test -race ./...

## lint: project analyzers (always) + staticcheck/govulncheck (when installed)
lint: lint-udm lint-staticcheck lint-vuln

## lint-udm: the in-tree multichecker — no external deps, never skipped.
## -cache makes warm repeat runs nearly instant (packages whose content
## hash is unchanged are served from .udmlint-cache/). Each run appends
## its timing line to lint-timing.txt, which the CI lint job uploads.
lint-udm:
	@code=0; $(GO) run ./cmd/udmlint -cache ./... 2>lint-timing.run || code=$$?; \
	cat lint-timing.run >&2; cat lint-timing.run >> lint-timing.txt; rm -f lint-timing.run; \
	exit $$code

## lint-fix-check: prove `udmlint -fix` is safe — apply fixes to a copy
## of the tree, require it to still build and pass tests, and require a
## second -fix run to apply nothing (idempotence)
lint-fix-check:
	bash scripts/lint_fix_check.sh

# staticcheck and govulncheck are external binaries; offline
# environments without them skip with a notice instead of failing.
# CI installs the pinned versions, so the full gate always runs there.
lint-staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (run 'make tools' to install $(STATICCHECK_VERSION))" >&2; \
	fi

lint-vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (run 'make tools' to install $(GOVULNCHECK_VERSION))" >&2; \
	fi

## tools: install the pinned external lint tools (needs network)
tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

## bench-smoke: every benchmark for exactly one iteration (rot check)
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

## fuzz-smoke: 10s burn of each fuzz target
fuzz-smoke:
	$(GO) test -fuzz=FuzzFeatureAdd -fuzztime=10s -run='^Fuzz' ./internal/microcluster
	$(GO) test -fuzz=FuzzDist2 -fuzztime=10s -run='^Fuzz' ./internal/microcluster
	$(GO) test -fuzz=FuzzFeatureMerge -fuzztime=10s -run='^Fuzz' ./internal/microcluster
	$(GO) test -fuzz=FuzzPrometheusExposition -fuzztime=10s -run='^Fuzz' ./internal/obs
	$(GO) test -fuzz=FuzzParseEvalOptions -fuzztime=10s -run='^Fuzz' ./internal/evalopt

## faults: the failure-path gate — the fault-matrix and resilience suite
## under -race, plus a longer -race fuzz burn of the newest targets
faults:
	$(GO) test -race ./internal/faultinject
	$(GO) test -race -run 'TestFault|TestBatcher|TestRetr|TestBreaker' ./internal/server
	$(GO) test -race -run 'TestFault' ./internal/distrib
	$(GO) test -race -fuzz=FuzzFeatureMerge -fuzztime=30s -run='^Fuzz' ./internal/microcluster
	$(GO) test -race -fuzz=FuzzPrometheusExposition -fuzztime=30s -run='^Fuzz' ./internal/obs

## serve-smoke: end-to-end udmserve check (train, serve, curl, shut down)
serve-smoke:
	bash scripts/serve_smoke.sh serve

## proxy-smoke: end-to-end sharded serving check (2 shards + udmproxy,
## fan-out metrics, degraded answer with one shard killed)
proxy-smoke:
	bash scripts/serve_smoke.sh proxy

## tenant-smoke: end-to-end multi-tenant check (namespaced routing,
## default-tenant alias bit-identity, hot-swap promote/rollback, udmload)
tenant-smoke:
	bash scripts/serve_smoke.sh tenant

## loadtest: the multi-tenant replay gate — 2 tenants x 1000 seeded
## streams against udmserve, udmproxy, and a fault-injected server,
## gating on zero isolation violations and appending the per-tenant
## latency report to BENCH_serve.json (tune with LOADTEST_STREAMS /
## LOADTEST_REQUESTS / LOADTEST_JSON)
loadtest:
	bash scripts/loadtest.sh

## bench: the real benchmark suite (slow; use for EXPERIMENTS.md numbers)
bench:
	$(GO) test -bench=. -benchtime=2s -run='^$$' .

## bench-snapshot: observability overhead on the hot batch path (gates at 5%)
bench-snapshot:
	bash scripts/bench_snapshot.sh

## bench-kde: KDE hot-path trajectory — appends to BENCH_kde.json and
## gates on pruned speedup (≥5x) and regression vs the best prior entry
bench-kde:
	bash scripts/bench_kde.sh

## ci: the full pipeline, serially
ci: check lint race bench-smoke fuzz-smoke faults serve-smoke proxy-smoke tenant-smoke loadtest
