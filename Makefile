GO ?= go

.PHONY: build test race bench-serving bench-topo paper

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The scheduler and the algorithms on it run at -cpu 1,4, so the
# multi-worker pool paths (the golden suite included) are raced on any host.
race:
	$(GO) test -race -cpu 1,4 ./internal/machine/... ./internal/algs/...
	$(GO) test -race ./internal/collective/... \
		./internal/caps/... ./internal/extension/... ./internal/bsp/... \
		./internal/benchrec/... \
		./internal/experiments/... ./internal/obs/... ./internal/topo/... \
		./internal/plan/... ./internal/grid/... ./internal/model/... \
		./internal/kkt/... ./internal/service/... ./internal/store/... \
		./internal/hbl/...

# Record serving throughput, latency percentiles, and singleflight dedup
# evidence to BENCH_serving.json by driving mixed traffic at an in-process
# parmmd; see "Planner & serving levers" in DESIGN.md.
bench-serving:
	$(GO) run ./cmd/loadgen -duration 15s -clients 8 -out BENCH_serving.json

# Record topology charge-oracle construction time and O(hops) Charge
# throughput per fabric (P = 1024, 4096, 65536) to BENCH_topo_scaling.json;
# the checked-in record is made with GOMAXPROCS=1. See "Topology at scale"
# in DESIGN.md.
bench-topo:
	$(GO) run ./cmd/benchrec -topo -out BENCH_topo_scaling.json

paper:
	$(GO) run ./cmd/paper
