GO ?= go

.PHONY: build test race paper

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The scheduler and the algorithms on it run at -cpu 1,4, so the
# multi-shard paths (the golden suite included) are raced on any host.
race:
	$(GO) test -race -cpu 1,4 ./internal/machine/... ./internal/algs/...
	$(GO) test -race ./internal/collective/... \
		./internal/caps/... ./internal/extension/... ./internal/bsp/... \
		./internal/benchrec/... \
		./internal/experiments/... ./internal/obs/... ./internal/topo/... \
		./internal/plan/... ./internal/grid/... ./internal/model/... \
		./internal/kkt/... ./internal/service/... ./internal/store/... \
		./internal/hbl/... ./internal/matrix/... ./internal/lattice/...

paper:
	$(GO) run ./cmd/paper
