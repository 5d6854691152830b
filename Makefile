# Convenience targets; everything is plain `go` underneath.

.PHONY: build test check perf perf-quick lint sarif fuzz loc

build:
	go build ./...

test:
	go test ./...

# Project-specific static analysis (internal/lint via cmd/ethlint); fails
# on any finding. The suppression budget and the stale-directive check
# are internal/lint's TestSelfClean, which `go test ./...` runs.
lint:
	go run ./cmd/ethlint ./...

# SARIF log for code-scanning consumers (uploaded as a CI artifact).
sarif:
	go run ./cmd/ethlint -sarif ./... > ethlint.sarif

# Short fuzz passes over the dataset container reader, the framed wire
# format (checksummed dataset frames must detect any byte flip, for
# every codec; temporal codecs must reconstruct bit-exactly), the hub
# steering codec (corruption must surface ErrSteering, never a panic or
# a silently-applied wrong value), the two text formats a user hands a
# run: the fault schedule and the job layout (no panic; an accepted one
# reads back unchanged from its printed form), and the two readers of
# what other processes wrote: the journal (a cut at any byte returns
# every whole event, torn only inside one), its live follower (a journal
# written in any chunk cuts drains to exactly what Read returns) and the
# Prometheus exposition (an escaped label value parses back exactly), and
# the sweep checkpoints (any bytes load or fail, never panic; a saved
# done set reads back).
fuzz:
	go test -run='^$$' -fuzz=FuzzReadVTK -fuzztime=10s ./internal/vtkio/
	go test -run='^$$' -fuzz=FuzzFrameFlip -fuzztime=10s ./internal/transport/
	go test -run='^$$' -fuzz=FuzzDeltaRoundTrip -fuzztime=10s ./internal/transport/
	go test -run='^$$' -fuzz=FuzzSteeringMessage -fuzztime=10s ./internal/hub/
	go test -run='^$$' -fuzz=FuzzFaultsParse -fuzztime=10s ./internal/faults/
	go test -run='^$$' -fuzz=FuzzLayoutParse -fuzztime=10s ./internal/layout/
	go test -run='^$$' -fuzz=FuzzJournalRead -fuzztime=10s ./internal/journal/
	go test -run='^$$' -fuzz=FuzzFollowerDrain -fuzztime=10s ./internal/journal/
	go test -run='^$$' -fuzz=FuzzParseExposition -fuzztime=10s ./internal/obs/
	go test -run='^$$' -fuzz=FuzzLoadDoneSet -fuzztime=10s ./internal/fleet/

# Full gate: gofmt + vet + build + ethlint + race-enabled tests + short
# fuzz passes.
check:
	./scripts/check.sh

# The end-to-end pipeline benchmark BENCHMARK.json names (bench/README.md):
# four closed-loop workloads, ten bounded metrics each, output checks.
# "Is it slower?" is `make perf` at the parent and at the change;
# perf-quick is the same at smoke sizes (seconds, not minutes).
perf:
	bash bench/run.sh

perf-quick:
	bash bench/run.sh -quick

# Go line counts (code / non-test / test) per package of internal/* and
# cmd/*, plus bench/* and the root package, totalled over the
# whole module: run at the parent commit and at the change to report a
# PR's net line count.
loc:
	./scripts/loc.sh
