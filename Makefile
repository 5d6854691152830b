# Convenience targets; everything is plain `go` underneath.

.PHONY: build test check perf perf-quick lint sarif fuzz loc mutants

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

# Short fuzz passes over the dataset container reader and its slice
# decoder (Decode accepts exactly what the streaming decoder it replaced
# accepted, and decodes it to the same bytes), the framed wire
# format (checksummed dataset frames must detect any byte flip, for
# every codec; temporal codecs must reconstruct bit-exactly), the
# DEFLATE decoder (any bytes decode exactly as compress/flate decodes
# them, or fail where it fails or past the output bound) and encoder
# (any bytes, after any prefix, encode to a stream both decoders return
# them from, never larger than storing them), the hub
# steering codec (corruption must surface ErrSteering, never a panic or
# a silently-applied wrong value), the two text formats a user hands a
# run: the fault schedule and the job layout (no panic; an accepted one
# reads back unchanged from its printed form), and the two readers of
# what other processes wrote: the journal (a cut at any byte returns
# every whole event, torn only inside one, and its step cursor matches a
# plain scan), its live follower (a journal written in any chunk cuts
# drains to exactly what Read returns) and the Prometheus exposition (an
# escaped label value parses back exactly), the fleet sweep file (an
# accepted sweep has valid, unique IDs and reads back from its
# marshalled form) and the fleet journal's replay (any bytes replay or fail, never panic; an
# accepted ledger adds up, and a real scheduler's journal replays to its
# counts), the cosmo generator's lazy random stream (any seed draws
# math/rand's exact sequence, past its hand-over to a real source), and
# the packet tracer (any small clustered or lattice cloud, radius and
# orbit angle render a frame == to the per-ray reference's, and sampled
# rays hit what brute force hits), the sphere BVH build (any small cloud
# on a coarse grid, where centres tie, NaN centres among them, builds the
# tree the quickselect reference builds under the index tie rule, and
# traces to brute force's nearest hits), and the triangle rasterizer (any
# triangles, slivers a few ulps thick and non-finite corners among them,
# draw == to the loose-box reference's frame at one and two workers), and
# the word-at-a-time contourer (any grid up to three 64-vertex words wide
# and any float32 values, NaN among them, contour to the reference's
# triangles, bit for bit).
fuzz:
	go test -run='^$$' -fuzz=FuzzReadVTK -fuzztime=10s ./internal/vtkio/
	go test -run='^$$' -fuzz=FuzzDecodeMatchesReference -fuzztime=10s ./internal/vtkio/
	go test -run='^$$' -fuzz=FuzzFrameFlip -fuzztime=10s ./internal/transport/
	go test -run='^$$' -fuzz=FuzzDeltaRoundTrip -fuzztime=10s ./internal/transport/
	go test -run='^$$' -fuzz=FuzzInflate -fuzztime=10s ./internal/transport/
	go test -run='^$$' -fuzz=FuzzDeflate -fuzztime=10s ./internal/transport/
	go test -run='^$$' -fuzz=FuzzSteeringMessage -fuzztime=10s ./internal/hub/
	go test -run='^$$' -fuzz=FuzzFaultsParse -fuzztime=10s ./internal/faults/
	go test -run='^$$' -fuzz=FuzzLayoutParse -fuzztime=10s ./internal/layout/
	go test -run='^$$' -fuzz=FuzzJournalRead -fuzztime=10s ./internal/journal/
	go test -run='^$$' -fuzz=FuzzFollowerDrain -fuzztime=10s ./internal/journal/
	go test -run='^$$' -fuzz=FuzzParseExposition -fuzztime=10s ./internal/obs/
	go test -run='^$$' -fuzz=FuzzLoadSweep -fuzztime=10s ./internal/fleet/
	go test -run='^$$' -fuzz=FuzzReplay -fuzztime=10s ./internal/fleet/
	go test -run='^$$' -fuzz=FuzzStream -fuzztime=10s ./internal/cosmo/
	go test -run='^$$' -fuzz=FuzzPacketsMatchReference -fuzztime=10s ./internal/rt/
	go test -run='^$$' -fuzz=FuzzBuildMatchesReference -fuzztime=10s ./internal/rt/
	go test -run='^$$' -fuzz=FuzzTrianglesMatchReference -fuzztime=10s ./internal/raster/
	go test -run='^$$' -fuzz=FuzzContourMatchesReference -fuzztime=10s ./internal/geom/

# The mutation ledger (outside tier-1 and outside check): each
# scripts/mutants/*.patch is a deliberate bug applied to a temporary git
# worktree of the tracked files; the tests its header names must fail
# (the comment-only self-test must pass). Stale or surviving patches fail.
mutants:
	./scripts/mutants.sh

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
