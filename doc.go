// Package eth is the root of the Exploration Test Harness (ETH), a Go
// reproduction of "ETH: An Architecture for Exploring the Design Space of
// In-situ Scientific Visualization" (Abram, Adhinarayanan, Feng, Rogers,
// Ahrens — IPPS 2020).
//
// The library lives under internal/ (see DESIGN.md for the module map),
// the executables under cmd/, and Example (example_test.go) is the
// minimal end-to-end use: generate, frame, raycast, save.
// cmd/ethbench regenerates every table and figure of the paper's
// evaluation, each labelled modeled or measured; bench/ethperf is the
// end-to-end pipeline benchmark that says whether a change is slower.
package eth
