// Package repro is a production-quality Go reproduction of "Dyn-MPI:
// Supporting MPI on Non Dedicated Clusters" (Weatherly, Lowenthal,
// Nakazawa, Lowenthal — SC 2003).
//
// The public API lives in repro/dynmpi; the experiment CLI in
// cmd/dynexp; the per-figure reproduction details in DESIGN.md and
// EXPERIMENTS.md. The repository benchmark is bench/ (go run ./bench): five
// workloads and per-layer probes, written as one JSON set and compared
// against the committed BENCH_<n>.json points.
package repro
