// Package repro is a from-scratch Go reproduction of "Rio:
// Order-Preserving and CPU-Efficient Remote Storage Access" (Liao, Yang,
// Shu — EuroSys 2023).
//
// The public API lives in repro/rio; the substrates (deterministic
// discrete-event simulator, NVMe SSDs with PMR, RDMA fabric, NVMe-oF
// protocol, block layer, file systems, key-value store) live under
// internal/. The benchmark harness that regenerates every table and
// figure of the paper's evaluation is internal/bench, runnable via
// cmd/riobench or the benchmarks in bench_test.go.
//
// See README.md for a tour and DESIGN.md for the system inventory, the
// experiment index (§5) and the calibrated cost model (§6).
package repro
