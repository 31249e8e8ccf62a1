// Package ccnet reproduces "Analytical Network Modeling of Heterogeneous
// Large-Scale Cluster Systems" (Javadi, Abawajy, Akbari, Nahavandi; IEEE
// CLUSTER 2006): an analytical mean-latency model for cluster-of-clusters
// systems built from m-port n-tree fat-trees with wormhole flow control,
// together with the discrete-event simulator the model is validated
// against.
//
// The library lives under internal/: see internal/core for the analytical
// model, internal/sim for the simulator, and internal/scenario for the
// declarative scenario engine — JSON what-if specs run by a parallel,
// deterministically seeded campaign runner, which also runs the paper's
// own evaluation. The cmd/ binaries (ccscen, the one offline CLI, and
// the ccserved/ccrouter/ccload serving tier) are the entry points, and
// examples/scenarios holds ready-to-run scenario files, among them
// Figs 3–7 and the ablation, non-uniform-traffic and buffer-depth
// experiments as campaigns for `ccscen run`. Tables 1–2 are
// static text in README.md, held to the presets by paper_test.go, and
// bench_test.go in this directory regenerates every figure and
// experiment under `go test -bench`.
package ccnet
