// Package repro is a from-scratch Go reproduction of "A Battery
// Lifespan-Aware Protocol for LPWAN" (Fahmida et al., ICDCS 2024): the
// first LoRa MAC protocol that maximizes the minimum battery lifespan of
// an energy-harvesting network.
//
// The repository contains the complete system the paper describes and
// everything it depends on, implemented with the standard library only:
//
//   - internal/core — the contribution: DIF (Eq. 15), the EWMA energy
//     estimator (Eq. 13), the retransmission history (Eq. 14) and the
//     forecast-window selection (Algorithm 1);
//   - internal/battery — the Xu et al. degradation model (Eq. 1-4) with
//     batch and incremental rainflow cycle counting;
//   - internal/lora, internal/radio — the LoRa PHY and propagation;
//   - internal/energy — the synthetic solar substrate and forecasters;
//   - internal/mac, internal/netserver — the protocols and gateway side;
//   - internal/sim — the discrete-event LoRaWAN simulator (NS-3 stand-in),
//     which also runs the paper's 10-node testbed setup (Fig. 9);
//   - internal/optimal — the clairvoyant TDMA formulation (Sec. III-A);
//   - internal/experiment — regeneration of every figure and table.
//
// Start with README.md, run `go run ./examples/quickstart`, and
// regenerate the paper's results with `go run ./cmd/experiments`.
// The benchmarks in bench_test.go exercise one scaled-down workload per
// paper artifact; see EXPERIMENTS.md for paper-vs-measured numbers.
package repro
