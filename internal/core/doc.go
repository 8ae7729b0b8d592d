// Package core implements the paper's primary contribution: the
// on-sensor battery lifespan-aware forecast-window selection of
// Sec. III-B. It contains the pure protocol logic, independent of any
// simulation substrate:
//
//   - TxEnergyEstimator: the EWMA transmission-energy estimate (Eq. 13);
//   - RetxHistory: the per-window retransmission probability history
//     (Eq. 14) used to steer nodes away from crowded forecast windows;
//   - DIF: the Degradation Impact Factor (Eq. 15);
//   - Selector: the forecast-window selection (Algorithm 1), minimizing
//     (1 - utility) + w_u * DIF * w_b subject to energy feasibility
//     (Eq. 17-21).
//
// Its inputs are plain values and the utility.Function interface, never
// a simulation type: the discrete-event simulator (internal/sim) drives
// it through internal/mac, and any other host would drive the same code.
package core
