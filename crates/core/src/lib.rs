//! # cfmerge-core — CF-Merge: bank-conflict-free GPU mergesort
//!
//! The primary contributions of *Eliminating Bank Conflicts in GPU
//! Mergesort* (Berney & Sitchinava, SPAA 2025), implemented against the
//! `cfmerge-gpu-sim` simulator:
//!
//! * [`gather`] — the **load-balanced dual subsequence gather**
//!   (Section 3): reads each thread's `(Aᵢ, Bᵢ)` pair from shared memory
//!   into registers in `E` rounds with *zero* bank conflicts, for any
//!   `d = gcd(w, E)`, plus the inverse scatter (footnote 5).
//! * [`sort`] — two complete mergesort pipelines on the simulator: the
//!   Thrust-style baseline (merge path + per-thread serial merge in shared
//!   memory) and **CF-Merge** (permuted tile layout + gather + register
//!   merge).
//! * [`worst_case`] — the generalized worst-case input construction of
//!   Section 4 (arbitrary `w`, `1 < E ≤ w`, any `d = gcd(w, E)`), with
//!   Theorem 8's closed-form conflict counts.
//! * [`analysis`] — the static kernel registry: the symbolic address
//!   schedule of every shared-memory phase, held to the conflict-freedom
//!   prover's verdicts (see `docs/ANALYSIS.md`).
//! * [`inputs`] — workload generators for the evaluation.
//! * [`params`] — software parameters `(E, u)` incl. the paper's presets.
//! * [`metrics`] — throughput/speedup reporting helpers.
//! * [`telemetry`] — the deterministic metrics subsystem: counters,
//!   gauges, and log-bucketed latency histograms over modeled time,
//!   with bit-stable snapshots and Prometheus export (see
//!   `docs/TELEMETRY.md`).
//! * [`verify`] / [`recovery`] — output verification (sortedness +
//!   multiset checksums) and the one pipeline driver every sort entry
//!   point runs through: block-granular re-execution under injected
//!   faults and graceful degradation (see `docs/ROBUSTNESS.md`). The
//!   batch [`resilience::service::SortService`] runs on top of it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod cert;
pub mod gather;
pub mod inputs;
pub mod metrics;
pub mod params;
pub mod recovery;
pub mod resilience;
pub mod sort;
pub mod telemetry;
pub mod tuning;
pub mod verify;
pub mod worst_case;
