//! Prover ↔ profiler cross-check: phases the symbolic analyzer certifies
//! conflict-free must show **zero** conflict rounds in the dynamic tracer
//! on the Theorem-8 worst-case inputs (the adversarial regime the
//! certificates quantify over), and phases the prover *refuses* to
//! certify (the Thrust serial merge) must show real conflicts there —
//! the refusal is informative, not conservative.

use cfmerge::core::analysis::{check_registry_on, Expectation};
use cfmerge::core::cert::device_profiles;
use cfmerge::core::inputs::InputSpec;
use cfmerge::core::params::SortParams;
use cfmerge::core::sort::{simulate_sort_traced, SortAlgorithm, SortConfig};
use cfmerge::gpu_sim::check::{BankShape, Verdict};
use cfmerge::gpu_sim::device::Device;
use cfmerge::gpu_sim::timing::TimingModel;
use cfmerge::gpu_sim::PhaseClass;

fn worst_case_trace(algo: SortAlgorithm, e: usize, u: usize) -> cfmerge::gpu_sim::trace::SortTrace {
    worst_case_trace_on(algo, Device::rtx2080ti(), e, u)
}

fn worst_case_trace_on(
    algo: SortAlgorithm,
    device: Device,
    e: usize,
    u: usize,
) -> cfmerge::gpu_sim::trace::SortTrace {
    let w = device.warp_width as usize;
    let config = SortConfig {
        params: SortParams::new(e, u),
        device,
        timing: TimingModel::rtx2080ti_like(),
        count_accesses: true,
    };
    let n = 4 * e * u;
    let input = InputSpec::WorstCase { w, e, u }.generate(n);
    let traced = simulate_sort_traced(&input, algo, &config);
    let mut expect = input;
    expect.sort_unstable();
    assert_eq!(traced.run.output, expect, "trace run must still sort");
    traced.trace
}

/// Conflict rounds recorded under `class` across every block of every
/// kernel launch.
fn conflict_rounds_in(trace: &cfmerge::gpu_sim::trace::SortTrace, class: PhaseClass) -> usize {
    trace
        .kernels
        .iter()
        .flat_map(|k| &k.blocks)
        .flat_map(|b| &b.conflicts)
        .filter(|c| c.class == class)
        .count()
}

#[test]
fn certified_cf_phases_have_zero_conflict_rounds_on_worst_case() {
    for (e, u) in [(15usize, 64usize), (17, 64)] {
        // Layer 1: the prover certifies the CF pipeline's data-movement
        // phases symbolically (no enumeration over inputs).
        let reports = check_registry_on(SortAlgorithm::CfMerge, BankShape::word32(32), e, u);
        for phase in ["dual-gather", "load-tile", "permuting-load", "store-tile"] {
            for r in reports.iter().filter(|r| r.spec.phase == phase) {
                assert!(
                    r.verdict.is_conflict_free(),
                    "E={e}: expected a certificate for {phase}: {}",
                    r.summary()
                );
            }
        }
        // Layer 2: the dynamic tracer agrees on the adversarial input the
        // certificates quantify over.
        let trace = worst_case_trace(SortAlgorithm::CfMerge, e, u);
        for class in [PhaseClass::Gather, PhaseClass::LoadTile, PhaseClass::StoreTile] {
            assert_eq!(
                conflict_rounds_in(&trace, class),
                0,
                "E={e} u={u}: certified {} phase must record no conflict round",
                class.label()
            );
        }
        // The CF pipeline has no serial-merge phase at all.
        assert_eq!(conflict_rounds_in(&trace, PhaseClass::Merge), 0);
    }
}

#[test]
fn prover_verdicts_hold_dynamically_on_every_device_profile() {
    // For every device profile — including the fused 64-bit-bank Kepler
    // mode, where the bank model re-keys transactions on 64-bit rows —
    // the shape-parametric prover's verdicts must bound what the dynamic
    // tracer observes on the Theorem-8 worst case:
    //   * a phase class whose registry entries are all ConflictFree must
    //     record zero conflict rounds;
    //   * a class with Conflicting { transactions: k } entries must never
    //     exceed the largest claimed k.
    // The tracer uses `device.bank_model()` for its conflict degrees, so
    // this closes the loop between `prove_on` and `BankModel::round_cost`
    // per shape, not just at w = 32 × 32-bit.
    for profile in device_profiles() {
        let shape = BankShape::of_device(&profile.device);
        assert!(shape.supported(), "{}: shipped profiles are inside the lattice", profile.name);
        for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
            for (e, u) in [(15usize, 64usize), (17, 64)] {
                let reports = check_registry_on(algo, shape, e, u);
                assert!(!reports.is_empty());
                for r in &reports {
                    assert!(r.pass(), "{} {} E={e}: {}", profile.name, algo.label(), r.summary());
                }
                let trace = worst_case_trace_on(algo, profile.device.clone(), e, u);
                for class in PhaseClass::all() {
                    let of_class: Vec<_> =
                        reports.iter().filter(|r| r.spec.class == class).collect();
                    if of_class.is_empty() {
                        continue;
                    }
                    // The weakest claim across the class's phases bounds
                    // the class's dynamic degrees. A NotCertifiable entry
                    // (serial merge) makes no claim at all.
                    let mut bound = Some(1u32);
                    for r in &of_class {
                        bound = match (&r.verdict, bound) {
                            (_, None) => None,
                            (Verdict::ConflictFree(_), b) => b,
                            (Verdict::Conflicting { transactions, .. }, Some(b)) => {
                                Some(b.max(*transactions))
                            }
                            (Verdict::NotCertifiable { .. }, _) => None,
                        };
                    }
                    let Some(bound) = bound else { continue };
                    let worst_seen = trace
                        .kernels
                        .iter()
                        .flat_map(|k| &k.blocks)
                        .flat_map(|b| &b.conflicts)
                        .filter(|c| c.class == class)
                        .map(|c| c.degree)
                        .max()
                        .unwrap_or(1);
                    assert!(
                        worst_seen <= bound,
                        "{} {} E={e} u={u} {}: prover claims ≤{bound} transactions but the \
                         tracer saw degree {worst_seen}",
                        profile.name,
                        algo.label(),
                        class.label()
                    );
                }
            }
        }
    }
}

#[test]
fn fused_banks_break_some_certificates_and_the_prover_says_so() {
    // On the 64-bit-bank profile the CF pipeline's coprime layout is no
    // longer universally conflict-free — the prover must *downgrade*
    // (not silently keep) the affected verdicts, and the tracer must
    // actually realize a conflict the 32-bit profile never shows.
    let (e, u) = (15usize, 64usize);
    let w32 = check_registry_on(SortAlgorithm::CfMerge, BankShape::word32(32), e, u);
    let w64 = check_registry_on(SortAlgorithm::CfMerge, BankShape::word64(32), e, u);
    let free = |reports: &[cfmerge::core::analysis::PhaseReport]| {
        reports.iter().filter(|r| r.verdict.is_conflict_free()).count()
    };
    assert!(
        free(&w64) < free(&w32),
        "fusing banks must cost certificates: {} free on 64-bit vs {} on 32-bit",
        free(&w64),
        free(&w32)
    );
    let trace = worst_case_trace_on(SortAlgorithm::CfMerge, Device::kepler_64bit_like(), e, u);
    let conflicts: usize =
        trace.kernels.iter().flat_map(|k| &k.blocks).map(|b| b.conflicts.len()).sum();
    assert!(conflicts > 0, "the downgraded verdicts are real: 64-bit rows do conflict");
}

#[test]
fn uncertified_serial_merge_really_conflicts_on_worst_case() {
    let (e, u) = (15usize, 64usize);
    // The prover refuses the serial merge (comparison-driven addresses) …
    let reports = check_registry_on(SortAlgorithm::ThrustMergesort, BankShape::word32(32), e, u);
    let refusals: Vec<_> = reports.iter().filter(|r| r.spec.phase == "serial-merge").collect();
    assert_eq!(refusals.len(), 2, "blocksort + merge-pass serial merges");
    for r in &refusals {
        assert_eq!(r.spec.expected, Expectation::NotCertifiable, "{}", r.summary());
        assert!(r.pass(), "{}", r.summary());
    }
    // … and the refusal is not conservatism: the worst-case input makes
    // the phase conflict heavily in the dynamic tracer.
    let trace = worst_case_trace(SortAlgorithm::ThrustMergesort, e, u);
    let merge_conflicts = conflict_rounds_in(&trace, PhaseClass::Merge);
    assert!(
        merge_conflicts > 100,
        "Thrust serial merge must conflict on the Theorem-8 input \
         (saw {merge_conflicts} conflict rounds)"
    );
}

#[test]
fn mid_width_writeback_verdict_matches_tracer() {
    // The prover's only non-free verdict in the coprime CF blocksort is
    // the inter-round writeback at mid run widths (exactly 2
    // transactions). The tracer must observe Sort-class conflict rounds
    // of degree exactly 2 — no more — confirming the exact evaluation.
    let (e, u) = (15usize, 64usize);
    let reports = check_registry_on(SortAlgorithm::CfMerge, BankShape::word32(32), e, u);
    assert!(reports.iter().any(|r| r.spec.phase.starts_with("merge-writeback")
        && r.spec.expected == Expectation::CertifiedDegree(2)
        && r.pass()));
    let trace = worst_case_trace(SortAlgorithm::CfMerge, e, u);
    let sort_degrees: Vec<u32> = trace
        .kernels
        .iter()
        .flat_map(|k| &k.blocks)
        .flat_map(|b| &b.conflicts)
        .filter(|c| c.class == PhaseClass::Sort)
        .map(|c| c.degree)
        .collect();
    assert!(!sort_degrees.is_empty(), "mid-width writebacks do conflict");
    assert!(
        sort_degrees.iter().all(|&d| d == 2),
        "every Sort-class conflict round has degree exactly 2: {sort_degrees:?}"
    );
}
