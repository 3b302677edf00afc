//! Static conflict-freedom analysis of the shipping kernels.
//!
//! [`kernel_registry_on`] writes down, for every shared-memory phase of
//! both pipelines on one device [`BankShape`], the symbolic address
//! [`Pattern`] the phase follows and the [`Expectation`] we hold the
//! prover to. [`check_registry_on`] runs the prover
//! ([`cfmerge_gpu_sim::check::prove_on`]) over the registry and
//! cross-validates every certified verdict against the bank cost model on
//! sampled concretizations. The certificate table
//! ([`crate::cert::build_certificate_table`], emitted and gated by the
//! `kernel_cert` bin) and the analysis test suites both consume this, so a
//! kernel edit that silently changes an address schedule fails the build,
//! not a benchmark run months later.
//!
//! The registry is *honest*: phases that are not conflict-free say so.
//! The Thrust serial merge is [`Expectation::NotCertifiable`] (its
//! addresses are comparison-driven — this is exactly the phase the
//! worst-case inputs of Section 4 attack), and the CF blocksort's
//! inter-round writeback at mid run widths costs exactly 2 transactions
//! (two coprime-stride pieces meeting in a bank; each piece alone is
//! free). See `docs/ANALYSIS.md` for the full proof chain.

use crate::sort::SortAlgorithm;
use cfmerge_gpu_sim::check::{
    cross_validate_on, prove_on, AffineForm, BankShape, Pattern, Verdict,
};
use cfmerge_gpu_sim::PhaseClass;
use cfmerge_numtheory::gcd;

/// What the prover must conclude about a phase for the registry to pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// Must be certified conflict-free (for all lanes, rounds, inputs).
    CertifiedFree,
    /// Must be certified to conflict with exactly this many transactions
    /// per round.
    CertifiedDegree(u32),
    /// Exact evaluation may land anywhere in `1..=N` transactions (static
    /// schedules whose cost varies with run width).
    BoundedDegree(u32),
    /// The prover must *refuse*: no schedule-level argument exists.
    NotCertifiable,
    /// The registry holds **no** pinned expectation for this device shape
    /// (it is outside the supported lattice). The only acceptable verdict
    /// is a refusal: an optimistic `ConflictFree` on a shape we have not
    /// analyzed is exactly the bug the fail-closed design exists to catch.
    Unknown,
}

impl Expectation {
    /// Short label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Expectation::CertifiedFree => "conflict-free".into(),
            Expectation::CertifiedDegree(n) => format!("exactly {n} transactions"),
            Expectation::BoundedDegree(n) => format!("at most {n} transactions"),
            Expectation::NotCertifiable => "not certifiable".into(),
            Expectation::Unknown => "no pinned expectation — fail closed".into(),
        }
    }

    /// Does `verdict` satisfy this expectation?
    #[must_use]
    pub fn satisfied_by(&self, verdict: &Verdict) -> bool {
        match (self, verdict) {
            (Expectation::CertifiedFree, Verdict::ConflictFree(_)) => true,
            (Expectation::CertifiedDegree(n), Verdict::Conflicting { transactions, .. }) => {
                transactions == n
            }
            (Expectation::BoundedDegree(_), Verdict::ConflictFree(_)) => true,
            (Expectation::BoundedDegree(n), Verdict::Conflicting { transactions, .. }) => {
                transactions <= n
            }
            (Expectation::NotCertifiable, Verdict::NotCertifiable { .. }) => true,
            (Expectation::Unknown, Verdict::NotCertifiable { .. }) => true,
            _ => false,
        }
    }
}

/// One shared-memory phase of a shipping kernel: its symbolic address
/// schedule and the verdict we expect.
#[derive(Debug, Clone)]
pub struct PhaseSpec {
    /// Kernel name (`blocksort` or `merge-pass`).
    pub kernel: &'static str,
    /// Phase label (includes the run width for per-round writebacks).
    pub phase: String,
    /// `"ld"` or `"st"`.
    pub access: &'static str,
    /// The profiler phase class this schedule executes under — the key
    /// the registry-completeness audit matches dynamic traffic against.
    pub class: PhaseClass,
    /// The address schedule.
    pub pattern: Pattern,
    /// The verdict this spec is held to.
    pub expected: Expectation,
}

/// The outcome of proving one [`PhaseSpec`].
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// The spec that was checked.
    pub spec: PhaseSpec,
    /// What the prover concluded.
    pub verdict: Verdict,
    /// Agreement between the verdict and the bank cost model on sampled
    /// concretizations (`Ok` when they agree or no samples exist).
    pub cross_validation: Result<(), String>,
}

impl PhaseReport {
    /// `true` when the verdict satisfies the expectation and
    /// cross-validation found no disagreement.
    #[must_use]
    pub fn pass(&self) -> bool {
        self.spec.expected.satisfied_by(&self.verdict) && self.cross_validation.is_ok()
    }

    /// One-line summary for reports.
    #[must_use]
    pub fn summary(&self) -> String {
        let status = if self.pass() { "ok " } else { "FAIL" };
        let xv = match &self.cross_validation {
            Ok(()) => String::new(),
            Err(e) => format!(" [cross-validation: {e}]"),
        };
        format!(
            "{status} {:>10} {:<28} {} — {} (expected {}){xv}",
            self.spec.kernel,
            self.spec.phase,
            self.spec.access,
            self.verdict.summary(),
            self.spec.expected.label(),
        )
    }
}

/// `CertifiedFree` for degree 1, else `CertifiedDegree(d)`.
fn degree(d: u32) -> Expectation {
    if d == 1 {
        Expectation::CertifiedFree
    } else {
        Expectation::CertifiedDegree(d)
    }
}

/// Expectation for a pure strided schedule (`lane coefficient E`) on
/// `shape`. 32-bit rows: free iff coprime, else exactly `gcd(E, w)`
/// transactions. 64-bit rows fuse word pairs: an even stride `E = 2a`
/// walks rows with stride `a`, giving exactly `gcd(a, w)` transactions; an
/// odd stride keeps addresses distinct mod `2w`, so each fused bank serves
/// at most 2 rows (the paper's coprime strides lose conflict-freedom on
/// 64-bit banks, but never by more than 2×).
fn strided_on(e: usize, shape: BankShape) -> Expectation {
    let w = shape.banks;
    if shape.word_u32s == 1 {
        degree(gcd(e as u64, w as u64) as u32)
    } else if e.is_multiple_of(2) {
        degree(gcd((e / 2) as u64, w as u64) as u32)
    } else {
        Expectation::BoundedDegree(2)
    }
}

/// Expectation for the dual gather over the reversal-only layout: the
/// round set is `{q·E + j}` over `w` consecutive `q` — the same
/// arithmetic-progression structure as a strided schedule, so the same
/// shape-parametric analysis applies.
fn gather_reversal_on(e: usize, shape: BankShape) -> Expectation {
    strided_on(e, shape)
}

/// Expectation for the ρ-permuted CF gather. 32-bit rows: certified free
/// (Corollary 18 + ρ bijectivity). 64-bit rows: for `d = 1` ρ is the
/// identity and the odd-stride bound applies (≤ 2); for `d > 1` ρ's
/// partition rotations interact with row fusion — bounded only by the
/// trivial `w`, pinned exactly by the fused exhaustive evaluation.
fn gather_cf_on(e: usize, shape: BankShape) -> Expectation {
    let w = shape.banks;
    if shape.word_u32s == 1 {
        Expectation::CertifiedFree
    } else if gcd(e as u64, w as u64) == 1 && e % 2 == 1 {
        Expectation::BoundedDegree(2)
    } else {
        Expectation::BoundedDegree(w as u32)
    }
}

/// Expectation for the CF blocksort writeback through `cf_rank_slot` at
/// run width `run_w` (established by exhaustive evaluation; see
/// `docs/ANALYSIS.md`). 32-bit rows, coprime `E`: the first writeback
/// (`run_w = E`) and every writeback at `run_w ≥ w·E` are free, mid widths
/// cost exactly 2 (an ascending stride-`E` piece and a descending
/// stride-`−E` piece meet in one bank). `d > 1` or fused 64-bit rows:
/// bounded by the trivial `w`; the exhaustive rules pin the exact value.
fn reflected_on(e: usize, run_w: usize, shape: BankShape) -> Expectation {
    let w = shape.banks;
    if shape.word_u32s != 1 || gcd(e as u64, w as u64) != 1 {
        return Expectation::BoundedDegree(w as u32);
    }
    if run_w == e || run_w >= w * e {
        Expectation::CertifiedFree
    } else {
        Expectation::CertifiedDegree(2)
    }
}

/// Expectation for the merge-pass permuting load. 32-bit rows: certified
/// free for `d = 1` (split-unit-stride), refused otherwise. 64-bit rows,
/// `d = 1`: both pieces are unit-stride, and consecutive addresses pair
/// into shared rows, so each boundary's round costs at most 2.
fn permuted_on(e: usize, shape: BankShape) -> Expectation {
    if gcd(e as u64, shape.banks as u64) != 1 {
        Expectation::NotCertifiable
    } else if shape.word_u32s == 1 {
        Expectation::CertifiedFree
    } else {
        Expectation::BoundedDegree(2)
    }
}

/// The full phase registry of one pipeline at parameters `(E, u)` on an
/// explicit device [`BankShape`]: every shared-memory access schedule of
/// the blocksort and merge-pass kernels, in execution order, with
/// **per-shape** expectations (the gcd arithmetic that decides
/// conflict-freedom changes with the bank row width).
///
/// Shapes outside the supported lattice get [`Expectation::Unknown`] on
/// every phase: the only verdict that passes is a refusal, never an
/// optimistic carry-over of another shape's certificate.
///
/// # Panics
/// Panics unless `u` is a power-of-two multiple of `w` (the blocksort's
/// own launch precondition).
#[must_use]
pub fn kernel_registry_on(
    algo: SortAlgorithm,
    shape: BankShape,
    e: usize,
    u: usize,
) -> Vec<PhaseSpec> {
    let w = shape.banks;
    assert!(
        u.is_multiple_of(w) && u.is_power_of_two(),
        "u={u} must be a power-of-two multiple of w={w}"
    );
    let warps = u / w;
    let tile = u * e;
    // The two strided workhorses: coalesced tile traffic (lane stride 1,
    // round stride u) and rank-order register traffic (lane stride E).
    let coalesced =
        Pattern::Affine { form: AffineForm { base: 0, lane: 1, step: u as i64 }, rounds: e };
    let rank_strided =
        Pattern::Affine { form: AffineForm { base: 0, lane: e as i64, step: 1 }, rounds: e };
    let search = Pattern::DataDependent(
        "merge-path binary search: probe addresses and trip counts depend on key values \
         (predicated, divergence-exempt)",
    );

    let mut specs = vec![
        PhaseSpec {
            kernel: "blocksort",
            phase: "load-tile".into(),
            access: "st",
            class: PhaseClass::LoadTile,
            pattern: coalesced.clone(),
            // Unit lane stride: consecutive addresses are conflict-free
            // on 32-bit rows and pair into shared rows on 64-bit rows.
            expected: Expectation::CertifiedFree,
        },
        PhaseSpec {
            kernel: "blocksort",
            phase: "register-pull".into(),
            access: "ld",
            class: PhaseClass::Sort,
            pattern: rank_strided.clone(),
            expected: strided_on(e, shape),
        },
    ];

    match algo {
        SortAlgorithm::ThrustMergesort => {
            specs.push(PhaseSpec {
                kernel: "blocksort",
                phase: "sort-writeback".into(),
                access: "st",
                class: PhaseClass::Sort,
                pattern: rank_strided.clone(),
                expected: strided_on(e, shape),
            });
            specs.push(PhaseSpec {
                kernel: "blocksort",
                phase: "merge-path-search".into(),
                access: "ld",
                class: PhaseClass::Search,
                pattern: search.clone(),
                expected: Expectation::NotCertifiable,
            });
            specs.push(PhaseSpec {
                kernel: "blocksort",
                phase: "serial-merge".into(),
                access: "ld",
                class: PhaseClass::Merge,
                pattern: Pattern::DataDependent(
                    "serial merge: each load's address depends on every prior comparison — \
                     the phase the worst-case inputs of Section 4 attack",
                ),
                expected: Expectation::NotCertifiable,
            });
            specs.push(PhaseSpec {
                kernel: "blocksort",
                phase: "merge-writeback".into(),
                access: "st",
                class: PhaseClass::Sort,
                pattern: rank_strided.clone(),
                expected: strided_on(e, shape),
            });
        }
        SortAlgorithm::CfMerge => {
            specs.push(PhaseSpec {
                kernel: "blocksort",
                phase: "sort-writeback(W=E)".into(),
                access: "st",
                class: PhaseClass::Sort,
                pattern: Pattern::Reflected { e, run_w: e, warps },
                expected: reflected_on(e, e, shape),
            });
            specs.push(PhaseSpec {
                kernel: "blocksort",
                phase: "merge-path-search".into(),
                access: "ld",
                class: PhaseClass::Search,
                pattern: search.clone(),
                expected: Expectation::NotCertifiable,
            });
            specs.push(PhaseSpec {
                kernel: "blocksort",
                phase: "dual-gather".into(),
                access: "ld",
                class: PhaseClass::Gather,
                pattern: Pattern::GatherReversal { e },
                expected: gather_reversal_on(e, shape),
            });
            // One writeback per merge round: reflected into the next
            // round's layout, natural on the last.
            let mut run_w = e;
            while run_w < tile {
                let next_w = 2 * run_w;
                if next_w >= tile {
                    specs.push(PhaseSpec {
                        kernel: "blocksort",
                        phase: format!("final-writeback(W={run_w})"),
                        access: "st",
                        class: PhaseClass::Sort,
                        pattern: rank_strided.clone(),
                        expected: strided_on(e, shape),
                    });
                } else {
                    specs.push(PhaseSpec {
                        kernel: "blocksort",
                        phase: format!("merge-writeback(W={run_w})"),
                        access: "st",
                        class: PhaseClass::Sort,
                        pattern: Pattern::Reflected { e, run_w: next_w, warps },
                        expected: reflected_on(e, next_w, shape),
                    });
                }
                run_w = next_w;
            }
        }
    }
    specs.push(PhaseSpec {
        kernel: "blocksort",
        phase: "store-tile".into(),
        access: "ld",
        class: PhaseClass::StoreTile,
        pattern: coalesced.clone(),
        expected: Expectation::CertifiedFree,
    });

    // ---- merge pass ----
    match algo {
        SortAlgorithm::ThrustMergesort => {
            specs.push(PhaseSpec {
                kernel: "merge-pass",
                phase: "load-tile".into(),
                access: "st",
                class: PhaseClass::LoadTile,
                pattern: coalesced.clone(),
                expected: Expectation::CertifiedFree,
            });
            specs.push(PhaseSpec {
                kernel: "merge-pass",
                phase: "merge-path-search".into(),
                access: "ld",
                class: PhaseClass::Search,
                pattern: search.clone(),
                expected: Expectation::NotCertifiable,
            });
            specs.push(PhaseSpec {
                kernel: "merge-pass",
                phase: "serial-merge".into(),
                access: "ld",
                class: PhaseClass::Merge,
                pattern: Pattern::DataDependent(
                    "serial merge: comparison-driven loads from shared memory",
                ),
                expected: Expectation::NotCertifiable,
            });
        }
        SortAlgorithm::CfMerge => {
            specs.push(PhaseSpec {
                kernel: "merge-pass",
                phase: "permuting-load".into(),
                access: "st",
                class: PhaseClass::LoadTile,
                pattern: Pattern::PermutedLoad { e },
                expected: permuted_on(e, shape),
            });
            specs.push(PhaseSpec {
                kernel: "merge-pass",
                phase: "merge-path-search".into(),
                access: "ld",
                class: PhaseClass::Search,
                pattern: search,
                expected: Expectation::NotCertifiable,
            });
            specs.push(PhaseSpec {
                kernel: "merge-pass",
                phase: "dual-gather".into(),
                access: "ld",
                class: PhaseClass::Gather,
                pattern: Pattern::GatherCf { e },
                expected: gather_cf_on(e, shape),
            });
        }
    }
    specs.push(PhaseSpec {
        kernel: "merge-pass",
        phase: "stage-store".into(),
        access: "st",
        class: PhaseClass::StoreTile,
        pattern: rank_strided,
        expected: strided_on(e, shape),
    });
    specs.push(PhaseSpec {
        kernel: "merge-pass",
        phase: "store-tile".into(),
        access: "ld",
        class: PhaseClass::StoreTile,
        pattern: coalesced,
        expected: Expectation::CertifiedFree,
    });
    if !shape.supported() {
        // Fail closed: no expectation is pinned for shapes we have not
        // analyzed, and only a refusal from the prover passes.
        for spec in &mut specs {
            spec.expected = Expectation::Unknown;
        }
    }
    specs
}

/// Prove every spec of [`kernel_registry_on`] on an explicit device shape
/// and cross-validate the verdicts against that shape's bank cost model.
///
/// # Panics
/// Same conditions as [`kernel_registry_on`].
#[must_use]
pub fn check_registry_on(
    algo: SortAlgorithm,
    shape: BankShape,
    e: usize,
    u: usize,
) -> Vec<PhaseReport> {
    let warps = u / shape.banks;
    kernel_registry_on(algo, shape, e, u)
        .into_iter()
        .map(|spec| {
            let verdict = prove_on(&spec.pattern, shape, warps);
            let cross_validation = cross_validate_on(&spec.pattern, &verdict, shape, warps);
            PhaseReport { spec, verdict, cross_validation }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfmerge_gpu_sim::check::prove;

    #[test]
    fn shipping_configs_pass_the_registry() {
        for (e, u) in [(15usize, 512usize), (17, 256)] {
            for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
                for report in check_registry_on(algo, BankShape::word32(32), e, u) {
                    assert!(report.pass(), "{}", report.summary());
                }
            }
        }
    }

    #[test]
    fn cf_gather_phases_are_certified_free() {
        let reports = check_registry_on(SortAlgorithm::CfMerge, BankShape::word32(32), 15, 512);
        let gathers: Vec<_> = reports.iter().filter(|r| r.spec.phase.contains("gather")).collect();
        assert_eq!(gathers.len(), 2, "blocksort + merge-pass gathers");
        for g in gathers {
            assert!(g.verdict.is_conflict_free(), "{}", g.summary());
        }
    }

    #[test]
    fn thrust_serial_merge_is_not_certified() {
        let reports =
            check_registry_on(SortAlgorithm::ThrustMergesort, BankShape::word32(32), 15, 512);
        let serial: Vec<_> = reports.iter().filter(|r| r.spec.phase == "serial-merge").collect();
        assert_eq!(serial.len(), 2, "blocksort + merge-pass serial merges");
        for s in serial {
            assert!(matches!(s.verdict, Verdict::NotCertifiable { .. }), "{}", s.summary());
        }
    }

    #[test]
    fn noncoprime_e_registry_is_honest() {
        // E = 16, w = 32: the registry expects the strided phases and the
        // reversal-only gather to conflict (degree 16), the ρ gather to
        // stay free, and the permuting load to be refused — and passes.
        let reports = check_registry_on(SortAlgorithm::CfMerge, BankShape::word32(32), 16, 256);
        for report in &reports {
            assert!(report.pass(), "{}", report.summary());
        }
        let by_phase = |p: &str| {
            reports
                .iter()
                .find(|r| r.spec.phase == p)
                .unwrap_or_else(|| panic!("missing phase {p}"))
        };
        assert!(matches!(
            by_phase("dual-gather").verdict,
            Verdict::Conflicting { transactions: 16, .. }
        ));
        let mp_gather = reports
            .iter()
            .find(|r| r.spec.kernel == "merge-pass" && r.spec.phase == "dual-gather")
            .expect("merge-pass gather");
        assert!(mp_gather.verdict.is_conflict_free(), "{}", mp_gather.summary());
        assert!(matches!(by_phase("permuting-load").verdict, Verdict::NotCertifiable { .. }));
    }

    #[test]
    fn expectation_matching_is_strict() {
        use Expectation::*;
        let free = prove(&Pattern::GatherCf { e: 15 }, 32);
        assert!(CertifiedFree.satisfied_by(&free));
        assert!(BoundedDegree(2).satisfied_by(&free));
        assert!(!NotCertifiable.satisfied_by(&free));
        let conf = prove(&Pattern::GatherReversal { e: 16 }, 32);
        assert!(CertifiedDegree(16).satisfied_by(&conf));
        assert!(!CertifiedDegree(8).satisfied_by(&conf));
        assert!(BoundedDegree(16).satisfied_by(&conf));
        assert!(!BoundedDegree(15).satisfied_by(&conf));
        assert!(!CertifiedFree.satisfied_by(&conf));
        assert!(!Unknown.satisfied_by(&free));
        assert!(!Unknown.satisfied_by(&conf));
        assert!(Unknown.satisfied_by(&Verdict::NotCertifiable { reason: "x".into() }));
    }

    #[test]
    fn shipping_configs_pass_the_registry_on_64bit_banks() {
        let shape = BankShape::word64(32);
        for (e, u) in [(15usize, 512usize), (17, 256), (16, 256)] {
            for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
                for report in check_registry_on(algo, shape, e, u) {
                    assert!(report.pass(), "E={e} u={u}: {}", report.summary());
                }
            }
        }
    }

    #[test]
    fn fused_banks_change_the_verdict_qualitatively() {
        // E=15, w=32 is the paper's coprime sweet spot: every certified
        // phase conflict-free on 32-bit rows. On 64-bit rows the strided
        // phases lose conflict-freedom (degree 2) — CF-Merge's immunity
        // does not transfer unexamined across bank widths.
        let w32 = check_registry_on(SortAlgorithm::CfMerge, BankShape::word32(32), 15, 512);
        let w64 = check_registry_on(SortAlgorithm::CfMerge, BankShape::word64(32), 15, 512);
        let free = |rs: &[PhaseReport]| rs.iter().filter(|r| r.verdict.is_conflict_free()).count();
        assert!(free(&w64) < free(&w32), "{} !< {}", free(&w64), free(&w32));
        let pull64 = w64.iter().find(|r| r.spec.phase == "register-pull").expect("register-pull");
        assert!(
            matches!(pull64.verdict, Verdict::Conflicting { transactions, .. } if transactions == 2),
            "{}",
            pull64.summary()
        );
    }

    #[test]
    fn unsupported_shape_fails_closed_everywhere() {
        let weird = BankShape { banks: 32, word_u32s: 4 };
        for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
            let reports = check_registry_on(algo, weird, 15, 512);
            assert!(!reports.is_empty());
            for report in reports {
                assert_eq!(report.spec.expected, Expectation::Unknown);
                assert!(
                    matches!(report.verdict, Verdict::NotCertifiable { .. }),
                    "{}",
                    report.summary()
                );
                assert!(report.pass(), "{}", report.summary());
            }
        }
    }

    #[test]
    fn registry_covers_every_dynamic_phase_class() {
        // Every phase class the profiled pipelines drive shared traffic
        // through must appear in the registry (the static half of the
        // completeness audit; the dynamic half lives in `cert.rs`).
        use cfmerge_gpu_sim::PhaseClass;
        for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
            let classes: Vec<PhaseClass> = kernel_registry_on(algo, BankShape::word32(32), 15, 512)
                .iter()
                .map(|s| s.class)
                .collect();
            for class in
                [PhaseClass::LoadTile, PhaseClass::Search, PhaseClass::Sort, PhaseClass::StoreTile]
            {
                assert!(classes.contains(&class), "{algo:?} registry missing {class:?}");
            }
        }
    }
}
