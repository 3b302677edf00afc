//! Static lints over the address-schedule IR.
//!
//! The dynamic [`Sanitizer`](super::Sanitizer) checks one concrete
//! execution; these lints decide the same hazard classes **statically**,
//! over the symbolic schedules the certification pipeline already carries:
//!
//! * **`store-overlap`** — barrier-placement safety. The IR's phases are
//!   barrier-delimited single-direction schedules, so the only intra-phase
//!   hazard a barrier cannot order is two lanes (or two rounds of one
//!   lane) storing the same word. Each store schedule is enumerated per
//!   concretization and checked for duplicate addresses.
//! * **`smem-capacity`** / **`footprint-oob`** — the tile must fit the
//!   device's shared-memory budget, and no phase's static footprint may
//!   escape the tile.
//! * **`uninit-read`** — a load phase's footprint must be covered by the
//!   union of earlier store phases' footprints. Data-dependent loads are
//!   conservatively required to find the whole tile initialized;
//!   data-dependent stores conservatively initialize nothing (the dynamic
//!   sanitizer remains the authority for what they actually wrote).
//!
//! Findings are facts about the *schedule*, independent of input data, so
//! a clean lint pass holds for every run the certificate covers.

use super::affine::{reflected_slot, Pattern};
use std::collections::HashSet;
use std::fmt;

/// Direction of a phase's shared-memory traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The phase reads shared memory.
    Load,
    /// The phase writes shared memory.
    Store,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Access::Load => "ld",
            Access::Store => "st",
        })
    }
}

/// One barrier-delimited phase of a kernel, as the lint pass sees it:
/// the schedules of `cfmerge_core::analysis::kernel_registry_on` lowered
/// to (direction, pattern) pairs in execution order.
#[derive(Debug, Clone)]
pub struct PhaseIr {
    /// Kernel the phase belongs to (`blocksort`, `merge-pass`, …).
    pub kernel: String,
    /// Phase name (`load-tile`, `dual-gather`, …).
    pub phase: String,
    /// Traffic direction.
    pub access: Access,
    /// Symbolic address schedule.
    pub pattern: Pattern,
}

/// One lint finding: a static hazard in a kernel's schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintFinding {
    /// Lint name (`store-overlap`, `smem-capacity`, `footprint-oob`,
    /// `uninit-read`).
    pub lint: &'static str,
    /// Kernel the finding is against.
    pub kernel: String,
    /// Phase the finding is against (empty for kernel-level findings).
    pub phase: String,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LintFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}/{}: {}", self.lint, self.kernel, self.phase, self.message)
    }
}

/// Run every lint over one kernel's phases (in execution order) for a
/// launch of `warps` warps of `w` lanes on a tile of `tile_words` shared
/// words and a device budget of `smem_budget_bytes`.
#[must_use]
pub fn lint_phases(
    phases: &[PhaseIr],
    w: usize,
    warps: usize,
    tile_words: usize,
    smem_budget_bytes: usize,
) -> Vec<LintFinding> {
    let mut findings = Vec::new();
    let kernel = phases.first().map_or_else(String::new, |p| p.kernel.clone());

    // smem-capacity: the tile itself must fit the device.
    if tile_words * 4 > smem_budget_bytes {
        findings.push(LintFinding {
            lint: "smem-capacity",
            kernel: kernel.clone(),
            phase: String::new(),
            message: format!(
                "tile of {tile_words} words ({} B) exceeds the device's shared budget of \
                 {smem_budget_bytes} B",
                tile_words * 4
            ),
        });
    }

    let mut written = vec![false; tile_words];
    for p in phases {
        let footprint = p.pattern.footprint_words(w, warps);

        // footprint-oob: the static footprint stays inside the tile.
        if let Some(words) = &footprint {
            if let Some(&max) = words.last() {
                if max as usize >= tile_words {
                    findings.push(LintFinding {
                        lint: "footprint-oob",
                        kernel: p.kernel.clone(),
                        phase: p.phase.clone(),
                        message: format!(
                            "schedule touches word {max}, beyond the {tile_words}-word tile"
                        ),
                    });
                }
            }
        }

        match p.access {
            Access::Store => {
                // store-overlap: no two stores of one barrier-delimited
                // phase may target the same word.
                if let Some(msg) = store_overlap(&p.pattern, w, warps) {
                    findings.push(LintFinding {
                        lint: "store-overlap",
                        kernel: p.kernel.clone(),
                        phase: p.phase.clone(),
                        message: msg,
                    });
                }
                if let Some(words) = &footprint {
                    for &a in words {
                        if (a as usize) < tile_words {
                            written[a as usize] = true;
                        }
                    }
                }
                // A data-dependent store initializes nothing, statically.
            }
            Access::Load => {
                // uninit-read: the load's footprint (the whole tile, for
                // data-dependent reads) must already be written.
                let required: Vec<u32> = footprint
                    .unwrap_or_else(|| (0..tile_words as u32).collect())
                    .into_iter()
                    .filter(|&a| (a as usize) < tile_words)
                    .collect();
                if let Some(&first) = required.iter().find(|&&a| !written[a as usize]) {
                    findings.push(LintFinding {
                        lint: "uninit-read",
                        kernel: p.kernel.clone(),
                        phase: p.phase.clone(),
                        message: format!(
                            "reads word {first} before any earlier phase statically wrote it"
                        ),
                    });
                }
            }
        }
    }
    findings
}

/// Duplicate-address check over a store schedule's concretizations.
/// Returns a description of the first collision, or `None` when every
/// concretization stores each word at most once.
fn store_overlap(pattern: &Pattern, w: usize, warps: usize) -> Option<String> {
    match *pattern {
        Pattern::Affine { form, rounds } => {
            // One fully static concretization: all (tid, round) pairs.
            let mut seen = HashSet::new();
            for tid in 0..warps * w {
                for t in 0..rounds {
                    let a = form.addr(tid, t);
                    if !seen.insert(a) {
                        return Some(format!(
                            "lane {tid} round {t} stores word {a}, already stored this phase \
                             (no barrier separates them)"
                        ));
                    }
                }
            }
            None
        }
        Pattern::Reflected { e, run_w, warps: pw } => {
            let total = pw * w * e;
            let mut seen = vec![false; total];
            for rank in 0..total {
                let slot = reflected_slot(rank, run_w);
                if slot >= total || seen[slot] {
                    return Some(format!("rank {rank} stores slot {slot}, not a bijection"));
                }
                seen[slot] = true;
            }
            None
        }
        Pattern::PermutedLoad { e } => {
            // One concretization per boundary; each must be a bijection
            // of [0, total). Representative boundaries cover the edge
            // cases (empty/full runs, warp-interior, warp-aligned).
            let total = warps * w * e;
            for a_len in [0, 1, w - 1, w, total / 2, total - 1, total] {
                let mut seen = vec![false; total];
                for s in 0..total {
                    let slot = if s < a_len { s } else { total - 1 - (s - a_len) };
                    if seen[slot] {
                        return Some(format!(
                            "boundary a_len={a_len}: flat index {s} stores slot {slot} twice"
                        ));
                    }
                    seen[slot] = true;
                }
            }
            None
        }
        // The gathers are load-shaped; if a registry ever marks one as a
        // store, its address map is a bijection of the tile — verify it.
        Pattern::GatherCf { .. } | Pattern::GatherReversal { .. } => {
            let words = pattern.footprint_words(w, warps)?;
            let tile = warps
                * w
                * (match *pattern {
                    Pattern::GatherCf { e } | Pattern::GatherReversal { e } => e,
                    _ => unreachable!(),
                });
            (words.len() != tile)
                .then(|| format!("gather store covers {} of {tile} tile words", words.len()))
        }
        // The dynamic sanitizer owns data-dependent stores.
        Pattern::DataDependent(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::AffineForm;

    fn coalesced(e: usize, u: usize) -> Pattern {
        Pattern::Affine { form: AffineForm { base: 0, lane: 1, step: u as i64 }, rounds: e }
    }

    fn strided(e: usize) -> Pattern {
        Pattern::Affine { form: AffineForm { base: 0, lane: e as i64, step: 1 }, rounds: e }
    }

    fn phase(kernel: &str, name: &str, access: Access, pattern: Pattern) -> PhaseIr {
        PhaseIr { kernel: kernel.into(), phase: name.into(), access, pattern }
    }

    #[test]
    fn clean_blocksort_shape_has_no_findings() {
        let (e, w, warps) = (15, 32, 16);
        let u = w * warps;
        let phases = vec![
            phase("blocksort", "load-tile", Access::Store, coalesced(e, u)),
            phase("blocksort", "register-pull", Access::Load, strided(e)),
            phase("blocksort", "sort-writeback", Access::Store, strided(e)),
            phase("blocksort", "dual-gather", Access::Load, Pattern::GatherCf { e }),
        ];
        let findings = lint_phases(&phases, w, warps, u * e, 64 * 1024);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn capacity_violation_is_reported() {
        let phases = vec![phase("blocksort", "load-tile", Access::Store, coalesced(15, 512))];
        let findings = lint_phases(&phases, 32, 16, 512 * 15, 1024);
        assert!(findings.iter().any(|f| f.lint == "smem-capacity"), "{findings:?}");
    }

    #[test]
    fn uninitialized_read_is_reported() {
        // A strided read with no store before it.
        let phases = vec![phase("blocksort", "register-pull", Access::Load, strided(15))];
        let findings = lint_phases(&phases, 32, 16, 512 * 15, 64 * 1024);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, "uninit-read");
    }

    #[test]
    fn data_dependent_read_requires_full_tile_init() {
        // A partial store (half the rounds) followed by a data-dependent
        // read must be flagged: the read may touch any tile word.
        let half = Pattern::Affine { form: AffineForm { base: 0, lane: 1, step: 512 }, rounds: 7 };
        let phases = vec![
            phase("merge-pass", "load-tile", Access::Store, half),
            phase("merge-pass", "serial-merge", Access::Load, Pattern::DataDependent("merge")),
        ];
        let findings = lint_phases(&phases, 32, 16, 512 * 15, 64 * 1024);
        assert!(findings.iter().any(|f| f.lint == "uninit-read"), "{findings:?}");
    }

    #[test]
    fn overlapping_store_is_reported() {
        // Broadcast store: every lane stores word 0 — a WAW hazard no
        // barrier placement can order.
        let bad = Pattern::Affine { form: AffineForm { base: 0, lane: 0, step: 0 }, rounds: 1 };
        let phases = vec![phase("k", "bad-store", Access::Store, bad)];
        let findings = lint_phases(&phases, 32, 2, 64, 64 * 1024);
        assert!(findings.iter().any(|f| f.lint == "store-overlap"), "{findings:?}");
    }

    #[test]
    fn oob_footprint_is_reported() {
        let phases = vec![phase("k", "store", Access::Store, coalesced(15, 512))];
        // Tile declared smaller than the schedule's reach.
        let findings = lint_phases(&phases, 32, 16, 512 * 15 - 1, 64 * 1024);
        assert!(findings.iter().any(|f| f.lint == "footprint-oob"), "{findings:?}");
    }

    #[test]
    fn permuted_and_reflected_stores_are_bijections() {
        let (e, w, warps) = (15, 32, 4);
        let u = w * warps;
        let phases = vec![
            phase("merge-pass", "permuting-load", Access::Store, Pattern::PermutedLoad { e }),
            phase(
                "merge-pass",
                "stage-store",
                Access::Store,
                Pattern::Reflected { e, run_w: e, warps },
            ),
        ];
        let findings = lint_phases(&phases, w, warps, u * e, 64 * 1024);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
