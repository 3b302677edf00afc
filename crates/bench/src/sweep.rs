//! Throughput sweeps over `n = 2^i·E` — the measurement loop behind
//! Figures 5 and 6.
//!
//! The paper sweeps `16 ≤ i ≤ 26` on hardware; simulating every access at
//! `2^26` keys is possible but slow on one host core, so the default
//! range is `9 ≤ i ≤ 15` (from one tile pair up to ~half a million keys —
//! past the occupancy knee, where the curves are flat) and `--full`
//! extends to `i = 18`. EXPERIMENTS.md records which range produced the
//! published numbers.

use cfmerge_core::inputs::InputSpec;
use cfmerge_core::params::SortParams;
use cfmerge_core::sort::{simulate_sort, SortAlgorithm, SortConfig, SortRun};
use cfmerge_json::{FromJson, Json, JsonError, ToJson};

/// One measured point of a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// `n = 2^i · E`.
    pub i: u32,
    /// Input size.
    pub n: usize,
    /// Simulated seconds.
    pub seconds: f64,
    /// Elements per microsecond.
    pub throughput: f64,
    /// Mean bank conflicts per merge/gather round.
    pub conflicts_per_round: f64,
    /// Total bank conflicts in the merge/gather phases.
    pub merge_conflicts: u64,
}

impl ToJson for SweepPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("i", Json::from(self.i)),
            ("n", Json::from(self.n)),
            ("seconds", Json::from(self.seconds)),
            ("throughput", Json::from(self.throughput)),
            ("conflicts_per_round", Json::from(self.conflicts_per_round)),
            ("merge_conflicts", Json::from(self.merge_conflicts)),
        ])
    }
}

impl FromJson for SweepPoint {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            i: v.field("i")?,
            n: v.field("n")?,
            seconds: v.field("seconds")?,
            throughput: v.field("throughput")?,
            conflicts_per_round: v.field("conflicts_per_round")?,
            merge_conflicts: v.field("merge_conflicts")?,
        })
    }
}

/// A full series: one (algorithm, input, parameters) combination.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Display label, e.g. `thrust/worst-case(E=15)/E=15,u=512`.
    pub label: String,
    /// The measured points, ascending in `n`.
    pub points: Vec<SweepPoint>,
}

impl ToJson for Series {
    fn to_json(&self) -> Json {
        Json::obj([("label", Json::from(self.label.as_str())), ("points", self.points.to_json())])
    }
}

impl FromJson for Series {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self { label: v.field("label")?, points: v.field("points")? })
    }
}

/// Default exponent range: `2^9·E … 2^15·E`.
#[must_use]
pub fn default_exponents(u: usize) -> std::ops::RangeInclusive<u32> {
    // Need at least one full tile: 2^i ≥ u.
    let lo = (u as f64).log2().ceil() as u32;
    lo..=15
}

/// Extended range for `--full` runs.
#[must_use]
pub fn full_exponents(u: usize) -> std::ops::RangeInclusive<u32> {
    let lo = (u as f64).log2().ceil() as u32;
    lo..=18
}

/// Run one series.
#[must_use]
pub fn run_series(
    params: SortParams,
    algo: SortAlgorithm,
    input: InputSpec,
    exponents: std::ops::RangeInclusive<u32>,
) -> Series {
    let cfg = SortConfig::with_params(params);
    let points = exponents
        .map(|i| {
            let n = (1usize << i) * params.e;
            let data = input.generate(n);
            let run = simulate_sort(&data, algo, &cfg);
            assert!(run.output.is_sorted(), "pipeline produced unsorted output");
            point_of(i, &run)
        })
        .collect();
    Series {
        label: format!("{}/{}/E={},u={}", algo.label(), input.label(), params.e, params.u),
        points,
    }
}

fn point_of(i: u32, run: &SortRun) -> SweepPoint {
    SweepPoint {
        i,
        n: run.n,
        seconds: run.simulated_seconds,
        throughput: run.throughput().expect("a sweep point sorts at least one tile"),
        conflicts_per_round: run.conflicts_per_merge_round(),
        merge_conflicts: run.profile.merge_bank_conflicts(),
    }
}

/// Parse the common `--full` flag from argv.
#[must_use]
pub fn full_flag() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Render several series as an aligned table: one row per `n`, one column
/// per series (throughput in elements/µs).
#[must_use]
pub fn series_table(series: &[Series]) -> String {
    let mut headers: Vec<&str> = vec!["i", "n"];
    for s in series {
        headers.push(&s.label);
    }
    let rows: Vec<Vec<String>> = series[0]
        .points
        .iter()
        .enumerate()
        .map(|(r, p)| {
            let mut row = vec![p.i.to_string(), p.n.to_string()];
            for s in series {
                row.push(format!("{:.1}", s.points[r].throughput));
            }
            row
        })
        .collect();
    cfmerge_core::metrics::format_table(&headers, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_runs() {
        let params = SortParams::new(5, 32);
        let s =
            run_series(params, SortAlgorithm::CfMerge, InputSpec::UniformRandom { seed: 1 }, 5..=7);
        assert_eq!(s.points.len(), 3);
        assert!(s.points.iter().all(|p| p.throughput > 0.0));
        assert_eq!(s.points[0].n, 32 * 5);
        assert_eq!(s.points[2].n, 128 * 5);
    }

    #[test]
    fn default_range_starts_at_one_tile() {
        assert_eq!(*default_exponents(512).start(), 9);
        assert_eq!(*default_exponents(256).start(), 8);
    }

    #[test]
    fn table_has_all_columns() {
        let params = SortParams::new(5, 32);
        let a = run_series(params, SortAlgorithm::ThrustMergesort, InputSpec::Sorted, 5..=6);
        let b = run_series(params, SortAlgorithm::CfMerge, InputSpec::Sorted, 5..=6);
        let t = series_table(&[a, b]);
        assert!(t.contains("thrust"));
        assert!(t.contains("cf-merge"));
        assert_eq!(t.lines().count(), 4);
    }
}
