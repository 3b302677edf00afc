//! Machine-readable run artifacts.
//!
//! Every bench binary emits, next to its text report, one JSON
//! [`RunArtifact`] capturing what was run (device, parameters), what was
//! measured (sweep [`Series`], per-run [`RunRecord`]s with full per-kernel
//! profiles and timing breakdowns), and the derived headline numbers
//! (`summaries`). Artifacts are self-describing (`schema_version`) and
//! round-trip through [`cfmerge_json`], so later tooling — notably the
//! `bench_diff` binary — can turn two artifacts from different revisions
//! into a speedup table without re-running the sweep.
//!
//! Artifacts land in `$CFMERGE_RESULTS_DIR` (default `results/`) as
//! `<tool>.json`.

use crate::sweep::Series;
use cfmerge_core::metrics::speedup_summary;
use cfmerge_core::recovery::{RecoveryCounters, RobustSortRun};
use cfmerge_core::resilience::ServiceCounters;
use cfmerge_core::sort::{KernelReport, SortAlgorithm, SortRun};
use cfmerge_core::telemetry::MetricsSnapshot;
use cfmerge_gpu_sim::device::Device;
use cfmerge_json::{FromJson, Json, JsonError, ToJson};
use std::path::{Path, PathBuf};

/// Version of the artifact layout; bump on breaking schema changes.
///
/// History:
/// - **1** — initial layout: `schema_version`/`tool`/`device`/`series`/
///   `runs`/`summaries`.
/// - **2** — optional top-level `telemetry` [`MetricsSnapshot`]. Version-1
///   files still parse (the field defaults to `None`); see the schema
///   migration test in `crates/bench/tests/`.
pub const SCHEMA_VERSION: u64 = 2;

/// One fully-profiled pipeline run (as opposed to a sweep point, which
/// keeps only the headline scalars).
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// Display label, e.g. `cf-merge/random/E=15,u=512`.
    pub label: String,
    /// Algorithm label (`thrust` / `cf-merge`).
    pub algorithm: String,
    /// Input size.
    pub n: usize,
    /// Total modeled runtime in seconds.
    pub simulated_seconds: f64,
    /// Elements per microsecond.
    pub throughput: f64,
    /// Total bank conflicts in the merge/gather phases.
    pub merge_conflicts: u64,
    /// Per-launch detail: per-phase counters and the timing-model term
    /// breakdown for every kernel of the pipeline.
    pub kernels: Vec<KernelReport>,
    /// Fault-injection/recovery counters, present only for runs produced
    /// by the robust driver (`None` for plain pipeline runs, and for
    /// artifacts written before the field existed).
    pub recovery: Option<RecoveryCounters>,
}

impl RunRecord {
    /// Capture a finished [`SortRun`].
    ///
    /// # Panics
    /// Panics on an empty run, which has no throughput: every recorded
    /// run sorts at least one tile.
    #[must_use]
    pub fn from_run<K>(label: impl Into<String>, algo: SortAlgorithm, run: &SortRun<K>) -> Self {
        Self {
            label: label.into(),
            algorithm: algo.label().to_string(),
            n: run.n,
            simulated_seconds: run.simulated_seconds,
            throughput: run.throughput().expect("a recorded run is not empty"),
            merge_conflicts: run.profile.merge_bank_conflicts(),
            kernels: run.kernels.clone(),
            recovery: None,
        }
    }

    /// Capture a run of the robust driver, folding its recovery counters
    /// into the record. The `algorithm` field reports the pipeline that
    /// actually produced the output (post-fallback).
    #[must_use]
    pub fn from_robust_run<K>(label: impl Into<String>, run: &RobustSortRun<K>) -> Self {
        let mut rec = Self::from_run(label, run.algorithm, &run.run);
        rec.recovery = Some(run.report.counters);
        rec
    }

    /// Like [`RunRecord::from_robust_run`] but without the per-kernel
    /// detail — the compact per-job summary campaign artifacts use
    /// (a 128-job chaos sweep with full kernel breakdowns is tens of
    /// thousands of lines for numbers nobody diffs). Headline scalars,
    /// the modeled seconds, and the recovery counters are all kept, so
    /// `bench_diff` tables are unchanged.
    #[must_use]
    pub fn compact_from_robust_run<K>(label: impl Into<String>, run: &RobustSortRun<K>) -> Self {
        let mut rec = Self::from_robust_run(label, run);
        rec.kernels.clear();
        rec
    }
}

impl ToJson for RunRecord {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("label", Json::from(self.label.as_str())),
            ("algorithm", Json::from(self.algorithm.as_str())),
            ("n", Json::from(self.n)),
            ("simulated_seconds", Json::from(self.simulated_seconds)),
            ("throughput", Json::from(self.throughput)),
            ("merge_conflicts", Json::from(self.merge_conflicts)),
            ("kernels", self.kernels.to_json()),
        ];
        if let Some(rc) = &self.recovery {
            pairs.push(("recovery", rc.to_json()));
        }
        Json::obj(pairs)
    }
}

impl FromJson for RunRecord {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            label: v.field("label")?,
            algorithm: v.field("algorithm")?,
            n: v.field("n")?,
            simulated_seconds: v.field("simulated_seconds")?,
            throughput: v.field("throughput")?,
            merge_conflicts: v.field("merge_conflicts")?,
            kernels: v.field("kernels")?,
            recovery: v.field_opt("recovery")?,
        })
    }
}

/// The machine-readable result of one bench binary.
#[derive(Debug, Clone)]
pub struct RunArtifact {
    /// Schema version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u64,
    /// Producing binary (`fig5`, `speedup_summary`, …); also the file stem.
    pub tool: String,
    /// The simulated device the numbers were produced on.
    pub device: Device,
    /// Throughput sweeps (empty for non-sweep tools).
    pub series: Vec<Series>,
    /// Individually profiled runs (empty for sweep-only tools).
    pub runs: Vec<RunRecord>,
    /// Tool-specific headline numbers as a free-form JSON object
    /// (speedup summaries, conflict totals, table rows).
    pub summaries: Json,
    /// Frozen metrics from the run's telemetry registry (`None` for
    /// tools that don't record telemetry, and for version-1 artifacts).
    pub telemetry: Option<MetricsSnapshot>,
}

impl RunArtifact {
    /// Start an empty artifact for `tool` on `device`.
    #[must_use]
    pub fn new(tool: impl Into<String>, device: Device) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            tool: tool.into(),
            device,
            series: Vec::new(),
            runs: Vec::new(),
            summaries: Json::Obj(Vec::new()),
            telemetry: None,
        }
    }

    /// Append a summary entry under `key`.
    pub fn add_summary(&mut self, key: &str, value: impl Into<Json>) {
        if let Json::Obj(pairs) = &mut self.summaries {
            pairs.push((key.to_string(), value.into()));
        }
    }

    /// Where artifacts go: `$CFMERGE_RESULTS_DIR`, default `results/`.
    #[must_use]
    pub fn results_dir() -> PathBuf {
        std::env::var_os("CFMERGE_RESULTS_DIR")
            .map_or_else(|| PathBuf::from("results"), PathBuf::from)
    }

    /// Write `<dir>/<tool>.json` (pretty-printed), creating `dir` if needed.
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.tool));
        let mut text = self.to_json().to_string_pretty();
        text.push('\n');
        std::fs::write(&path, text)?;
        Ok(path)
    }

    /// Write to the default [`Self::results_dir`].
    ///
    /// # Errors
    /// Propagates filesystem errors.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        self.write_to(&Self::results_dir())
    }

    /// Load an artifact from a JSON file.
    ///
    /// # Errors
    /// Fails on unreadable files or malformed/mis-shaped JSON.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
    }
}

impl ToJson for RunArtifact {
    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema_version", Json::from(self.schema_version)),
            ("tool", Json::from(self.tool.as_str())),
            ("device", self.device.to_json()),
            ("series", self.series.to_json()),
            ("runs", self.runs.to_json()),
            ("summaries", self.summaries.clone()),
        ];
        if let Some(t) = &self.telemetry {
            pairs.push(("telemetry", t.to_json()));
        }
        Json::obj(pairs)
    }
}

impl FromJson for RunArtifact {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            schema_version: v.field("schema_version")?,
            tool: v.field("tool")?,
            device: v.field("device")?,
            series: v.field("series")?,
            runs: v.field("runs")?,
            summaries: v.get("summaries").cloned().unwrap_or_else(|| Json::Obj(Vec::new())),
            telemetry: v.field_opt("telemetry")?,
        })
    }
}

/// Write the artifact to the default results directory, reporting the
/// outcome on stderr. Bench binaries call this once at exit; an
/// unwritable directory degrades to a warning rather than failing the
/// text report.
pub fn emit(artifact: &RunArtifact) {
    match artifact.write() {
        Ok(path) => eprintln!("artifact: {}", path.display()),
        Err(e) => eprintln!("warning: could not write artifact for {}: {e}", artifact.tool),
    }
}

/// Series label with its leading `algo/` segment removed — the key used
/// to pair, say, `thrust/worst-case(E=15)/…` with `cf-merge/worst-case(E=15)/…`.
fn label_sans_algo(label: &str) -> &str {
    label.split_once('/').map_or(label, |(_, rest)| rest)
}

/// Compare two artifacts series-by-series into a speedup table
/// (`baseline.seconds / improved.seconds` at matching `n`).
///
/// Series are paired by exact label first (same tool re-run across
/// revisions), then by label-without-algorithm (thrust vs CF-Merge inside
/// one artifact). Artifacts from non-sweep tools carry [`RunRecord`]s
/// instead of series; those are paired by label the same way (repeated
/// labels — repeat-seed runs — pair positionally). Unpairable entries are
/// listed as skipped.
#[must_use]
pub fn diff_table(baseline: &RunArtifact, improved: &RunArtifact) -> String {
    let mut out = String::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut skipped: Vec<String> = Vec::new();
    for base in &baseline.series {
        let matched = improved.series.iter().find(|s| s.label == base.label).or_else(|| {
            improved
                .series
                .iter()
                .find(|s| label_sans_algo(&s.label) == label_sans_algo(&base.label))
        });
        let Some(imp) = matched else {
            skipped.push(format!("no match for `{}`", base.label));
            continue;
        };
        let mut base_s = Vec::new();
        let mut imp_s = Vec::new();
        for bp in &base.points {
            if let Some(ip) = imp.points.iter().find(|p| p.n == bp.n) {
                base_s.push(bp.seconds);
                imp_s.push(ip.seconds);
            }
        }
        if base_s.is_empty() {
            skipped.push(format!("no match for `{}`", base.label));
            continue;
        }
        let s = match speedup_summary(&base_s, &imp_s) {
            Ok(s) => s,
            Err(e) => {
                skipped.push(format!("`{}`: {e}", base.label));
                continue;
            }
        };
        rows.push(vec![
            base.label.clone(),
            imp.label.clone(),
            base_s.len().to_string(),
            format!("{:.3}", s.average),
            format!("{:.3}", s.mean),
            format!("{:.3}", s.max),
        ]);
    }
    let mut run_labels: Vec<&str> = Vec::new();
    for r in &baseline.runs {
        if !run_labels.contains(&r.label.as_str()) {
            run_labels.push(&r.label);
        }
    }
    for label in run_labels {
        let base_s: Vec<f64> = baseline
            .runs
            .iter()
            .filter(|r| r.label == label)
            .map(|r| r.simulated_seconds)
            .collect();
        let mut imp_runs: Vec<&RunRecord> =
            improved.runs.iter().filter(|r| r.label == label).collect();
        if imp_runs.is_empty() {
            imp_runs = improved
                .runs
                .iter()
                .filter(|r| label_sans_algo(&r.label) == label_sans_algo(label))
                .collect();
        }
        if imp_runs.is_empty() {
            skipped.push(format!("no match for `{label}`"));
            continue;
        }
        let n = base_s.len().min(imp_runs.len());
        let imp_s: Vec<f64> = imp_runs[..n].iter().map(|r| r.simulated_seconds).collect();
        let s = match speedup_summary(&base_s[..n], &imp_s) {
            Ok(s) => s,
            Err(e) => {
                skipped.push(format!("`{label}`: {e}"));
                continue;
            }
        };
        rows.push(vec![
            label.to_string(),
            imp_runs[0].label.clone(),
            n.to_string(),
            format!("{:.3}", s.average),
            format!("{:.3}", s.mean),
            format!("{:.3}", s.max),
        ]);
    }
    if rows.is_empty() && skipped.is_empty() {
        out.push_str("(nothing to compare: neither artifact carries series or runs)\n");
        return out;
    }
    out.push_str(&cfmerge_core::metrics::format_table(
        &["baseline", "improved", "points", "speedup avg", "mean", "max"],
        &rows,
    ));
    for msg in skipped {
        out.push_str(&format!("\n(skipped: {msg})"));
    }
    out
}

/// Every `dropped_conflicts` figure the artifact carries: summary entries
/// whose object has a `dropped_conflicts` key (written by the tracing
/// tools), as `(summary key, dropped)` rows. `None` when the artifact
/// records no tracing at all — a zero row is meaningful (the conflict cap
/// held), absence means nothing was traced.
#[must_use]
pub fn dropped_conflicts_table(artifact: &RunArtifact) -> Option<String> {
    let Json::Obj(pairs) = &artifact.summaries else { return None };
    let rows: Vec<Vec<String>> = pairs
        .iter()
        .filter_map(|(key, v)| {
            let dropped = v.get("dropped_conflicts")?.as_u64()?;
            Some(vec![key.clone(), dropped.to_string()])
        })
        .collect();
    if rows.is_empty() {
        return None;
    }
    Some(cfmerge_core::metrics::format_table(&["traced run", "dropped conflicts"], &rows))
}

/// Certification coverage: per-profile verdict counts from a
/// `summaries.certificates` block (written by `kernel_cert`), plus the
/// verdict/strategy tallies. `None` when the artifact carries no
/// certificates summary. A rise in a profile's `refused` column relative
/// to a pinned artifact is a *coverage loss* — the gate calls it out.
#[must_use]
pub fn certificates_table(artifact: &RunArtifact) -> Option<String> {
    let certs = artifact.summaries.get("certificates")?;
    let profiles = certs.get("profiles")?.as_arr()?;
    let cell = |row: &Json, key: &str| {
        row.get(key).and_then(Json::as_u64).map_or_else(|| "?".into(), |v| v.to_string())
    };
    let rows: Vec<Vec<String>> = profiles
        .iter()
        .map(|row| {
            vec![
                row.get("profile").and_then(Json::as_str).unwrap_or("?").to_string(),
                cell(row, "banks"),
                row.get("bank_word_u32s")
                    .and_then(Json::as_u64)
                    .map_or_else(|| "?".into(), |w| format!("{}-bit", 32 * w)),
                cell(row, "records"),
                cell(row, "conflict_free"),
                cell(row, "conflicting"),
                cell(row, "not_certifiable"),
            ]
        })
        .collect();
    let mut out = cfmerge_core::metrics::format_table(
        &["profile", "banks", "bank row", "certs", "free", "conflicting", "refused"],
        &rows,
    );
    for (key, label) in [("verdicts", "verdict"), ("strategies", "strategy")] {
        if let Some(counts) = certs.get(key).and_then(Json::as_arr) {
            let parts: Vec<String> = counts
                .iter()
                .filter_map(|c| {
                    let name = c.get(label)?.as_str()?;
                    let n = c.get("count")?.as_u64()?;
                    Some(format!("{name}={n}"))
                })
                .collect();
            if !parts.is_empty() {
                out.push_str(&format!("\nby {label}: {}", parts.join(", ")));
            }
        }
    }
    if let Some(lints) = certs.get("lint_findings").and_then(Json::as_u64) {
        out.push_str(&format!("\nlint findings: {lints}"));
    }
    Some(out)
}

/// One-artifact summary: every series with its mean throughput and total
/// merge-phase conflicts.
#[must_use]
pub fn summary_table(artifact: &RunArtifact) -> String {
    let rows: Vec<Vec<String>> = artifact
        .series
        .iter()
        .map(|s| {
            let mean_tp = if s.points.is_empty() {
                0.0
            } else {
                s.points.iter().map(|p| p.throughput).sum::<f64>() / s.points.len() as f64
            };
            let conflicts: u64 = s.points.iter().map(|p| p.merge_conflicts).sum();
            vec![
                s.label.clone(),
                s.points.len().to_string(),
                format!("{mean_tp:.1}"),
                conflicts.to_string(),
            ]
        })
        .collect();
    cfmerge_core::metrics::format_table(
        &["series", "points", "mean elems/µs", "merge conflicts"],
        &rows,
    )
}

/// Fault/recovery totals across an artifact's runs: one row per run that
/// carries [`RecoveryCounters`], plus a totals row. `None` when no run
/// does (plain pipeline artifacts, or pre-recovery schema files).
#[must_use]
pub fn recovery_table(artifact: &RunArtifact) -> Option<String> {
    let with: Vec<(&RunRecord, &RecoveryCounters)> =
        artifact.runs.iter().filter_map(|r| r.recovery.as_ref().map(|c| (r, c))).collect();
    if with.is_empty() {
        return None;
    }
    let mut total = RecoveryCounters::default();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (r, c) in &with {
        total.merge(c);
        rows.push(vec![
            r.label.clone(),
            c.faults_injected.to_string(),
            c.faults_detected.to_string(),
            c.retries.to_string(),
            c.fallbacks.to_string(),
            c.unrecovered.to_string(),
            c.hedges_launched.to_string(),
            c.hedges_won.to_string(),
        ]);
    }
    if with.len() > 1 {
        rows.push(vec![
            "TOTAL".into(),
            total.faults_injected.to_string(),
            total.faults_detected.to_string(),
            total.retries.to_string(),
            total.fallbacks.to_string(),
            total.unrecovered.to_string(),
            total.hedges_launched.to_string(),
            total.hedges_won.to_string(),
        ]);
    }
    Some(cfmerge_core::metrics::format_table(
        &["run", "injected", "detected", "retries", "fallbacks", "unrecovered", "hedged", "h-won"],
        &rows,
    ))
}

/// Service-level resilience tallies, rendered from the artifact's
/// `service` summary (written by service-mode campaigns). `None` when
/// the artifact predates the resilience schema or was produced by a
/// non-service tool.
#[must_use]
pub fn service_table(artifact: &RunArtifact) -> Option<String> {
    let sc = artifact.summaries.get("service").and_then(|v| ServiceCounters::from_json(v).ok())?;
    let rows = vec![
        vec!["submitted".into(), sc.submitted.to_string()],
        vec!["admitted".into(), sc.admitted.to_string()],
        vec!["executed".into(), sc.executed.to_string()],
        vec!["verified ok".into(), sc.verified_ok.to_string()],
        vec!["failed (typed)".into(), sc.failed.to_string()],
        vec!["cancelled".into(), sc.cancelled.to_string()],
        vec!["shed: overload".into(), sc.shed_overload.to_string()],
        vec!["shed: largest".into(), sc.shed_largest.to_string()],
        vec!["shed: deadline".into(), sc.shed_deadline.to_string()],
        vec!["invalid deadlines".into(), sc.invalid_deadline.to_string()],
        vec!["budget denials".into(), sc.budget_denied.to_string()],
        vec!["breaker opens".into(), sc.breaker_opens.to_string()],
        vec!["breaker half-opens".into(), sc.breaker_half_opens.to_string()],
        vec!["breaker closes".into(), sc.breaker_closes.to_string()],
        vec!["quarantined".into(), sc.quarantined.to_string()],
        vec!["probes".into(), sc.probes.to_string()],
        vec!["resumed".into(), sc.resumed.to_string()],
        vec!["checkpoints taken".into(), sc.checkpoints_taken.to_string()],
        vec!["device crashes".into(), sc.device_crashes.to_string()],
        vec!["device restarts".into(), sc.device_restarts.to_string()],
        vec!["device lost".into(), sc.device_lost.to_string()],
        vec!["migrations".into(), sc.migrations.to_string()],
        vec!["migrations failed".into(), sc.migrations_failed.to_string()],
        vec!["steals".into(), sc.steals.to_string()],
    ];
    // Tuner-era rows appear only once a tuning ladder has actually
    // routed something — pre-tuner artifacts render exactly as before.
    let mut rows = rows;
    for (label, v) in [
        ("tuned jobs", sc.tuned_jobs),
        ("ladder steps", sc.ladder_steps),
        ("uncertified rejected", sc.uncertified_rejected),
        ("canary jobs", sc.canary_jobs),
        ("canary rollbacks", sc.canary_rollbacks),
        ("canary promotions", sc.canary_promotions),
    ] {
        if v > 0 {
            rows.push(vec![label.into(), v.to_string()]);
        }
    }
    Some(cfmerge_core::metrics::format_table(&["service metric", "value"], &rows))
}

/// Auto-tuner coverage: per-ladder rung/tier counts from a
/// `summaries.tuning` block (written by `tune`), plus the table checksum
/// and the validation-scenario tally. `None` when the artifact carries
/// no tuning summary. A drop in a ladder's `rungs` or `certified` column
/// relative to a pinned artifact is a *coverage loss* — the gate calls
/// it out.
#[must_use]
pub fn tuning_table(artifact: &RunArtifact) -> Option<String> {
    let tuning = artifact.summaries.get("tuning")?;
    let ladders = tuning.get("ladders")?.as_arr()?;
    let cell = |row: &Json, key: &str| {
        row.get(key).and_then(Json::as_u64).map_or_else(|| "?".into(), |v| v.to_string())
    };
    let rows: Vec<Vec<String>> = ladders
        .iter()
        .map(|row| {
            vec![
                row.get("ladder").and_then(Json::as_str).unwrap_or("?").to_string(),
                cell(row, "rungs"),
                cell(row, "certified"),
                cell(row, "degraded"),
                cell(row, "excluded"),
            ]
        })
        .collect();
    let mut out = cfmerge_core::metrics::format_table(
        &["ladder", "rungs", "certified", "degraded", "excluded"],
        &rows,
    );
    if let Some(checksum) = tuning.get("checksum").and_then(Json::as_str) {
        out.push_str(&format!("\nladder checksum: {checksum}"));
    }
    if let (Some(scen), Some(fail)) = (
        tuning.get("validation_scenarios").and_then(Json::as_u64),
        tuning.get("validation_failures").and_then(Json::as_u64),
    ) {
        out.push_str(&format!("\nvalidation scenarios: {scen} ({fail} failed)"));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepPoint;

    fn point(i: u32, n: usize, seconds: f64) -> SweepPoint {
        SweepPoint {
            i,
            n,
            seconds,
            throughput: n as f64 / (seconds * 1e6),
            conflicts_per_round: 0.0,
            merge_conflicts: 0,
        }
    }

    fn sample() -> RunArtifact {
        let mut art = RunArtifact::new("unit_test", Device::rtx2080ti());
        art.series.push(Series {
            label: "thrust/random/E=15,u=512".into(),
            points: vec![point(9, 512 * 15, 2.0e-4), point(10, 1024 * 15, 4.0e-4)],
        });
        art.series.push(Series {
            label: "cf-merge/random/E=15,u=512".into(),
            points: vec![point(9, 512 * 15, 1.0e-4), point(10, 1024 * 15, 2.0e-4)],
        });
        art.add_summary("note", Json::from("fixture"));
        art
    }

    #[test]
    fn artifact_roundtrips_through_json() {
        let art = sample();
        let text = art.to_json().to_string_pretty();
        let back = RunArtifact::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.tool, "unit_test");
        assert_eq!(back.series, art.series);
        assert_eq!(back.summaries.req("note").unwrap().as_str(), Some("fixture"));
    }

    #[test]
    fn write_and_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("cfmerge-artifact-{}", std::process::id()));
        let art = sample();
        let path = art.write_to(&dir).unwrap();
        assert_eq!(path.file_name().unwrap(), "unit_test.json");
        let back = RunArtifact::load(&path).unwrap();
        assert_eq!(back.series, art.series);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_pairs_series_across_algorithms() {
        let art = sample();
        let table = diff_table(&art, &art);
        // Exact-label pairing: thrust vs thrust is speedup 1.0.
        assert!(table.contains("1.000"), "{table}");
        // Cross-algorithm pairing once the thrust series is the baseline
        // and only cf-merge exists on the other side.
        let mut cf_only = art.clone();
        cf_only.series.retain(|s| s.label.starts_with("cf-merge"));
        let table = diff_table(&art, &cf_only);
        assert!(table.contains("2.000"), "thrust→cf speedup missing: {table}");
    }

    #[test]
    fn diff_pairs_runs_when_there_are_no_series() {
        let mut base = RunArtifact::new("runs_only", Device::rtx2080ti());
        for seconds in [2.0e-4, 4.0e-4] {
            base.runs.push(RunRecord {
                label: "thrust/random/E=15,u=512".into(),
                algorithm: "thrust".into(),
                n: 512 * 15,
                simulated_seconds: seconds,
                throughput: 512.0 * 15.0 / (seconds * 1e6),
                merge_conflicts: 7,
                kernels: Vec::new(),
                recovery: None,
            });
        }
        let mut imp = base.clone();
        for r in &mut imp.runs {
            r.label = "cf-merge/random/E=15,u=512".into();
            r.simulated_seconds /= 2.0;
        }
        // Exact label on the self-diff, sans-algorithm across artifacts.
        assert!(diff_table(&base, &base).contains("1.000"));
        let table = diff_table(&base, &imp);
        assert!(table.contains("2.000"), "run-record pairing missing: {table}");
        // And two artifacts with nothing in them say so instead of
        // printing an empty table.
        let empty = RunArtifact::new("empty", Device::rtx2080ti());
        assert!(diff_table(&empty, &empty).contains("nothing to compare"));
    }

    #[test]
    fn summary_table_lists_each_series() {
        let t = summary_table(&sample());
        assert!(t.contains("thrust/random/E=15,u=512"));
        assert!(t.contains("cf-merge/random/E=15,u=512"));
    }

    #[test]
    fn run_record_captures_pipeline_run() {
        let cfg = cfmerge_core::sort::SortConfig::with_params(
            cfmerge_core::params::SortParams::new(5, 32),
        );
        let input = cfmerge_core::inputs::InputSpec::UniformRandom { seed: 7 }.generate(32 * 5 * 4);
        let run = cfmerge_core::sort::simulate_sort(&input, SortAlgorithm::CfMerge, &cfg);
        let rec = RunRecord::from_run("cf-merge/random/E=5,u=32", SortAlgorithm::CfMerge, &run);
        assert_eq!(rec.n, run.n);
        assert!(!rec.kernels.is_empty());
        let back = RunRecord::from_json(&rec.to_json()).unwrap();
        assert_eq!(back.label, rec.label);
        assert_eq!(back.kernels.len(), rec.kernels.len());
        assert_eq!(back.merge_conflicts, 0);
    }
}
