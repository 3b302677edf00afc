//! Metrics, summary statistics, and the benchmark's output format.

use cfmerge_json::Json;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Shorthand constructor.
#[must_use]
pub fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric { name: name.into(), unit, value }
}

/// Everything one benchmark invocation produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Human-readable report lines (printed before the JSON line).
    pub lines: Vec<String>,
    /// Outputs checked against the oracle (plus same-program checks).
    pub attempted: u64,
    /// Checks that failed, each described.
    pub failures: Vec<String>,
    /// The metrics of this run's mode (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Count one check; record `why` if it failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(why());
        }
    }

    /// The last stdout line: `correct`, `attempted`, `failed`, `metrics`.
    #[must_use]
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::from(self.failures.is_empty())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failures.len())),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Median of a non-empty sample.
///
/// # Panics
/// Panics on an empty sample.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in `(0, 1]`) of a non-empty sample.
///
/// # Panics
/// Panics on an empty sample.
#[must_use]
pub fn nearest_rank(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc/self/status` does not exist.
#[must_use]
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Sorted copy of `input`: the independent oracle every output is
/// checked against.
#[must_use]
pub fn oracle(input: &[u32]) -> Vec<u32> {
    let mut v = input.to_vec();
    v.sort_unstable();
    v
}
