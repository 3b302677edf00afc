//! In-memory host-time spans recorded around calls into the program's
//! public functions, written out as JSON when the benchmark ends.

use cfmerge_json::Json;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Function or layer called (`blocksort`, `merge_pass`, `partition`, …).
    pub name: &'static str,
    /// Pipeline label, or `""` where the call is not per pipeline.
    pub algo: &'static str,
    /// Whether bank accounting (`count_accesses`) was on for the call.
    pub counting: bool,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (`0` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one sort.
    pub op: u64,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Append-only span store.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    /// Every span, in the order it was opened.
    pub spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }
}

impl Spans {
    /// Open a span; close it with [`Spans::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        algo: &'static str,
        counting: bool,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, algo, counting, start_ns, end_ns: 0, parent, op });
        self.spans.len() - 1
    }

    /// Close span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
    }

    /// Total seconds and count of closed spans matching the filter.
    pub fn total(&self, keep: impl Fn(&Span) -> bool) -> (f64, u64) {
        self.spans.iter().filter(|s| keep(s)).fold((0.0, 0), |(t, n), s| (t + s.seconds(), n + 1))
    }

    /// Self time of each span: its duration minus the part covered by its
    /// direct children.
    #[must_use]
    pub fn self_seconds(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::seconds).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.seconds();
            }
        }
        own
    }

    /// JSON document: the run's identity plus every span.
    #[must_use]
    pub fn to_json(&self, workload: &str, seed: u64) -> Json {
        let own = self.self_seconds();
        Json::obj([
            ("workload", Json::from(workload)),
            ("seed", Json::from(seed)),
            (
                "spans",
                Json::arr(self.spans.iter().zip(own).enumerate().map(|(id, (s, own))| {
                    Json::obj([
                        ("id", Json::from(id)),
                        ("name", Json::from(s.name)),
                        ("algo", Json::from(s.algo)),
                        ("counting", Json::from(s.counting)),
                        ("start_ns", Json::from(s.start_ns)),
                        ("end_ns", Json::from(s.end_ns)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("op", Json::from(s.op)),
                        ("self_s", Json::from(own)),
                    ])
                })),
            ),
        ])
    }
}
