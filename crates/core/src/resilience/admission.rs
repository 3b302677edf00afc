//! Admission control: a bounded work queue with typed load shedding.
//!
//! Both doors — [`SortService`] at submission and [`ClusterService`] at
//! arrival — make every admission call through one pure decision,
//! `decide`, over their own queue. It first refuses times that are
//! not usable modeled seconds ([`SortError::InvalidArrival`],
//! [`SortError::InvalidDeadline`]); then, when the queue is full, the
//! configured [`ShedPolicy`] decides who pays:
//!
//! * [`ShedPolicy::RejectNewest`] — the incoming job is refused with
//!   [`SortError::Overloaded`].
//! * [`ShedPolicy::RejectLargest`] — the largest queued job (by key
//!   count; ties to the newest) is evicted with a typed
//!   [`SortError::Shed`] if it is at least as large as the incoming job;
//!   otherwise the incoming job is refused.
//! * [`ShedPolicy::DeadlineAware`] — queued jobs whose deadlines cannot
//!   be met even at the optimistic lower bound
//!   ([`estimate_sort_seconds`]) are shed first; if nothing is
//!   unreachable, the incoming job is refused.
//!
//! Shed jobs never execute — not even partially — which
//! `tests/resilience_proptests.rs` asserts.
//!
//! [`SortService`]: crate::resilience::service::SortService
//! [`ClusterService`]: crate::resilience::cluster::ClusterService

use crate::recovery::pipeline_shape;
use crate::resilience::service::ServiceCounters;
use crate::sort::pipeline::SortConfig;
use crate::sort::SortError;

/// Who gets shed when the queue is full.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Refuse the incoming job (classic bounded queue).
    #[default]
    RejectNewest,
    /// Evict the largest queued job in favor of the incoming one.
    RejectLargest,
    /// Shed queued jobs that cannot meet their deadline anyway.
    DeadlineAware,
}

impl ShedPolicy {
    /// Stable label for artifacts and typed errors.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ShedPolicy::RejectNewest => "reject-newest",
            ShedPolicy::RejectLargest => "reject-largest",
            ShedPolicy::DeadlineAware => "deadline-aware",
        }
    }
}

/// Queue bound and shed policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum admitted (pending, non-shed, non-cancelled) jobs; `None`
    /// (the default) is the legacy unbounded queue.
    pub capacity: Option<usize>,
    /// Policy when a submission finds the queue full.
    pub policy: ShedPolicy,
}

impl AdmissionConfig {
    /// A bounded queue of `capacity` jobs under `policy`.
    #[must_use]
    pub fn bounded(capacity: usize, policy: ShedPolicy) -> Self {
        Self { capacity: Some(capacity), policy }
    }
}

/// Cheap deterministic estimate of a sort's modeled seconds: per launch,
/// the fixed launch overhead plus one read and one write of the padded
/// buffer at the device's full-occupancy effective bandwidth. Used only
/// for deadline-aware admission (the real run is priced exactly by the
/// timing model); it deliberately ignores conflicts, retries, and
/// occupancy, so it is a *lower* bound — a job it calls unreachable
/// truly is.
#[must_use]
pub fn estimate_sort_seconds(n: usize, cfg: &SortConfig) -> f64 {
    let shape = pipeline_shape(n, &cfg.params);
    if shape.is_empty() {
        return 0.0;
    }
    let n_pad = shape[0] as usize * cfg.params.tile();
    let bytes_per_pass = (n_pad * 2 * std::mem::size_of::<u32>()) as f64;
    let bw = cfg.device.mem_bandwidth * cfg.timing.bw_efficiency_full;
    shape.len() as f64 * (cfg.timing.launch_overhead_s + bytes_per_pass / bw)
}

/// Whether `t` is a usable modeled time: finite and not negative.
pub(crate) fn valid_time(t: f64) -> bool {
    t.is_finite() && t >= 0.0
}

/// A job as admission sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Ticket {
    /// Key count.
    pub n: usize,
    /// Deadline in modeled seconds.
    pub deadline_s: Option<f64>,
    /// Submission order within the door: a larger `seq` is newer.
    pub seq: u64,
}

/// One admission decision.
#[derive(Debug)]
pub(crate) struct Verdict<L> {
    /// The incoming job's typed refusal; `None` admits it.
    pub refused: Option<SortError>,
    /// Queued jobs to shed, oldest first, each with its typed reason.
    pub evicted: Vec<(L, SortError)>,
    /// What the door adds to its tallies: `submitted`, `admitted`, and
    /// the refusal and shed counters.
    pub counters: ServiceCounters,
}

/// Admit `incoming` (arriving at `arrival_s`, for a door that has
/// arrival times) into a queue holding `occupancy` jobs, of which
/// `queued` are the ones the door lets admission shed, each tagged
/// with a door-side location `L`. Pure: the door applies the verdict to
/// its own queue.
pub(crate) fn decide<L>(
    incoming: Ticket,
    arrival_s: Option<f64>,
    queued: impl IntoIterator<Item = (L, Ticket)>,
    occupancy: usize,
    config: AdmissionConfig,
    base: &SortConfig,
) -> Verdict<L> {
    let mut v = Verdict {
        refused: None,
        evicted: Vec::new(),
        counters: ServiceCounters { submitted: 1, ..ServiceCounters::default() },
    };
    // Time sanity comes first: a NaN, infinite or negative time is a
    // caller bug, not load.
    if let Some(at_s) = arrival_s.filter(|&t| !valid_time(t)) {
        v.counters.invalid_arrival = 1;
        v.refused = Some(SortError::InvalidArrival { at_s });
        return v;
    }
    if let Some(deadline_s) = incoming.deadline_s.filter(|&d| !valid_time(d)) {
        v.counters.invalid_deadline = 1;
        v.refused = Some(SortError::InvalidDeadline { deadline_s });
        return v;
    }
    if let Some(capacity) = config.capacity.filter(|&c| occupancy >= c) {
        let shed = |reason| SortError::Shed { policy: config.policy.label(), reason };
        match config.policy {
            ShedPolicy::RejectNewest => {}
            ShedPolicy::RejectLargest => {
                // Evict the largest queued job (ties to the newest) if it
                // is at least as large as the incoming one.
                let victim = queued
                    .into_iter()
                    .filter(|(_, t)| t.n >= incoming.n)
                    .max_by_key(|(_, t)| (t.n, t.seq));
                if let Some((loc, t)) = victim {
                    v.counters.shed_largest = 1;
                    let reason = format!(
                        "evicted ({} keys) for a newer {}-key job with the queue at capacity \
                         {capacity}",
                        t.n, incoming.n
                    );
                    v.evicted.push((loc, shed(reason)));
                }
            }
            ShedPolicy::DeadlineAware => {
                // Shed queued jobs that provably cannot meet their own
                // deadline: the optimistic lower-bound estimate already
                // exceeds it, so running them would only burn modeled
                // time ahead of feasible work.
                let mut doomed: Vec<(u64, L, SortError)> = queued
                    .into_iter()
                    .filter_map(|(loc, t)| {
                        let d = t.deadline_s?;
                        let floor = estimate_sort_seconds(t.n, base);
                        (floor > d).then(|| {
                            let reason = format!(
                                "deadline {d:.3e}s unreachable: optimistic lower bound is \
                                 {floor:.3e}s"
                            );
                            (t.seq, loc, shed(reason))
                        })
                    })
                    .collect();
                doomed.sort_by_key(|&(seq, ..)| seq);
                v.counters.shed_deadline = doomed.len() as u64;
                v.evicted = doomed.into_iter().map(|(_, loc, err)| (loc, err)).collect();
            }
        }
        if v.evicted.is_empty() {
            v.counters.shed_overload = 1;
            v.refused = Some(SortError::Overloaded { capacity });
            return v;
        }
    }
    v.counters.admitted = 1;
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::SortParams;

    #[test]
    fn estimate_is_monotone_and_cheap_lower_bound() {
        let cfg = SortConfig::with_params(SortParams::new(5, 32));
        assert_eq!(estimate_sort_seconds(0, &cfg), 0.0);
        let small = estimate_sort_seconds(160, &cfg);
        let big = estimate_sort_seconds(16 * 160, &cfg);
        assert!(small > 0.0);
        assert!(big > small);
        // Lower bound vs the exact pipeline price.
        let input = crate::inputs::InputSpec::UniformRandom { seed: 1 }.generate(4 * 160);
        let run = crate::sort::pipeline::simulate_sort(
            &input,
            crate::sort::pipeline::SortAlgorithm::CfMerge,
            &cfg,
        );
        assert!(estimate_sort_seconds(input.len(), &cfg) <= run.simulated_seconds);
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(ShedPolicy::RejectNewest.label(), "reject-newest");
        assert_eq!(ShedPolicy::RejectLargest.label(), "reject-largest");
        assert_eq!(ShedPolicy::DeadlineAware.label(), "deadline-aware");
    }
}
