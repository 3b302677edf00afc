//! Deterministic telemetry over *modeled* time.
//!
//! The paper's evaluation leans on profiler counters; this module is the
//! repo's first-class metrics layer on top of them: a
//! [`MetricsRegistry`] of named counters, gauges, and log-bucketed
//! [`LogHistogram`]s, frozen into bit-stable [`MetricsSnapshot`]s that
//! embed in run artifacts, export as Prometheus text exposition, and
//! back the `bench_diff --gate` regression gate (see `docs/TELEMETRY.md`
//! for the metric catalog).
//!
//! Three properties define the design:
//!
//! * **Modeled time only.** Histograms record integer nanoseconds of
//!   simulated time; nothing here reads a wall clock, so snapshots are
//!   reproducible by construction.
//! * **Bit-stable.** Bucket boundaries are fixed integer functions of
//!   the value, snapshots sort metrics by name, and every number
//!   round-trips JSON exactly — two runs with the same seed/config
//!   serialize byte-identically on any platform.
//! * **Zero-cost when off.** Like the block engine's null hooks `()`,
//!   telemetry is opt-in: the service holds an `Option<MetricsRegistry>`
//!   defaulting to `None`, simulator metrics derive from the always-on
//!   [`KernelProfile`] after the run, and recording never feeds back
//!   into modeled time — enabling telemetry changes no output, kernel
//!   sequence, or modeled second.
//!
//! [`KernelProfile`]: cfmerge_gpu_sim::profiler::KernelProfile

pub mod histogram;
pub mod registry;
pub mod snapshot;

pub use histogram::LogHistogram;
pub use registry::MetricsRegistry;
pub use snapshot::{HistogramSnapshot, MetricSnapshot, MetricValue, MetricsSnapshot};

/// How one counter field travels through JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Presence {
    /// Always written; required on read.
    Required,
    /// Always written; zero when absent (the field postdates older
    /// artifacts).
    Defaulted,
    /// Written only when nonzero, so artifacts pinned before the field
    /// existed stay bit-identical; zero when absent.
    Sparse,
}

impl Presence {
    pub(crate) fn writes(self, value: u64) -> bool {
        self != Presence::Sparse || value != 0
    }

    pub(crate) fn read(
        self,
        v: &cfmerge_json::Json,
        name: &str,
    ) -> Result<u64, cfmerge_json::JsonError> {
        match self {
            Presence::Required => v.field(name),
            Presence::Defaulted | Presence::Sparse => Ok(v.field_opt(name)?.unwrap_or(0)),
        }
    }
}

/// Declare a `u64` counter struct from one field list: the struct,
/// `fields()` (name/value pairs in declaration order), `merge`, and JSON
/// in both directions, each field tagged with its [`Presence`].
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$fmeta:meta])* $field:ident: $presence:ident, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $( $(#[$fmeta])* pub $field: u64, )*
        }

        impl $name {
            /// Every counter as `(name, value)`, in declaration order.
            #[must_use]
            pub fn fields(&self) -> [(&'static str, u64); [$(stringify!($field)),*].len()] {
                [$( (stringify!($field), self.$field) ),*]
            }

            /// Fold `other` into `self` field by field.
            pub fn merge(&mut self, other: &Self) {
                $( self.$field += other.$field; )*
            }
        }

        impl cfmerge_json::ToJson for $name {
            fn to_json(&self) -> cfmerge_json::Json {
                let mut pairs = Vec::new();
                $(
                    if $crate::telemetry::Presence::$presence.writes(self.$field) {
                        pairs.push((stringify!($field), cfmerge_json::Json::from(self.$field)));
                    }
                )*
                cfmerge_json::Json::obj(pairs)
            }
        }

        impl cfmerge_json::FromJson for $name {
            fn from_json(v: &cfmerge_json::Json) -> Result<Self, cfmerge_json::JsonError> {
                Ok(Self {
                    $( $field: $crate::telemetry::Presence::$presence.read(v, stringify!($field))?, )*
                })
            }
        }
    };
}
pub(crate) use counter_set;
