//! The paper workloads: one sort of `n = 2^16·15` keys (i = 16, the
//! smallest size of Figures 5–6) on both pipelines at `E = 15, u = 512`.

use crate::layers::{
    check_run, end_to_end, per_layer, trace_sorts, ClusterLayers, EndToEnd, Modeled, SetupLayers,
    SortJob, ALGOS,
};
use crate::report::{median, peak_rss_mib, Outcome};
use crate::spans::Spans;
use crate::Args;
use cfmerge_core::inputs::InputSpec;
use cfmerge_core::params::SortParams;
use cfmerge_core::sort::{simulate_sort, SortConfig};
use std::time::Instant;

/// Keys per sort: `2^16 · E` with `E = 15`.
pub const N: usize = (1 << 16) * 15;

/// Set-up repetitions before timing; one more runs before each timed
/// iteration, so the samples spread over the run. The median is reported.
const SETUP_REPS: usize = 5;

/// Which input distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// Uniform random `u32` keys from the seed (Figure 6).
    Random,
    /// The Section-4 worst-case construction (Figure 5). Seed-free.
    WorstCase,
}

impl Input {
    fn spec(self, seed: u64) -> InputSpec {
        match self {
            Input::Random => InputSpec::UniformRandom { seed },
            Input::WorstCase => InputSpec::worst_case(SortParams::e15_u512()),
        }
    }
}

/// Paper values of CF ÷ Thrust modeled throughput, for the report.
fn paper_speedup(input: Input) -> &'static str {
    match input {
        Input::Random => "about 1.0",
        Input::WorstCase => "1.37-1.47 (1.38 at the benchmark's first version)",
    }
}

/// Generate the input, recording how long it took.
fn timed_setup(spec: InputSpec, setup_s: &mut Vec<f64>) -> Vec<u32> {
    let t0 = Instant::now();
    let keys = std::hint::black_box(spec.generate(N));
    setup_s.push(t0.elapsed().as_secs_f64());
    keys
}

/// Run a paper workload.
pub fn run(input: Input, args: &Args) -> (Outcome, Spans) {
    let mut out = Outcome::default();
    let spec = input.spec(args.seed);
    let mut setup_s = Vec::new();
    let keys = timed_setup(spec, &mut setup_s);
    for _ in 1..SETUP_REPS {
        timed_setup(spec, &mut setup_s);
    }
    let job = SortJob::new(keys, SortConfig::paper_e15_u512());
    out.lines.push(format!(
        "input {} n={N} E=15 u=512 seed={} (seed {})",
        spec.label(),
        args.seed,
        if input == Input::Random { "used" } else { "not used: the construction is seed-free" }
    ));

    if args.trace {
        let traced = trace_sorts(std::slice::from_ref(&job), &mut out);
        let setup = SetupLayers {
            worst_case_build_s: if input == Input::WorstCase { median(&setup_s) } else { 0.0 },
            ..SetupLayers::default()
        };
        out.metrics = per_layer(&traced, &setup, &ClusterLayers::default());
        push_speedup_line(&mut out, input, &traced.modeled);
        return (out, traced.spans);
    }

    let start = Instant::now();
    let mut rates = Vec::new();
    let mut modeled: [Modeled; 2] = Default::default();
    while rates.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        timed_setup(spec, &mut setup_s);
        let t0 = Instant::now();
        let runs =
            ALGOS.map(|algo| simulate_sort(std::hint::black_box(&job.input), algo, &job.config));
        let dt = t0.elapsed().as_secs_f64();
        rates.push((ALGOS.len() * N) as f64 / dt);
        for (a, (algo, run)) in ALGOS.into_iter().zip(&runs).enumerate() {
            check_run(
                &mut out,
                &format!("iteration {} {}", rates.len(), algo.label()),
                &job,
                algo,
                run,
            );
            if rates.len() == 1 {
                modeled[a].add(run, &job.config);
            }
            let same = run.simulated_seconds == modeled[a].seconds;
            out.check(same, || {
                format!("{}: modeled time changed between iterations", algo.label())
            });
        }
    }
    out.lines.push(format!(
        "host keys/s of {} timed iterations (both pipelines each): {rates:.0?}",
        rates.len()
    ));
    push_speedup_line(&mut out, input, &modeled);
    out.metrics = end_to_end(&EndToEnd {
        host_keys_per_s: median(&rates),
        setup_s: median(&setup_s),
        peak_rss_mb: peak_rss_mib().unwrap_or(0.0),
        modeled: [modeled[0].elems_per_us(), modeled[1].elems_per_us()],
        job_latency_s: vec![modeled[1].seconds],
    });
    (out, Spans::default())
}

fn push_speedup_line(out: &mut Outcome, input: Input, modeled: &[Modeled; 2]) {
    out.lines.push(format!(
        "modeled CF speedup over Thrust: {:.3} (paper: {}); timing model calibrated to the paper, \
         not validated on held-back hardware data",
        modeled[0].seconds / modeled[1].seconds,
        paper_speedup(input)
    ));
}
