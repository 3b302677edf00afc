//! Timing-model calibration harness: prints the anchor ratios from
//! DESIGN.md §5 for the current `TimingModel::rtx2080ti_like` constants.

use cfmerge_bench::artifact::{emit, RunArtifact, RunRecord};
use cfmerge_core::inputs::InputSpec;
use cfmerge_core::metrics::MetricsError;
use cfmerge_core::params::SortParams;
use cfmerge_core::sort::{simulate_sort, SortAlgorithm, SortConfig};
use cfmerge_gpu_sim::device::Device;
use cfmerge_json::Json;

fn main() -> Result<(), MetricsError> {
    let mut art = RunArtifact::new("calibrate", Device::rtx2080ti());
    for (e, u) in [(15usize, 512usize), (17, 256)] {
        let cfg = SortConfig::with_params(SortParams::new(e, u));
        let n = 64 * e * u;
        let worst = InputSpec::WorstCase { w: 32, e, u }.generate(n);
        let random = InputSpec::UniformRandom { seed: 1 }.generate(n);
        let tw = simulate_sort(&worst, SortAlgorithm::ThrustMergesort, &cfg);
        let tr = simulate_sort(&random, SortAlgorithm::ThrustMergesort, &cfg);
        let cw = simulate_sort(&worst, SortAlgorithm::CfMerge, &cfg);
        let cr = simulate_sort(&random, SortAlgorithm::CfMerge, &cfg);
        let (tw_tp, tr_tp, cw_tp, cr_tp) =
            (tw.throughput()?, tr.throughput()?, cw.throughput()?, cr.throughput()?);
        println!("E={e} u={u} n={n}");
        println!("  thrust-random : {tr_tp:8.1} elem/us");
        println!("  thrust-worst  : {tw_tp:8.1} elem/us  slowdown {:.3}", tr_tp / tw_tp);
        println!("  cf-random     : {cr_tp:8.1} elem/us  vs thrust-random {:.3}", tr_tp / cr_tp);
        println!("  cf-worst      : {cw_tp:8.1} elem/us  cf speedup on worst {:.3}", cw_tp / tw_tp);
        for k in &tr.kernels[..2.min(tr.kernels.len())] {
            println!(
                "  [rand {}] dominant={} global={:.2e} shared={:.2e} lat={:.2e} alu={:.2e}",
                k.name,
                k.time.dominant(),
                k.time.global_s,
                k.time.shared_s,
                k.time.latency_s,
                k.time.alu_s
            );
        }
        for k in &tw.kernels[..2.min(tw.kernels.len())] {
            println!(
                "  [worst {}] dominant={} global={:.2e} shared={:.2e} lat={:.2e} alu={:.2e}",
                k.name,
                k.time.dominant(),
                k.time.global_s,
                k.time.shared_s,
                k.time.latency_s,
                k.time.alu_s
            );
        }
        art.add_summary(
            &format!("anchors_e{e}_u{u}"),
            Json::obj([
                ("thrust_worst_slowdown", Json::from(tr_tp / tw_tp)),
                ("cf_random_overhead", Json::from(tr_tp / cr_tp)),
                ("cf_worst_speedup", Json::from(cw_tp / tw_tp)),
            ]),
        );
        for (label, algo, run) in [
            ("thrust/worst", SortAlgorithm::ThrustMergesort, &tw),
            ("thrust/random", SortAlgorithm::ThrustMergesort, &tr),
            ("cf-merge/worst", SortAlgorithm::CfMerge, &cw),
            ("cf-merge/random", SortAlgorithm::CfMerge, &cr),
        ] {
            art.runs.push(RunRecord::from_run(format!("{label}/E={e},u={u}"), algo, run));
        }
    }
    emit(&art);
    Ok(())
}
