//! Simulating hypothetical hardware: the whole stack is parameterized by
//! the device, so "what if warps were 16 lanes?" or "what about a
//! bandwidth-starved part?" are one-line changes.
//!
//! Run with: `cargo run --release --example custom_gpu`

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::metrics::MetricsError;
use cfmerge::core::params::SortParams;
use cfmerge::core::sort::{simulate_sort, SortAlgorithm, SortConfig};
use cfmerge::gpu_sim::device::Device;
use cfmerge::gpu_sim::occupancy::{mergesort_regs_estimate, occupancy, BlockResources};
use cfmerge::prelude::TimingModel;

fn main() -> Result<(), MetricsError> {
    // A hypothetical 16-lane-warp GPU (w = 16 banks) with a quarter of
    // the 2080 Ti's bandwidth.
    let mut device = Device::rtx2080ti();
    device.name = "hypothetical 16-lane GPU".into();
    device.warp_width = 16;
    device.mem_bandwidth /= 4.0;

    // E must now be coprime with 16 for the baseline heuristic; pick 15.
    let params = SortParams::new(15, 256);
    let res = BlockResources {
        threads: params.u as u32,
        shared_bytes: params.shared_bytes(),
        regs_per_thread: mergesort_regs_estimate(params.e as u32),
    };
    let occ = occupancy(&device, &res).expect("custom device launches this config");
    println!(
        "{}: E={}, u={} → {} blocks/SM, {:.0}% occupancy (limited by {:?})",
        device.name,
        params.e,
        params.u,
        occ.blocks_per_sm,
        occ.fraction * 100.0,
        occ.limiter
    );

    let config =
        SortConfig { params, device, timing: TimingModel::rtx2080ti_like(), count_accesses: true };
    let n = 32 * params.tile();
    for spec in [
        InputSpec::UniformRandom { seed: 3 },
        InputSpec::WorstCase { w: 16, e: params.e, u: params.u },
    ] {
        let input = spec.generate(n);
        let thrust = simulate_sort(&input, SortAlgorithm::ThrustMergesort, &config);
        let cf = simulate_sort(&input, SortAlgorithm::CfMerge, &config);
        println!(
            "  {:<18} thrust {:7.0} e/µs ({} merge conflicts)   cf {:7.0} e/µs ({} merge conflicts)",
            spec.label(),
            thrust.throughput()?,
            thrust.profile.merge_bank_conflicts(),
            cf.throughput()?,
            cf.profile.merge_bank_conflicts(),
        );
        assert_eq!(cf.profile.merge_bank_conflicts(), 0);
    }
    println!("\nthe CF gather is conflict-free for any warp width: the number theory\nonly assumes w banks and E elements per thread.");
    Ok(())
}
