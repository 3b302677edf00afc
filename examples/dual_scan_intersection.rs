//! Beyond sorting: the paper's concluding observation says the
//! load-balanced dual subsequence gather converts *any* parallel
//! pair-of-arrays scan into a bank-conflict-free algorithm. This example
//! uses the generic `dual_scan_block` combinator to compute a merge-based
//! set-intersection count — and a stable key-value sort via the packed
//! 64-bit pipeline.
//!
//! Run with: `cargo run --release --example dual_scan_intersection`

use cfmerge::core::gather::simulate::permuted_tile;
use cfmerge::core::gather::{dual_scan_block, intersect_counts, CfLayout, ThreadSplit};
use cfmerge::core::metrics::MetricsError;
use cfmerge::core::params::SortParams;
use cfmerge::core::sort::{sort_pairs_stable, SortAlgorithm, SortConfig};
use cfmerge::gpu_sim::banks::BankModel;
use cfmerge::gpu_sim::block::BlockSim;
use cfmerge::gpu_sim::profiler::PhaseClass;
use cfmerge::mergepath::partition::partition_merge;
use rand::{Rng, SeedableRng};

fn main() -> Result<(), MetricsError> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(2025);
    let (w, e, u) = (32usize, 15usize, 64usize);
    let tile = u * e;

    // Two sorted arrays sharing about half their values.
    let mut a: Vec<u32> = (0..tile / 2).map(|_| rng.gen_range(0..2000)).collect();
    let mut b: Vec<u32> = (0..tile / 2).map(|_| rng.gen_range(0..2000)).collect();
    a.sort_unstable();
    b.sort_unstable();

    // Partition with merge path (same machinery as the sort), build the
    // permuted tile, and run the conflict-free intersection scan.
    let chunks = partition_merge(&a, &b, e);
    let splits: Vec<ThreadSplit> =
        chunks.iter().map(|c| ThreadSplit { a_begin: c.a_begin, a_len: c.a_len() }).collect();
    let layout = CfLayout::new(w, e, tile, a.len());
    let shared = permuted_tile(&a, &b, &layout);

    let mut block = BlockSim::<u32>::new(BankModel::new(w as u32), u, tile);
    block.phase(PhaseClass::LoadTile, |tid, lane| {
        for r in 0..e {
            lane.st(r * u + tid, shared[r * u + tid]);
        }
    });
    let counts = intersect_counts(&mut block, &layout, &splits);
    let total: u32 = counts.iter().sum();
    println!("per-thread |A_i ∩ B_i| over {} threads, total matches: {total}", counts.len());
    println!(
        "gather-phase bank conflicts: {} (always zero)",
        block.profile.phase(PhaseClass::Gather).bank_conflicts()
    );

    // A second consumer through the same combinator: per-thread maxima.
    let mut block2 = BlockSim::<u32>::new(BankModel::new(w as u32), u, tile);
    block2.phase(PhaseClass::LoadTile, |tid, lane| {
        for r in 0..e {
            lane.st(r * u + tid, shared[r * u + tid]);
        }
    });
    let maxima = dual_scan_block(&mut block2, &layout, &splits, |_tid, pair| {
        let m = pair.a.iter().chain(&pair.b).copied().max().unwrap_or(0);
        (m, (pair.a.len() + pair.b.len()) as u64)
    });
    println!("max over every thread's pair: {:?}", maxima.iter().max());

    // Stable key-value sorting via the packed 64-bit pipeline.
    let config = SortConfig::with_params(SortParams::new(15, 256));
    let n = 100_000usize;
    let keys: Vec<u32> = (0..n).map(|_| rng.gen_range(0..100)).collect();
    let values: Vec<u32> = (0..n as u32).collect();
    let r = sort_pairs_stable(&keys, &values, SortAlgorithm::CfMerge, &config);
    assert!(r.keys.is_sorted());
    println!(
        "\nstable sort-by-key of {n} pairs: {:.0} pairs/µs simulated, {} merge conflicts",
        r.run.throughput()?,
        r.run.profile.merge_bank_conflicts()
    );
    Ok(())
}
