//! A guided tour of the paper, section by section, each claim executed
//! live. Run with: `cargo run --release --example paper_tour`

use cfmerge::core::gather::{CfLayout, GatherSchedule, ThreadSplit};
use cfmerge::core::inputs::InputSpec;
use cfmerge::core::metrics::MetricsError;
use cfmerge::core::params::SortParams;
use cfmerge::core::sort::{simulate_sort, SortAlgorithm, SortConfig};
use cfmerge::core::worst_case::{lockstep_baseline_conflicts, predicted_warp_conflicts};
use cfmerge::gpu_sim::banks::BankModel;
use cfmerge::gpu_sim::occupancy::{mergesort_regs_estimate, occupancy, BlockResources};
use cfmerge::numtheory::residue::{is_complete_residue_system, r_j, r_prime_j};

fn main() -> Result<(), MetricsError> {
    println!("§2 Preliminaries — bank conflicts are a gcd phenomenon");
    let banks = BankModel::nvidia();
    for stride in [15usize, 17, 16] {
        let c = banks.strided_cost(0, stride as u32);
        println!(
            "  warp reads at stride {stride}: {} transaction(s)  (gcd({stride},32) = {})",
            c.transactions,
            cfmerge::numtheory::gcd(stride as u64, 32)
        );
    }

    println!("\n§3.1 Lemma 1 — coprime strides form complete residue systems");
    println!("  R_0 with E=15, w=32 is a CRS: {}", is_complete_residue_system(&r_j(0, 15, 32), 32));
    println!("  R_0 with E=16, w=32 is a CRS: {}", is_complete_residue_system(&r_j(0, 16, 32), 32));
    println!(
        "  §3.2 Corollary 3 — R'_0 with E=16 after the ρ re-alignment: {}",
        is_complete_residue_system(&r_prime_j(0, 16, 32), 32)
    );

    println!("\n§3 Algorithm 1 — one thread's gather schedule (w=32, E=15, a_i=7, |A_i|=4):");
    let layout = CfLayout::new(32, 15, 32 * 15, 100);
    let sched = GatherSchedule::new(layout, 0, ThreadSplit { a_begin: 7, a_len: 4 });
    for j in 0..5 {
        println!("  round {j}: {:?}", sched.round(j));
    }
    println!("  … exactly one element per round, A ascending / B descending.");

    println!("\n§4 Theorem 8 — worst-case conflicts per warp:");
    for e in [15usize, 16, 17] {
        println!(
            "  E={e}: predicted {}, lock-step measured {}",
            predicted_warp_conflicts(32, e),
            lockstep_baseline_conflicts(32, e, 4) / 4
        );
    }

    println!("\n§5 Experiments — the headline, at one size:");
    let params = SortParams::e15_u512();
    let cfg = SortConfig::paper_e15_u512();
    let n = 16 * params.tile();
    let worst = InputSpec::worst_case(params).generate(n);
    let random = InputSpec::UniformRandom { seed: 1 }.generate(n);
    let tw = simulate_sort(&worst, SortAlgorithm::ThrustMergesort, &cfg);
    let tr = simulate_sort(&random, SortAlgorithm::ThrustMergesort, &cfg);
    let cw = simulate_sort(&worst, SortAlgorithm::CfMerge, &cfg);
    println!(
        "  thrust worst {:.0} e/µs vs random {:.0} e/µs (slowdown {:.2}×)",
        tw.throughput()?,
        tr.throughput()?,
        tr.throughput()? / tw.throughput()?
    );
    println!(
        "  cf-merge on the same worst case: {:.0} e/µs, {} merge conflicts (the nvprof check)",
        cw.throughput()?,
        cw.profile.merge_bank_conflicts()
    );

    let res = BlockResources {
        threads: 512,
        shared_bytes: params.shared_bytes(),
        regs_per_thread: mergesort_regs_estimate(15),
    };
    let occ = occupancy(&cfg.device, &res).expect("paper config launches");
    println!(
        "  §5 occupancy: E=15,u=512 → {:.0}% ({} blocks/SM)",
        occ.fraction * 100.0,
        occ.blocks_per_sm
    );
    println!("\nFull reproduction: see EXPERIMENTS.md and the cfmerge-bench binaries.");
    Ok(())
}
