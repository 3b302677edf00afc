//! Cross-crate integration: the simulated GPU pipelines against the CPU
//! merge sorts on shared inputs.

use cfmerge::core::inputs::InputSpec;
use cfmerge::core::params::SortParams;
use cfmerge::core::sort::{simulate_sort, SortAlgorithm, SortConfig};
use cfmerge::mergepath::cpu::{merge_sort_par, merge_sort_seq};

#[test]
fn all_four_sorts_agree_on_every_input_shape() {
    // Thrust and CF-Merge on 3000 keys (ragged on the 160-key tiles of
    // (5, 32)), checked against the sequential and parallel CPU merge sorts.
    let cfg = SortConfig::with_params(SortParams::new(5, 32));
    for spec in [
        InputSpec::UniformRandom { seed: 0xA11 },
        InputSpec::Sorted,
        InputSpec::Reversed,
        InputSpec::FewDistinct { seed: 0xA11, distinct: 2 },
    ] {
        let input = spec.generate(3000);
        let mut expect = input.clone();
        expect.sort_unstable();
        assert_eq!(
            simulate_sort(&input, SortAlgorithm::ThrustMergesort, &cfg).output,
            expect,
            "thrust on {}",
            spec.label()
        );
        assert_eq!(
            simulate_sort(&input, SortAlgorithm::CfMerge, &cfg).output,
            expect,
            "cf on {}",
            spec.label()
        );
        let mut seq = input.clone();
        merge_sort_seq(&mut seq);
        assert_eq!(seq, expect, "cpu seq on {}", spec.label());
        let mut par = input.clone();
        merge_sort_par(&mut par, 256);
        assert_eq!(par, expect, "cpu par on {}", spec.label());
    }
}
