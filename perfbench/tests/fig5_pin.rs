//! The benchmark's modeled clock is the one the pinned figures use: the
//! worst-case i = 15, E = 15, u = 512 point of `results/fig5.json`
//! reproduces exactly.

use cfmerge_core::inputs::InputSpec;
use cfmerge_core::params::SortParams;
use cfmerge_core::sort::SortConfig;
use cfmerge_json::Json;
use cfmerge_perfbench::layers::{modeled_sorts, SortJob};
use cfmerge_perfbench::report::Outcome;

#[test]
fn worst_case_i15_matches_pinned_fig5() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../results/fig5.json");
    let fig5 = Json::parse(&std::fs::read_to_string(path).expect("results/fig5.json exists"))
        .expect("fig5.json parses");
    let pinned = |label: &str| -> f64 {
        let series = fig5.req("series").ok().and_then(Json::as_arr).expect("series list");
        let s = series.iter().find(|s| s.get("label").and_then(Json::as_str) == Some(label));
        let points = s.and_then(|s| s.get("points")).and_then(Json::as_arr).expect(label);
        let p = points.iter().find(|p| p.get("i").and_then(Json::as_u64) == Some(15));
        p.and_then(|p| p.get("throughput")).and_then(Json::as_f64).expect("i = 15 point")
    };

    let n = (1 << 15) * 15;
    let input = InputSpec::worst_case(SortParams::e15_u512()).generate(n);
    let mut out = Outcome::default();
    let modeled = modeled_sorts(&[SortJob::new(input, SortConfig::paper_e15_u512())], &mut out);
    assert!(out.failures.is_empty(), "{:?}", out.failures);
    assert_eq!(modeled[0].elems_per_us(), pinned("thrust/worst-case(E=15)/E=15,u=512"));
    assert_eq!(modeled[1].elems_per_us(), pinned("cf-merge/worst-case(E=15)/E=15,u=512"));
}
