//! The metric names and units the benchmark prints are exactly the ones
//! `BENCHMARK.json` declares, and the traced replay is `simulate_sort`.

use cfmerge_core::inputs::InputSpec;
use cfmerge_core::params::SortParams;
use cfmerge_core::sort::{simulate_sort, SortConfig};
use cfmerge_json::Json;
use cfmerge_perfbench::layers::{
    end_to_end, per_layer, ClusterLayers, EndToEnd, SetupLayers, Traced, ALGOS,
};
use cfmerge_perfbench::replay::{replay_sort, same_program};
use cfmerge_perfbench::report::Metric;
use cfmerge_perfbench::spans::Spans;
use cfmerge_perfbench::{parse_args, WORKLOADS};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists"))
        .expect("BENCHMARK.json parses")
}

fn declared(key: &str) -> Vec<(String, String)> {
    manifest()
        .req(key)
        .and_then(|v| v.as_arr().ok_or_else(|| cfmerge_json::JsonError::new("array")))
        .expect("metric list")
        .iter()
        .map(|m| (m.field("name").expect("name"), m.field("unit").expect("unit")))
        .collect()
}

fn emitted(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
}

#[test]
fn end_to_end_metrics_match_manifest() {
    assert_eq!(emitted(&end_to_end(&EndToEnd::default())), declared("end_to_end"));
}

#[test]
fn per_layer_metrics_match_manifest() {
    let m = per_layer(&Traced::default(), &SetupLayers::default(), &ClusterLayers::default());
    assert_eq!(emitted(&m), declared("per_layer"));
}

#[test]
fn workloads_match_manifest() {
    let names: Vec<String> = manifest()
        .req("workloads")
        .ok()
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| w.field("name").expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn arguments_are_checked() {
    let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
    let ok = parse_args(&argv("--workload paper-random --seed 7 --seconds 2.5 --trace 1"))
        .expect("valid arguments");
    assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 2.5, true));
    for bad in [
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload paper-random --seed -1 --seconds 1 --trace 0",
        "--workload paper-random --seed 1 --seconds 0 --trace 0",
        "--workload paper-random --seed 1 --seconds 1 --trace 2",
        "--workload paper-random --seed 1 --seconds 1",
    ] {
        assert!(parse_args(&argv(bad)).is_err(), "{bad}");
    }
}

#[test]
fn replay_matches_simulate_sort_bit_for_bit() {
    for (spec, n) in [
        (InputSpec::UniformRandom { seed: 3 }, 4 * 7680 + 5),
        (InputSpec::worst_case(SortParams::e15_u512()), 4 * 7680),
        (InputSpec::FewDistinct { seed: 4, distinct: 7 }, 100),
    ] {
        let input = spec.generate(n);
        for count_accesses in [true, false] {
            let config = SortConfig { count_accesses, ..SortConfig::paper_e15_u512() };
            for algo in ALGOS {
                let mut spans = Spans::default();
                let root = spans.open("replay", algo.label(), count_accesses, None, 0);
                let replay = replay_sort(&input, algo, &config, &mut spans, root, 0);
                spans.close(root);
                let run = simulate_sort(&input, algo, &config);
                assert_eq!(same_program(&replay, &run), Ok(()), "{} n={n}", spec.label());
                assert!(spans.self_seconds().iter().all(|s| *s >= 0.0));
            }
        }
    }
}
