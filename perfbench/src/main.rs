//! `cfmerge-perfbench --workload W --seed N --seconds S --trace 0|1`
//!
//! Prints a human-readable report, then one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when any output check
//! fails and 2 on a usage error.

use cfmerge_perfbench::{cluster, paper, parse_args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|why| {
        eprintln!("usage: --workload W --seed N --seconds S --trace 0|1\n{why}");
        std::process::exit(2);
    });
    let (out, spans) = match args.workload.as_str() {
        "paper-random" => paper::run(paper::Input::Random, &args),
        "paper-worstcase" => paper::run(paper::Input::WorstCase, &args),
        _ => cluster::run(&args),
    };

    println!("workload {} seed {} trace {}", args.workload, args.seed, u8::from(args.trace));
    for line in &out.lines {
        println!("  {line}");
    }
    for m in &out.metrics {
        println!("  {:<44} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<44} {:>18.6} ratio (failed {} of {} checks)",
        "failed_ratio",
        out.failures.len() as f64 / out.attempted.max(1) as f64,
        out.failures.len(),
        out.attempted
    );
    for f in &out.failures {
        println!("  FAILED: {f}");
    }
    if args.trace {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/spans-{}-seed{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            std::fs::write(&path, spans.to_json(&args.workload, args.seed).to_string_compact())
        });
        match written {
            Ok(()) => println!("  spans: {path} ({} spans)", spans.spans.len()),
            Err(e) => println!("  spans not written to {path}: {e}"),
        }
    }
    println!("{}", out.result_json().to_string_compact());
    if !out.failures.is_empty() {
        std::process::exit(1);
    }
}
