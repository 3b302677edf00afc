//! Kernel gate: regenerate the device-parametric certificate table,
//! cross-validate its verdicts, lint the schedules, audit registry
//! completeness, run both pipelines under the dynamic
//! [`Sanitizer`](cfmerge_gpu_sim::Sanitizer), and (with
//! `--check PINNED.json`) fail on drift.
//!
//! Emits two artifacts into the results dir (`$CFMERGE_RESULTS_DIR`,
//! default `results/`):
//!
//! * `certificates.json` — the versioned [`CertificateTable`] itself,
//!   one verdict per (kernel phase, E, u, device profile) lattice point.
//!   This is the input contract the ROADMAP's auto-tuner consumes.
//! * `kernel_cert.json` — a [`RunArtifact`] whose
//!   `summaries.certificates` block carries the coverage counts the
//!   perf gate (`bench_diff --gate`) compares, flagging newly-Unknown
//!   shapes as coverage loss, and whose `summaries.sanitizer_sweep`
//!   lists one row per sanitizer run.
//!
//! Exit status is nonzero on any prover↔cost-model disagreement (a
//! record failing cross-validation fails its `pass` bit), any lint
//! finding, any registry-completeness gap, any sanitizer finding or
//! wrongly sorted sweep output, or any drift against a pinned table.

use cfmerge_bench::artifact::{emit, RunArtifact};
use cfmerge_core::cert::{
    build_certificate_table, cert_configs, completeness_audit, device_profiles, diff_tables,
    CertificateTable,
};
use cfmerge_core::inputs::InputSpec;
use cfmerge_core::params::SortParams;
use cfmerge_core::sort::{simulate_sort_checked, SortAlgorithm, SortConfig};
use cfmerge_gpu_sim::device::Device;
use cfmerge_json::{Json, ToJson};
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pinned_path = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--check" => Some(path.clone()),
        _ => {
            eprintln!("usage: kernel_cert [--check PINNED_CERTIFICATES.json]");
            std::process::exit(2);
        }
    };

    let mut failures = 0usize;
    println!("=== kernel_cert: device-parametric certification ===");
    let table = build_certificate_table();

    // ---- per-profile coverage and failure reporting ----
    let mut profile_rows = Vec::new();
    for profile in device_profiles() {
        let recs: Vec<_> = table.records.iter().filter(|r| r.profile == profile.name).collect();
        let count = |verdict: &str| recs.iter().filter(|r| r.verdict == verdict).count();
        let (free, conf, refused) =
            (count("conflict-free"), count("conflicting"), count("not-certifiable"));
        println!(
            "  {:<18} w={:<3} {}-bit rows: {} certificates ({free} free, {conf} conflicting, \
             {refused} refused)",
            profile.name,
            profile.device.warp_width,
            32 * profile.device.bank_word_u32s,
            recs.len(),
        );
        profile_rows.push(Json::obj([
            ("profile", Json::from(profile.name)),
            ("banks", Json::from(profile.device.warp_width)),
            ("bank_word_u32s", Json::from(profile.device.bank_word_u32s)),
            ("records", Json::from(recs.len())),
            ("conflict_free", Json::from(free)),
            ("conflicting", Json::from(conf)),
            ("not_certifiable", Json::from(refused)),
        ]));
    }
    for rec in table.failures() {
        failures += 1;
        println!(
            "  FAIL {}: {} [{}] did not satisfy `{}`",
            rec.key(),
            rec.verdict,
            rec.strategy,
            rec.expected
        );
    }
    for lint in &table.lints {
        failures += 1;
        println!(
            "  LINT [{}] {}/{} on {} ({} E={} u={}): {}",
            lint.lint,
            lint.kernel,
            lint.phase,
            lint.profile,
            lint.algo,
            lint.e,
            lint.u,
            lint.message
        );
    }

    // ---- registry-completeness audit (dynamic half) ----
    println!("\n=== kernel_cert: registry-completeness audit ===");
    for params in [SortParams::e15_u512(), SortParams::e17_u256()] {
        let gaps = completeness_audit(params);
        println!(
            "  E={} u={}: {}",
            params.e,
            params.u,
            if gaps.is_empty() {
                "every profiled shared-memory phase has a registry entry"
            } else {
                "GAPS"
            }
        );
        for gap in &gaps {
            failures += 1;
            println!("    {gap}");
        }
    }

    // ---- dynamic sanitizer sweep over the shipping pipelines ----
    println!("\n=== kernel_cert: sanitizer sweep (races, OOB, uninit, divergence) ===");
    let sweep = sanitizer_sweep(&mut failures);

    // ---- drift check against a pinned table ----
    if let Some(path) = &pinned_path {
        println!("\n=== kernel_cert: drift check vs {path} ===");
        match load_table(Path::new(path)) {
            Ok(pinned) => {
                let drift = diff_tables(&pinned, &table);
                if drift.is_empty() {
                    println!("  no drift: {} certificates bit-stable", table.records.len());
                } else {
                    for d in &drift {
                        failures += 1;
                        println!("  DRIFT {d}");
                    }
                }
            }
            Err(e) => {
                failures += 1;
                println!("  cannot load pinned table: {e}");
            }
        }
    }

    // ---- emit artifacts ----
    let dir = RunArtifact::results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("kernel_cert: cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let cert_path = dir.join("certificates.json");
    let mut text = table.to_json().to_string_pretty();
    text.push('\n');
    if let Err(e) = std::fs::write(&cert_path, text) {
        eprintln!("kernel_cert: cannot write {}: {e}", cert_path.display());
        std::process::exit(1);
    }
    eprintln!("artifact: {}", cert_path.display());

    let mut art = RunArtifact::new("kernel_cert", Device::rtx2080ti());
    let verdict_counts = |counts: Vec<(String, usize)>, label: &str| {
        Json::Arr(
            counts
                .into_iter()
                .map(|(name, n)| {
                    Json::obj([(label, Json::from(name.as_str())), ("count", Json::from(n))])
                })
                .collect(),
        )
    };
    art.add_summary(
        "certificates",
        Json::obj([
            ("schema", Json::from(table.schema)),
            ("records", Json::from(table.records.len())),
            ("lint_findings", Json::from(table.lints.len())),
            ("failures", Json::from(table.failures().len())),
            ("configs", Json::from(cert_configs().len())),
            ("profiles", Json::Arr(profile_rows)),
            ("verdicts", verdict_counts(table.verdict_counts(), "verdict")),
            ("strategies", verdict_counts(table.strategy_counts(), "strategy")),
        ]),
    );
    art.add_summary("sanitizer_sweep", sweep);
    art.add_summary("failures", Json::from(failures as u64));
    emit(&art);

    if failures > 0 {
        eprintln!("kernel_cert: {failures} failure(s)");
        std::process::exit(1);
    }
    println!(
        "\nkernel_cert: {} certificates across {} device profiles; all pass, lints clean, \
         sanitizer clean.",
        table.records.len(),
        device_profiles().len()
    );
}

/// Run both pipelines at the paper's two parameter sets on worst-case,
/// random and few-distinct inputs of four tiles (two merge passes, so
/// every kernel runs) under the sanitizer, and check each output against
/// `sort_unstable`. Counts every unclean or wrongly sorted run into
/// `failures` and returns one row per run.
fn sanitizer_sweep(failures: &mut usize) -> Json {
    let w = Device::rtx2080ti().warp_width as usize;
    let mut rows = Vec::new();
    for (e, u) in [(15usize, 512usize), (17, 256)] {
        let config = SortConfig::with_params(SortParams::new(e, u));
        let n = 4 * e * u;
        for algo in [SortAlgorithm::ThrustMergesort, SortAlgorithm::CfMerge] {
            for spec in [
                InputSpec::WorstCase { w, e, u },
                InputSpec::UniformRandom { seed: 0xC0FFEE },
                InputSpec::FewDistinct { seed: 7, distinct: 3 },
            ] {
                let input = spec.generate(n);
                let checked = simulate_sort_checked(&input, algo, &config);
                let mut expect = input.clone();
                expect.sort_unstable();
                let sorted_ok = checked.run.output == expect;
                let clean = checked.is_clean() && sorted_ok;
                println!(
                    "  {:<9} E={e:<3} u={u:<4} {:<22} {}",
                    algo.label(),
                    spec.label(),
                    if clean { "clean" } else { "FINDINGS" },
                );
                if !clean {
                    *failures += 1;
                    if !sorted_ok {
                        println!("    output is not sorted correctly");
                    }
                    for f in checked.findings.iter().take(10) {
                        println!("    {f}");
                    }
                }
                rows.push(Json::obj([
                    ("algo", Json::from(algo.label())),
                    ("e", Json::from(e)),
                    ("u", Json::from(u)),
                    ("input", Json::from(spec.label())),
                    ("n", Json::from(n)),
                    ("findings", Json::from(checked.findings.len() as u64 + checked.dropped)),
                    ("sorted", Json::from(sorted_ok)),
                ]));
            }
        }
    }
    Json::Arr(rows)
}

fn load_table(path: &Path) -> Result<CertificateTable, String> {
    use cfmerge_json::FromJson;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    CertificateTable::from_json(&json).map_err(|e| format!("{}: {e}", path.display()))
}
