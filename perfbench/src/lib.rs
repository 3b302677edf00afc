//! The repository benchmark: three workloads, each measured on both
//! clocks of the system.
//!
//! * **Modeled GPU time** — the paper's quantity, deterministic, so it
//!   repeats exactly for a given input.
//! * **Host wall-clock** — what running the simulator costs.
//!
//! An untraced run (`--trace 0`) times the workload end to end and prints
//! the end-to-end metrics. A traced run (`--trace 1`) times calls into
//! each layer's public functions from outside, records them as spans, and
//! prints the per-layer metrics. Every output is checked against `std`'s
//! `sort_unstable` of its input. See `README.md` for the metric table.

pub mod cluster;
pub mod layers;
pub mod paper;
pub mod replay;
pub mod report;
pub mod spans;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input-generator seed.
    pub seed: u64,
    /// Seconds to keep measuring.
    pub seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
}

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["paper-random", "paper-worstcase", "cluster-steady"];

/// Parse `--workload W --seed N --seconds S --trace 0|1`.
///
/// # Errors
/// Describes the first missing or malformed argument.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 0, seconds: 0.0, trace: false };
    let mut seen = [false; 4];
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => {
                args.workload.clone_from(value);
                seen[0] = true;
            }
            "--workload" => return Err(bad(&WORKLOADS.join(" | "))),
            "--seed" => {
                args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?;
                seen[1] = true;
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad("a positive number of seconds"));
                }
                seen[2] = true;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
                seen[3] = true;
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    match seen.iter().position(|s| !s) {
        Some(i) => Err(format!("missing {}", ["--workload", "--seed", "--seconds", "--trace"][i])),
        None => Ok(args),
    }
}
