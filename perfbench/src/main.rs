//! Wall-clock benchmark of the REASON serving path.
//!
//! ```text
//! perfbench --workload <tenants|big_kb|kb_edits> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady [--runs <n>] [--seconds <s>] [--workload <name>]...
//! ```
//!
//! A run prints one JSON object as its last line of standard output:
//! `correct`, `attempted`, `failed` and the end-to-end metrics (untraced)
//! or the per-layer metrics (traced). It exits non-zero when an output
//! check fails. See `README.md` for the workloads and metrics.

mod bench;
mod big_kb;
mod check;
mod engine;
mod gen;
mod kb_edits;
mod layers;
mod stats;
mod steady;
mod tenants;

use std::process::ExitCode;

use bench::{run, Outcome};

pub const WORKLOADS: [&str; 3] = ["tenants", "big_kb", "kb_edits"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).map(String::as_str)
}

fn parse(args: &[String]) -> Result<Args, String> {
    let workload = value(args, "--workload").ok_or("missing --workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {WORKLOADS:?})"));
    }
    let seed = value(args, "--seed").unwrap_or("1").parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 =
        value(args, "--seconds").unwrap_or("10").parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let trace = match value(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Runs one workload in this process. A traced run writes its spans to
/// `out/<workload>-seed<n>.trace.json` (Chrome trace events, loadable in
/// Perfetto) and `.folded` (collapsed stacks, self time).
fn run_workload(args: &Args) -> Outcome {
    let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let prefix = format!("{out_dir}/{}-seed{}", args.workload, args.seed);
    let trace_out =
        (args.trace && std::fs::create_dir_all(out_dir).is_ok()).then_some(prefix.as_str());
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "tenants" => {
            run(&tenants::TenantsWorkload { input: gen::tenants(seed) }, seconds, trace, trace_out)
        }
        "big_kb" => {
            run(&big_kb::BigKbWorkload { input: gen::big_kb(seed) }, seconds, trace, trace_out)
        }
        _ => run(
            &kb_edits::KbEditsWorkload { input: gen::kb_edits(seed) },
            seconds,
            trace,
            trace_out,
        ),
    }
}

/// The result line: every metric with all its digits.
fn json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("steady") {
        return steady::main(&args[1..]);
    }
    let args = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run_workload(&args);
    for f in &outcome.failures {
        eprintln!("perfbench: {f}");
    }
    println!("{}", json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
