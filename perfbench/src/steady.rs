//! The steadiness command: runs each workload repeatedly, one process
//! per run and seed, and prints each end-to-end metric's median,
//! quartiles, quartile spread relative to the median (the figure a
//! metric's bound must cover) and largest relative deviation from the
//! median.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::stats::{median, quartiles};
use crate::{value, WORKLOADS};

/// `"name": {"value": v, ...}` pairs of a result line.
fn metrics(line: &str) -> BTreeMap<String, f64> {
    const KEY: &str = "\": {\"value\": ";
    let mut out = BTreeMap::new();
    let mut from = 0;
    while let Some(at) = line[from..].find(KEY).map(|i| from + i) {
        let name = line[..at].rsplit('"').next().unwrap_or("");
        let rest = &line[at + KEY.len()..];
        if let Some(v) = rest.split([',', '}']).next().and_then(|v| v.trim().parse::<f64>().ok()) {
            out.insert(name.to_string(), v);
        }
        from = at + KEY.len();
    }
    out
}

fn field(line: &str, key: &str) -> Option<u64> {
    line.split(&format!("\"{key}\": ")).nth(1)?.split([',', '}']).next()?.trim().parse().ok()
}

pub fn main(args: &[String]) -> ExitCode {
    let runs: u64 = value(args, "--runs").and_then(|v| v.parse().ok()).unwrap_or(5);
    let seconds = value(args, "--seconds").unwrap_or("10");
    let chosen: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| *i > 0 && args[i - 1] == "--workload" && WORKLOADS.contains(&a.as_str()))
        .map(|(_, a)| a.as_str())
        .collect();
    let workloads = if chosen.is_empty() { WORKLOADS.to_vec() } else { chosen };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("steady: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut shares: Vec<String> = Vec::new();
        for seed in 1..=runs {
            let out = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", seconds, "--trace", "0"])
                .output();
            let line = match &out {
                Ok(o) if o.status.success() => {
                    String::from_utf8_lossy(&o.stdout).lines().last().unwrap_or("").to_string()
                }
                Ok(o) => {
                    eprintln!("{workload} seed {seed}: {}", String::from_utf8_lossy(&o.stderr));
                    ok = false;
                    continue;
                }
                Err(e) => {
                    eprintln!("{workload} seed {seed}: {e}");
                    ok = false;
                    continue;
                }
            };
            let (a, f) =
                (field(&line, "attempted").unwrap_or(0), field(&line, "failed").unwrap_or(0));
            shares.push(format!("{f}/{a}"));
            for (name, v) in metrics(&line) {
                values.entry(name).or_default().push(v);
            }
        }
        println!("{workload}: {} runs of {seconds} s, failed/attempted {}", runs, shares.join(" "));
        println!(
            "  {:<16} {:>14} {:>14} {:>14} {:>9} {:>9}",
            "metric", "median", "q1", "q3", "iqr/med", "max dev"
        );
        for (name, v) in &values {
            let m = median(v);
            let (q1, q3) = if v.len() >= 2 { quartiles(v) } else { (m, m) };
            let dev = v.iter().map(|x| (x - m).abs() / m).fold(0.0, f64::max);
            println!(
                "  {name:<16} {m:>14.4} {q1:>14.4} {q3:>14.4} {:>9.4} {dev:>9.4}",
                (q3 - q1) / m
            );
            let all: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!("    runs: {}", all.join(" "));
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_back_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"request_p50_us\": {\"value\": 1234.5, \"unit\": \"us\"}}}";
        let m = metrics(line);
        assert_eq!(m["setup_s"], 0.25);
        assert_eq!(m["request_p50_us"], 1234.5);
        assert_eq!(field(line, "attempted"), Some(12));
        assert_eq!(field(line, "failed"), Some(0));
    }
}
