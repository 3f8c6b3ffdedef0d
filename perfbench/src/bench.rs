//! The measurement loop shared by every workload.
//!
//! A run is whole rounds. Each round sets the system up afresh (timed:
//! `setup_s`) and then issues the workload's fixed, seeded request list
//! once, closed-loop from this one thread, timing every request. Rounds
//! repeat until `--seconds` have passed and at least
//! [`MIN_REQUEST_SAMPLES`] requests were timed, so every round — and so
//! every run — ends in the same program state however fast the machine
//! is: the persistent component caches `kb_edits` grows without bound
//! are rebuilt from empty each round. Before the first round, a warm-up
//! sets up [`WARMUP_SETUPS`] times and serves a quarter of the list.
//! Set-up time and throughput are medians over set-ups and rounds, so a
//! burst of CPU steal on a shared host moves one sample, not the result.

use std::time::Instant;

use reason_serve::Answer;
use reason_system::ExecutorConfig;
use reason_telemetry::{chrome_trace_json, Profile};

use crate::check::hash_answer;
use crate::layers::Replay;
use crate::stats::{median, nearest_rank, sorted};

/// The 99th percentile needs ten samples beyond it.
pub const MIN_REQUEST_SAMPLES: usize = 1000;
pub const WARMUP_SETUPS: usize = 3;
/// Traced rounds per traced run: enough requests for every per-layer
/// metric while the kept spans stay in the tens of MB.
pub const TRACED_ROUNDS: usize = 2;

/// Each request's answers, by request index.
pub type Answers = Vec<(usize, Vec<Answer>)>;

/// One workload: its system, its request list, its checks and its
/// replay.
pub trait Workload {
    /// The serving system under test.
    type System;
    /// What one request returns, before it is accounted.
    type Reply;
    /// The replay's copies of what the system holds (traced run only).
    type Mirror;

    /// Registers and warm-compiles every KB, up to the first servable
    /// request.
    fn setup(&self) -> Self::System;
    /// Requests per round.
    fn len(&self) -> usize;
    /// Issues request `i`: the timed part.
    fn call(&self, sys: &mut Self::System, i: usize) -> Self::Reply;
    /// Counts a reply's operations and failures and collects its answers.
    fn account(&self, i: usize, reply: Self::Reply, tally: &mut Tally);
    /// Checks the answers of one round (request index, answers), then
    /// probes the system as the last round left it.
    fn check(&self, sys: &mut Self::System, answers: &Answers) -> Result<(), String>;

    /// Builds the replay's copies of a freshly set-up system.
    fn mirror(&self, sys: &Self::System, replay: &mut Replay) -> Self::Mirror;
    /// Replays request `i` layer by layer.
    fn replay(&self, sys: &Self::System, mirror: &mut Self::Mirror, i: usize, replay: &mut Replay);
    /// Per-layer metrics read from the system (store, caches) and the
    /// request structure, at the end of a traced round.
    fn round_metrics(
        &self,
        sys: &Self::System,
        mirror: &Self::Mirror,
    ) -> Vec<(&'static str, f64, &'static str)>;
}

/// Operation accounting of one round.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Queries answered.
    pub answered: u64,
    /// Hash of every answer in order: rounds must agree.
    pub hash: u64,
    /// Answers per request, kept for the first measured round only.
    pub answers: Option<Answers>,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    fn new(keep_answers: bool) -> Self {
        Tally {
            hash: 0xCBF2_9CE4_8422_2325,
            answers: keep_answers.then(Vec::new),
            ..Tally::default()
        }
    }

    /// Records one request's answers.
    pub fn record(&mut self, i: usize, answers: Vec<Answer>) {
        self.answered += answers.len() as u64;
        for a in &answers {
            hash_answer(&mut self.hash, a);
        }
        if let Some(kept) = &mut self.answers {
            kept.push((i, answers));
        }
    }

    /// Records `count` failed operations.
    pub fn fail(&mut self, count: u64, why: impl FnOnce() -> String) {
        self.failed += count;
        if self.failures.len() < 5 {
            self.failures.push(why());
        }
    }
}

/// The executor shape every engine uses: inline on the caller thread.
///
/// `ServeEngine` builds a fresh `BatchExecutor` per batch, and the
/// overlapped shape spawns its workers per call. Sized to two cores
/// (`overlapped(1)`: two workers) those spawns were ~80% of a `tenants`
/// request (p50 590 µs against 115 µs inline), and their cross-core
/// wake-ups made ten `tenants` runs on a shared two-vCPU host spread by
/// 31% in throughput and 52% in p99 (quartile distance over median).
/// Inline, no call's workers outnumber the cores, and the layers the
/// workloads are about — fingerprint, admission, store, arena, compile —
/// carry the request time.
pub fn executor_config() -> ExecutorConfig {
    ExecutorConfig::sequential()
}

/// What a run prints.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub failures: Vec<String>,
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `w` for at least `seconds`, traced (`trace`: rounds 1, 3, ...
/// up to [`TRACED_ROUNDS`] replay every request layer by layer) or not.
pub fn run<W: Workload>(w: &W, seconds: f64, trace: bool, trace_out: Option<&str>) -> Outcome {
    let mut setup_s: Vec<f64> = Vec::new();
    let timed_setup = |setup_s: &mut Vec<f64>| {
        let t0 = Instant::now();
        let sys = w.setup();
        setup_s.push(t0.elapsed().as_secs_f64());
        sys
    };
    let mut sys = timed_setup(&mut setup_s);
    for _ in 1..WARMUP_SETUPS {
        sys = timed_setup(&mut setup_s);
    }
    let mut warm = Tally::new(false);
    for i in 0..w.len() / 4 {
        let reply = w.call(&mut sys, i);
        w.account(i, reply, &mut warm);
    }
    drop(sys);

    let mut replay = Replay::new();
    let mut latencies: Vec<f64> = Vec::new();
    let mut traced_latencies: Vec<f64> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Answered queries per busy second, one value per untraced round.
    let mut round_qps: Vec<f64> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut first: Option<(u64, Answers)> = None;
    let mut round_metrics = Vec::new();
    let mut consistent = true;
    let start = Instant::now();
    let mut round = 0usize;
    let mut sys = loop {
        let traced = trace && round % 2 == 1 && round / 2 < TRACED_ROUNDS;
        let mut sys = timed_setup(&mut setup_s);
        let mut mirror = traced.then(|| {
            let _root = replay.root("replay", "setup");
            w.mirror(&sys, &mut replay)
        });
        let mut tally = Tally::new(first.is_none());
        let (mut answered, mut busy_s) = (0u64, 0.0f64);
        for i in 0..w.len() {
            // A traced request's time includes opening and closing its span.
            let label = traced.then(|| i.to_string());
            let t0 = Instant::now();
            let span = label.as_deref().map(|id| replay.root("request", id));
            let reply = w.call(&mut sys, i);
            drop(span);
            let dt = t0.elapsed().as_secs_f64();
            let before = tally.answered;
            w.account(i, reply, &mut tally);
            if let Some(mirror) = mirror.as_mut() {
                traced_latencies.push(dt);
                let _root = replay.root("replay", &i.to_string());
                w.replay(&sys, mirror, i, &mut replay);
            } else {
                latencies.push(dt);
                busy_s += dt;
                answered += tally.answered - before;
            }
        }
        match &mirror {
            Some(mirror) => round_metrics = w.round_metrics(&sys, mirror),
            None => round_qps.push(answered as f64 / busy_s),
        }
        attempted += tally.attempted;
        failed += tally.failed;
        failures.extend(tally.failures);
        match &first {
            None => first = Some((tally.hash, tally.answers.expect("kept in the first round"))),
            Some((hash, _)) => consistent &= *hash == tally.hash,
        }
        round += 1;
        let done = start.elapsed().as_secs_f64() >= seconds
            && latencies.len() >= MIN_REQUEST_SAMPLES
            && (!trace || !traced_latencies.is_empty());
        if done {
            break sys;
        }
    };
    let rss_mb = peak_rss_mb();

    let (_, answers) = first.expect("at least one round");
    let mut check = w.check(&mut sys, &answers);
    if check.is_ok() && !consistent {
        check = Err("rounds of the same requests returned different answers".into());
    }
    if let Err(e) = &check {
        failures.insert(0, format!("check failed: {e}"));
    }

    let metrics = if trace {
        let p50 = |v: &[f64]| nearest_rank(&sorted(v), 0.5);
        let mut m = replay.metrics();
        m.extend(round_metrics);
        m.push(("trace.overhead_us", (p50(&traced_latencies) - p50(&latencies)) * 1e6, "us"));
        m.sort_by(|a, b| a.0.cmp(b.0));
        if let Some(prefix) = trace_out {
            let spans = replay.spans();
            let written = std::fs::write(format!("{prefix}.trace.json"), chrome_trace_json(&spans))
                .and_then(|()| {
                    std::fs::write(
                        format!("{prefix}.folded"),
                        Profile::from_spans(&spans).collapsed(),
                    )
                });
            if let Err(e) = written {
                failures.push(format!("could not write the trace: {e}"));
            }
        }
        m
    } else {
        let s = sorted(&latencies);
        vec![
            ("setup_s", median(&setup_s), "s"),
            ("queries_per_s", median(&round_qps), "1/s"),
            ("request_p50_us", nearest_rank(&s, 0.5) * 1e6, "us"),
            ("request_p99_us", nearest_rank(&s, 0.99) * 1e6, "us"),
            ("peak_rss_mb", rss_mb, "MiB"),
        ]
    };
    Outcome { correct: check.is_ok(), attempted, failed, metrics, failures }
}
