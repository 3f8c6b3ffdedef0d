//! The traced run's replay: after each request, outside its span, the
//! request's inputs are passed to each layer's public function under a
//! `replay` root span, and every call is timed as a child span. The
//! per-layer metrics are computed from those spans' durations.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use reason_pc::{BatchBuffer, Circuit, CompileStats, Dnnf, DnnfBatch, DnnfBuffer, Evidence};
use reason_serve::{
    Admission, CacheStats, CircuitStore, FormulaFingerprint, HashRing, KbTelemetry, KnowledgeBase,
    Query, QueryKind, QueryRouter, RouterConfig, StoredCircuit,
};
use reason_system::{
    BatchExecutor, BatchTask, ExecutorConfig, NeuralStage, ServeQuery, SymbolicStage,
};
use reason_telemetry::{SpanGuard, SpanRecord, Telemetry};

/// An artifact as the replay holds it.
#[derive(Clone)]
pub struct Artifact {
    pub dnnf: Arc<Dnnf>,
    pub z: f64,
}

/// Span recorder plus the sums the per-layer metrics are made of.
pub struct Recorder {
    pub tel: Telemetry,
    /// Per span name: (seconds, work units) — units are calls, edge
    /// evaluations or edge-lane evaluations, whichever the metric
    /// divides by.
    spans: BTreeMap<&'static str, (f64, f64)>,
    /// Event counts and derived sums.
    counts: BTreeMap<&'static str, f64>,
    /// When false, spans are still recorded but feed no metric (the
    /// cold set-up compiles of `kb_edits`, whose metrics describe the
    /// incremental recompiles of its requests).
    pub counting: bool,
}

impl Recorder {
    pub fn count(&mut self, name: &'static str, x: f64) {
        if self.counting {
            *self.counts.entry(name).or_default() += x;
        }
    }

    /// Times `f` as a child span `name` of the open root; `f` returns
    /// the work units it did.
    pub fn step(&mut self, name: &'static str, f: impl FnOnce() -> f64) -> f64 {
        let t0 = self.tel.now_s();
        let units = f();
        let t1 = self.tel.now_s();
        self.tel.tracer.record_span(0, name, &[], t0, t1);
        if self.counting {
            let e = self.spans.entry(name).or_default();
            e.0 += t1 - t0;
            e.1 += units;
        }
        t1 - t0
    }
}

/// The replay: layer calls on a request's inputs, timed by a [`Recorder`].
pub struct Replay {
    pub rec: Recorder,
    router: QueryRouter,
    single_buf: DnnfBuffer,
    batch_buf: BatchBuffer,
}

impl Replay {
    pub fn new() -> Self {
        Replay {
            rec: Recorder {
                tel: Telemetry::wall(),
                spans: BTreeMap::new(),
                counts: BTreeMap::new(),
                counting: true,
            },
            router: QueryRouter::new(RouterConfig::default()),
            single_buf: DnnfBuffer::new(),
            batch_buf: BatchBuffer::new(),
        }
    }

    /// Opens a root span on the request track.
    pub fn root(&self, name: &str, request: &str) -> SpanGuard {
        self.rec.tel.tracer.span_on(0, name, &[("request", request)])
    }

    pub fn fingerprints(&mut self, kbs: &[&KnowledgeBase]) -> Vec<FormulaFingerprint> {
        let mut fps = Vec::with_capacity(kbs.len());
        self.rec.step("serve.kb.fingerprint", || {
            fps.extend(kbs.iter().map(|kb| kb.fingerprint()));
            fps.len() as f64
        });
        fps
    }

    /// Ring placement plus admission for each `(fingerprint, query, cost model)`.
    pub fn admit(
        &mut self,
        ring: &HashRing,
        arrivals: &[(&FormulaFingerprint, &Query, KbTelemetry)],
    ) {
        let router = &self.router;
        self.rec.step("serve.cluster.admit", || {
            for (fp, query, model) in arrivals {
                let shard = ring.shard_for(fp);
                let (decision, _) = router.admit_explained(query, model, 0.0);
                black_box((shard, matches!(decision, Admission::Admit(_))));
            }
            arrivals.len() as f64
        });
    }

    /// `CircuitStore::get` per key; returns the artifact of each hit.
    pub fn lookup(
        &mut self,
        store: &mut CircuitStore,
        keys: &[&FormulaFingerprint],
    ) -> Vec<Option<Artifact>> {
        let mut found = Vec::with_capacity(keys.len());
        self.rec.step("serve.store.lookup", || {
            for key in keys {
                found.push(store.get(key).map(|s| Artifact { dnnf: Arc::clone(&s.dnnf), z: s.z }));
            }
            keys.len() as f64
        });
        found
    }

    /// Compiles `kb` through its persistent cache with a telemetry sink
    /// on the replay clock, copies the compiler's own `pc.compile` /
    /// `pc.propagate` / `pc.component_split` / `pc.cache_probe` spans
    /// into the trace, and adds them to the compile metrics.
    pub fn compile(&mut self, kb: &mut KnowledgeBase) -> (Option<Circuit>, CompileStats) {
        let sink = Telemetry::with_clock(Arc::clone(self.rec.tel.tracer.clock()));
        let (circuit, stats) = kb.compile_observed(Some(&sink));
        let spans: Vec<SpanRecord> = sink.tracer.finished();
        let root =
            spans.iter().find(|s| s.name == "pc.compile").expect("compile records its root span");
        let root_id =
            self.rec.tel.tracer.record_span(0, "pc.compile", &[], root.start_s, root.end_s);
        for s in spans.iter().filter(|s| s.parent == Some(root.id)) {
            self.rec.tel.tracer.record_span_under(0, &s.name, &[], s.start_s, s.end_s, root_id);
            let key = match s.name.as_str() {
                "pc.propagate" => "compile.propagate_s",
                "pc.component_split" => "compile.split_s",
                _ => "compile.probe_s",
            };
            self.rec.count(key, s.end_s - s.start_s);
        }
        self.rec.count("compile.count", 1.0);
        self.rec.count("compile.s", root.end_s - root.start_s);
        self.rec.count("compile.decisions", stats.decisions as f64);
        self.rec.count("compile.propagations", stats.propagations as f64);
        self.rec.count("compile.cache_hits", stats.cache_hits as f64);
        self.rec.count("compile.cache_misses", stats.cache_misses as f64);
        self.rec.count("compile.persistent_hits", stats.persistent_hits as f64);
        (circuit, stats)
    }

    /// `Dnnf::from_circuit`.
    pub fn flatten(&mut self, circuit: &Circuit) -> Arc<Dnnf> {
        let mut dnnf = None;
        self.rec.step("pc.dnnf.flatten", || {
            dnnf = Some(Dnnf::from_circuit(circuit).expect("compiled circuits are binary"));
            1.0
        });
        Arc::new(dnnf.expect("flattened above"))
    }

    /// Compiles, flattens and stores one KB's current revision.
    pub fn build(
        &mut self,
        kb: &mut KnowledgeBase,
        store: &mut CircuitStore,
        compile_s: f64,
    ) -> Artifact {
        let (circuit, stats) = self.compile(kb);
        let circuit = circuit.expect("planted knowledge bases carry mass");
        let dnnf = self.flatten(&circuit);
        let z = dnnf.probability(&Evidence::empty(dnnf.num_vars()), &mut self.single_buf);
        store.insert(
            kb.fingerprint(),
            StoredCircuit { dnnf: Arc::clone(&dnnf), circuit, z, compile_s, stats },
        );
        Artifact { dnnf, z }
    }

    /// Each query answered alone on the arena (`Dnnf::probability`,
    /// `marginal`, `mpe`).
    pub fn single(&mut self, art: &Artifact, kinds: &[&QueryKind]) {
        let (dnnf, z, buf) = (&art.dnnf, art.z, &mut self.single_buf);
        let edges = dnnf.num_edges() as f64;
        self.rec.step("pc.dnnf.single", || {
            let empty = Evidence::empty(dnnf.num_vars());
            let mut units = 0.0;
            for kind in kinds {
                match kind {
                    QueryKind::Wmc => {
                        black_box(dnnf.probability(&empty, buf));
                    }
                    QueryKind::Probability(ev) => {
                        black_box(dnnf.probability(ev, buf));
                    }
                    QueryKind::Posterior(ev) => {
                        black_box(dnnf.probability(ev, buf) / z);
                    }
                    QueryKind::Marginal(ev, var) => {
                        black_box(dnnf.marginal(ev, *var, buf));
                        // One sweep per value plus the normalizer.
                        units += 2.0 * edges;
                    }
                    QueryKind::Mpe(ev) => {
                        black_box(dnnf.mpe(ev, buf));
                    }
                }
                units += edges;
            }
            units
        });
    }

    /// The batch kernels one `ServeBatch` task runs: one `wmc_batch`
    /// over the probability lanes, one `marginal_batch` per queried
    /// variable, one `mpe_batch` over the MPE lanes.
    pub fn batch(&mut self, art: &Artifact, kinds: &[&QueryKind]) {
        let mut prob: Vec<Evidence> = Vec::new();
        let mut marginals: Vec<(usize, Vec<Evidence>)> = Vec::new();
        let mut mpe: Vec<Evidence> = Vec::new();
        for kind in kinds {
            match kind {
                QueryKind::Wmc => {}
                QueryKind::Probability(ev) | QueryKind::Posterior(ev) => prob.push(ev.clone()),
                QueryKind::Marginal(ev, var) => {
                    match marginals.iter_mut().find(|(v, _)| v == var) {
                        Some((_, lanes)) => lanes.push(ev.clone()),
                        None => marginals.push((*var, vec![ev.clone()])),
                    }
                }
                QueryKind::Mpe(ev) => mpe.push(ev.clone()),
            }
        }
        let (dnnf, buf) = (&art.dnnf, &mut self.batch_buf);
        let edges = dnnf.num_edges() as f64;
        let (mut lanes, mut distinct) = (0.0, 0.0);
        self.rec.step("pc.dnnf.batch", || {
            let mut units = 0.0;
            let mut run = |evs: &[Evidence], traversals: f64, f: &mut dyn FnMut(&DnnfBatch)| {
                if evs.is_empty() {
                    return;
                }
                let packed = DnnfBatch::pack(evs);
                lanes += packed.lanes() as f64;
                distinct += packed.distinct_lanes() as f64;
                units += edges * packed.distinct_lanes() as f64 * traversals;
                f(&packed);
            };
            run(&prob, 1.0, &mut |b| {
                black_box(dnnf.wmc_batch(b, buf));
            });
            for (var, evs) in &marginals {
                run(evs, 3.0, &mut |b| {
                    black_box(dnnf.marginal_batch(b, *var, buf));
                });
            }
            run(&mpe, 1.0, &mut |b| {
                black_box(dnnf.mpe_batch(b, buf));
            });
            units
        });
        self.rec.count("batch.lanes", lanes);
        self.rec.count("batch.distinct", distinct);
    }

    /// `BatchExecutor::run` on the one `ServeBatch` task an engine
    /// builds for a group of exact queries; dispatch time is the run's
    /// wall time minus its task's measured stage seconds.
    pub fn executor(
        &mut self,
        config: ExecutorConfig,
        groups: &[(Artifact, Vec<&QueryKind>, Option<Duration>)],
    ) {
        let tasks: Vec<Vec<BatchTask>> = groups
            .iter()
            .map(|(art, kinds, deadline)| {
                vec![BatchTask {
                    name: "exact-batch".into(),
                    neural: NeuralStage::Synthetic { duration: Duration::ZERO },
                    symbolic: SymbolicStage::ServeBatch {
                        arena: Arc::clone(&art.dnnf),
                        z: art.z,
                        queries: kinds.iter().map(|k| serve_query(k)).collect(),
                    },
                    deadline: *deadline,
                }]
            })
            .collect();
        let mut stage_s = 0.0;
        let wall_s = self.rec.step("system.executor.run", || {
            for task in &tasks {
                let report = BatchExecutor::new(config).run(task);
                stage_s += report.results.iter().map(|r| r.neural_s + r.symbolic_s).sum::<f64>();
            }
            tasks.len() as f64
        });
        self.rec.count("executor.dispatch_s", wall_s - stage_s);
    }

    /// The per-layer metrics measured so far, as `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let per = |name: &str, scale: f64| {
            self.rec
                .spans
                .get(name)
                .map_or(0.0, |&(s, units)| if units > 0.0 { s / units * scale } else { 0.0 })
        };
        let count = |name: &str| self.rec.counts.get(name).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let compiles = count("compile.count");
        let probes = count("compile.cache_hits") + count("compile.cache_misses");
        let runs = self.rec.spans.get("system.executor.run").map_or(0.0, |&(_, n)| n);
        let requests = count("program.requests");
        vec![
            ("serve.cluster.groups_per_request", ratio(count("program.groups"), requests), "count"),
            (
                "system.executor.runs_per_request",
                ratio(count("program.executor_runs"), requests),
                "count",
            ),
            ("serve.kb.fingerprint_ns", per("serve.kb.fingerprint", 1e9), "ns"),
            ("serve.cluster.admit_ns", per("serve.cluster.admit", 1e9), "ns"),
            ("serve.store.lookup_ns", per("serve.store.lookup", 1e9), "ns"),
            ("system.executor.dispatch_us", ratio(count("executor.dispatch_s"), runs) * 1e6, "us"),
            ("pc.dnnf.single_ns_per_edge", per("pc.dnnf.single", 1e9), "ns"),
            ("pc.dnnf.batch_ns_per_edge_lane", per("pc.dnnf.batch", 1e9), "ns"),
            (
                "pc.dnnf.distinct_lane_frac",
                ratio(count("batch.distinct"), count("batch.lanes")),
                "frac",
            ),
            ("pc.dnnf.flatten_us", per("pc.dnnf.flatten", 1e6), "us"),
            ("pc.compile.compile_ms", ratio(count("compile.s"), compiles) * 1e3, "ms"),
            (
                "pc.compile.ns_per_decision",
                ratio(count("compile.s"), count("compile.decisions")) * 1e9,
                "ns",
            ),
            ("pc.compile.decisions", ratio(count("compile.decisions"), compiles), "count"),
            ("pc.compile.propagations", ratio(count("compile.propagations"), compiles), "count"),
            ("pc.compile.component_hit_rate", ratio(count("compile.cache_hits"), probes), "frac"),
            (
                "pc.compile.persistent_hits",
                ratio(count("compile.persistent_hits"), compiles),
                "count",
            ),
            ("pc.compile.propagate_ms", ratio(count("compile.propagate_s"), compiles) * 1e3, "ms"),
            ("pc.compile.split_ms", ratio(count("compile.split_s"), compiles) * 1e3, "ms"),
            ("pc.compile.probe_ms", ratio(count("compile.probe_s"), compiles) * 1e3, "ms"),
        ]
    }

    /// Every recorded span.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.rec.tel.tracer.finished()
    }
}

/// Store metrics over the measured requests of one round: `now` minus
/// the counters set-up left (`base`), summed over shards.
pub fn store_metrics(
    now: &[CacheStats],
    base: &[CacheStats],
) -> Vec<(&'static str, f64, &'static str)> {
    let delta = |f: fn(&CacheStats) -> u64| {
        now.iter().zip(base).map(|(n, b)| f(n) - f(b)).sum::<u64>() as f64
    };
    let (hits, misses) = (delta(|s| s.hits), delta(|s| s.misses));
    let bytes: usize = now.iter().map(|s| s.bytes).sum();
    let entries: usize = now.iter().map(|s| s.entries).sum();
    vec![
        ("serve.store.hit_rate", hits / (hits + misses).max(1.0), "frac"),
        ("serve.store.evictions", delta(|s| s.evictions), "count"),
        ("serve.store.bytes_per_entry", bytes as f64 / entries.max(1) as f64, "bytes"),
    ]
}

/// The executor's form of a serving query.
pub fn serve_query(kind: &QueryKind) -> ServeQuery {
    match kind {
        QueryKind::Wmc => ServeQuery::Wmc,
        QueryKind::Probability(ev) => ServeQuery::Probability(ev.clone()),
        QueryKind::Posterior(ev) => ServeQuery::Posterior(ev.clone()),
        QueryKind::Marginal(ev, var) => ServeQuery::Marginal(ev.clone(), *var),
        QueryKind::Mpe(ev) => ServeQuery::Mpe(ev.clone()),
    }
}
