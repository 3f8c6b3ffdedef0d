//! One `ServeEngine` holding a fixed set of KBs — the system under test
//! of `big_kb` and `kb_edits` — with its replay copies and the property
//! checks both workloads share.

use reason_pc::Evidence;
use reason_serve::{
    Answer, CacheStats, CircuitStore, HashRing, KbId, KnowledgeBase, QueryKind, ServeConfig,
    ServeEngine, StoreConfig,
};

use crate::bench::executor_config;
use crate::check::{check_mpe, check_split, check_sums_to_one};
use crate::gen::Kb;
use crate::layers::{Artifact, Replay};

pub struct System {
    pub engine: ServeEngine,
    pub ids: Vec<KbId>,
    pub base: CacheStats,
}

pub struct Mirror {
    pub kbs: Vec<KnowledgeBase>,
    pub store: CircuitStore,
    pub artifacts: Vec<Artifact>,
    pub ring: HashRing,
}

/// One engine holding the given KBs, each warm-compiled.
pub fn engine_with(kbs: &[Kb]) -> System {
    let mut engine =
        ServeEngine::new(ServeConfig { executor: executor_config(), ..ServeConfig::default() });
    let ids: Vec<KbId> = kbs
        .iter()
        .map(|kb| {
            let id = engine.register(kb.name.clone(), &kb.cnf(), kb.weights());
            engine.warm(id).expect("planted knowledge bases carry mass");
            id
        })
        .collect();
    let base = engine.store_stats();
    System { engine, ids, base }
}

/// Replay copies of an engine's KBs, compiled and stored. Each stored
/// artifact carries the compile seconds the engine measured for it, so
/// the cost-aware eviction of the replay's store picks the victims the
/// engine's store picks.
pub fn mirror_of(sys: &System, kbs: &[Kb], replay: &mut Replay) -> Mirror {
    let mut store = CircuitStore::new(StoreConfig::default());
    let mut mirrors: Vec<KnowledgeBase> =
        kbs.iter().map(|kb| KnowledgeBase::new(kb.name.clone(), &kb.cnf(), kb.weights())).collect();
    let artifacts = mirrors
        .iter_mut()
        .zip(&sys.ids)
        .map(|(kb, &id)| replay.build(kb, &mut store, sys.engine.last_compile_s(id)))
        .collect();
    let c = reason_serve::ClusterConfig::default();
    Mirror { kbs: mirrors, store, artifacts, ring: HashRing::new(c.shards, c.replicas, c.salt) }
}

/// The properties of one answer that need no reference value.
pub fn check_properties(kb: &Kb, kind: &QueryKind, answer: &Answer) -> Result<(), String> {
    match (kind, answer) {
        (QueryKind::Marginal(..), Answer::Distribution(d)) => check_sums_to_one(d),
        (QueryKind::Mpe(ev), Answer::Assignment { assignment, log_prob }) => {
            check_mpe(&kb.clauses, &kb.probs, ev, assignment, *log_prob)
        }
        (
            QueryKind::Wmc | QueryKind::Probability(_) | QueryKind::Posterior(_),
            Answer::Exact(p),
        ) if (0.0..=1.0).contains(p) => Ok(()),
        _ => Err(format!("{}: {kind:?} answered {answer:?}", kb.name)),
    }
}

/// `Pr[e] = Pr[e, x=0] + Pr[e, x=1]` through `query()` for the first
/// variable `x` outside `e` at or after `start`.
pub fn check_split_on(
    engine: &mut ServeEngine,
    id: KbId,
    ev: &Evidence,
    start: usize,
) -> Result<(), String> {
    let n = ev.len();
    let Some(x) = (0..n).map(|k| (start + k) % n).find(|&v| ev.value(v).is_none()) else {
        return Ok(());
    };
    let mut prob = |e: &Evidence| match engine.query(id, &QueryKind::Probability(e.clone())) {
        Ok(Answer::Exact(p)) => Ok(p),
        other => Err(format!("split query answered {other:?}")),
    };
    let p = prob(ev)?;
    let (mut e0, mut e1) = (ev.clone(), ev.clone());
    e0.set(x, 0);
    e1.set(x, 1);
    check_split(p, prob(&e0)?, prob(&e1)?)
}
