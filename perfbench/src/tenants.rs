//! `tenants`: many small KBs behind a 2-shard `ServeCluster`; one
//! request is one `serve_at` window of arrivals.

use std::collections::BTreeMap;
use std::time::Duration;

use reason_serve::{
    Admission, Answer, CacheStats, CircuitStore, ClusterConfig, ClusterKbId, ClusterReport,
    HashRing, KbTelemetry, KnowledgeBase, Query, QueryKind, Route, ServeCluster, ServeConfig,
    ServeError, StoreConfig,
};

use crate::bench::{executor_config, Answers, Tally, Workload};
use crate::check::{check_expected, close, same_bits, Enumerator};
use crate::gen::Tenants;
use crate::layers::{store_metrics, Artifact, Replay};

/// Virtual seconds between arrivals: longer than any admitted query's
/// modeled cost, so no arrival ever queues behind another and admission
/// admits every one exact.
pub const ARRIVAL_SPACING_S: f64 = 1e-4;
/// Virtual time of the first measured arrival: past the modeled
/// compile backlog the set-up's warm arrivals leave.
pub const FIRST_ARRIVAL_S: f64 = 1.0;

pub struct TenantsWorkload {
    pub input: Tenants,
}

pub struct System {
    cluster: ServeCluster,
    ids: Vec<ClusterKbId>,
    /// Store counters when set-up ended.
    base: Vec<CacheStats>,
}

pub struct Mirror {
    kbs: Vec<KnowledgeBase>,
    store: CircuitStore,
    artifacts: Vec<Artifact>,
    ring: HashRing,
    models: Vec<KbTelemetry>,
}

fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        engine: ServeConfig { executor: executor_config(), ..ServeConfig::default() },
        ..ClusterConfig::default()
    }
}

impl TenantsWorkload {
    fn query(&self, tenant: usize, shape: usize, deadline: Option<Duration>) -> Query {
        Query { kind: self.input.tenants[tenant].shapes[shape].clone(), deadline }
    }
}

/// An arrival counts as failed unless admission admitted it exact and
/// it came back answered.
pub fn arrival_failed(decision: &Admission, answer: Option<&Answer>) -> bool {
    !matches!(decision, Admission::Admit(Route::Exact)) || answer.is_none()
}

impl Workload for TenantsWorkload {
    type System = System;
    type Reply = Result<ClusterReport, ServeError>;
    type Mirror = Mirror;

    fn setup(&self) -> System {
        let mut cluster = ServeCluster::new(cluster_config());
        let ids: Vec<ClusterKbId> = self
            .input
            .tenants
            .iter()
            .map(|t| cluster.register(t.kb.name.clone(), &t.kb.cnf(), t.kb.weights()))
            .collect();
        // One deadline-free arrival per tenant compiles it on its shard
        // and marks it compiled in admission's cost model.
        let warm: Vec<(ClusterKbId, Query, f64)> =
            ids.iter().map(|&id| (id, Query::exact(QueryKind::Wmc), 0.0)).collect();
        cluster.serve_at(&warm).expect("planted tenants carry mass");
        let base = cluster.engines().iter().map(|e| e.store_stats()).collect();
        System { cluster, ids, base }
    }

    fn len(&self) -> usize {
        self.input.windows.len()
    }

    fn call(&self, sys: &mut System, i: usize) -> Self::Reply {
        let arrivals: Vec<(ClusterKbId, Query, f64)> = self.input.windows[i]
            .iter()
            .enumerate()
            .map(|(k, a)| {
                let t = FIRST_ARRIVAL_S + (self.input.offsets[i] + k) as f64 * ARRIVAL_SPACING_S;
                (sys.ids[a.tenant], self.query(a.tenant, a.shape, a.deadline), t)
            })
            .collect();
        sys.cluster.serve_at(&arrivals)
    }

    fn account(&self, i: usize, reply: Self::Reply, tally: &mut Tally) {
        let window = &self.input.windows[i];
        tally.attempted += window.len() as u64;
        match reply {
            Err(e) => tally.fail(window.len() as u64, || format!("window {i}: {e}")),
            Ok(report) => {
                let mut answers = Vec::with_capacity(window.len());
                for (k, o) in report.outcomes.into_iter().enumerate() {
                    if arrival_failed(&o.decision, o.answer.as_ref()) {
                        tally.fail(1, || {
                            format!("window {i} arrival {k}: {:?} ({})", o.decision, o.reason)
                        });
                    }
                    answers.push(o.answer.unwrap_or(Answer::Predicted(f64::NAN)));
                }
                tally.record(i, answers);
            }
        }
    }

    fn check(&self, _sys: &mut System, answers: &Answers) -> Result<(), String> {
        // Every answer of a (tenant, shape) pair must be bit-identical;
        // the first is then compared with enumeration.
        let mut seen: BTreeMap<(usize, usize), &Answer> = BTreeMap::new();
        for (i, window_answers) in answers {
            for (a, answer) in self.input.windows[*i].iter().zip(window_answers) {
                let first = seen.entry((a.tenant, a.shape)).or_insert(answer);
                if !same_bits(first, answer) {
                    return Err(format!(
                        "tenant {} shape {} answered {first:?} and {answer:?}",
                        a.tenant, a.shape
                    ));
                }
            }
        }
        for (t, tenant) in self.input.tenants.iter().enumerate() {
            let pairs: Vec<(usize, &Answer)> =
                seen.range((t, 0)..(t + 1, 0)).map(|(&(_, s), a)| (s, *a)).collect();
            if pairs.is_empty() {
                continue;
            }
            let en = Enumerator::new(&tenant.kb);
            let kinds: Vec<QueryKind> =
                pairs.iter().map(|&(s, _)| tenant.shapes[s].clone()).collect();
            let expected = en.expected(&kinds);
            for ((kind, (_, answer)), want) in kinds.iter().zip(&pairs).zip(&expected) {
                check_expected(&tenant.kb, kind, answer, want)?;
            }
            // The enumerator itself against the reference brute force.
            if tenant.kb.num_vars() <= 12 {
                let want = reason_sat::brute::weighted_count(&tenant.kb.cnf(), &tenant.kb.probs);
                if !close(en.mass(), want) {
                    return Err(format!(
                        "{}: enumeration disagrees with weighted_count",
                        tenant.kb.name
                    ));
                }
            }
        }
        Ok(())
    }

    fn mirror(&self, sys: &System, replay: &mut Replay) -> Mirror {
        let mut store = CircuitStore::new(StoreConfig::default());
        let mut kbs: Vec<KnowledgeBase> = self
            .input
            .tenants
            .iter()
            .map(|t| KnowledgeBase::new(t.kb.name.clone(), &t.kb.cnf(), t.kb.weights()))
            .collect();
        let artifacts = kbs.iter_mut().map(|kb| replay.build(kb, &mut store, 0.0)).collect();
        Mirror {
            kbs,
            store,
            artifacts,
            ring: sys.cluster.ring().clone(),
            models: sys.cluster.kb_models().into_iter().map(|(_, _, m)| m).collect(),
        }
    }

    fn replay(&self, _sys: &System, m: &mut Mirror, i: usize, replay: &mut Replay) {
        let window = &self.input.windows[i];
        let queries: Vec<Query> =
            window.iter().map(|a| self.query(a.tenant, a.shape, a.deadline)).collect();
        let kbs: Vec<&KnowledgeBase> = window.iter().map(|a| &m.kbs[a.tenant]).collect();
        let fps = replay.fingerprints(&kbs);
        let arrivals: Vec<_> = window
            .iter()
            .zip(&fps)
            .zip(&queries)
            .map(|((a, fp), q)| (fp, q, m.models[a.tenant]))
            .collect();
        replay.admit(&m.ring, &arrivals);
        // The cluster groups admitted arrivals per KB, in arrival order.
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (k, a) in window.iter().enumerate() {
            match groups.iter_mut().find(|(t, _)| *t == a.tenant) {
                Some((_, members)) => members.push(k),
                None => groups.push((a.tenant, vec![k])),
            }
        }
        let keys: Vec<_> = groups.iter().map(|(_, members)| &fps[members[0]]).collect();
        replay.lookup(&mut m.store, &keys);
        let batches: Vec<(Artifact, Vec<&QueryKind>, Option<Duration>)> = groups
            .iter()
            .map(|(t, members)| {
                let kinds = members.iter().map(|&k| &queries[k].kind).collect();
                let deadline = members.iter().filter_map(|&k| queries[k].deadline).min();
                (m.artifacts[*t].clone(), kinds, deadline)
            })
            .collect();
        replay.executor(executor_config(), &batches);
        for (art, kinds, _) in &batches {
            replay.batch(art, kinds);
        }
        for (a, q) in window.iter().zip(&queries) {
            replay.single(&m.artifacts[a.tenant], &[&q.kind]);
        }
        replay.rec.count("program.groups", groups.len() as f64);
        replay.rec.count("program.executor_runs", groups.len() as f64);
        replay.rec.count("program.requests", 1.0);
    }

    fn round_metrics(&self, sys: &System, m: &Mirror) -> Vec<(&'static str, f64, &'static str)> {
        let now: Vec<CacheStats> = sys.cluster.engines().iter().map(|e| e.store_stats()).collect();
        let mut metrics = store_metrics(&now, &sys.base);
        let cache: usize = m.kbs.iter().map(|kb| kb.component_cache().bytes()).sum();
        metrics.push(("pc.compile.persistent_cache_mb", cache as f64 / (1u64 << 20) as f64, "MiB"));
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reason_serve::{ClusterOutcome, StageBreakdown};

    fn outcome(decision: Admission, answer: Option<Answer>) -> ClusterOutcome {
        ClusterOutcome {
            shard: 0,
            decision,
            reason: "test",
            answer,
            modeled_latency_s: 0.0,
            stage: StageBreakdown::default(),
            deadline_miss: false,
            latency_s: 0.0,
            attempts: 1,
            failover: false,
            degraded_by_fault: false,
        }
    }

    #[test]
    fn a_rejected_or_degraded_arrival_counts_as_failed() {
        let w = TenantsWorkload { input: crate::gen::tenants(1) };
        let arrivals = w.input.windows[0].len();
        let mut outcomes: Vec<ClusterOutcome> = (0..arrivals)
            .map(|_| outcome(Admission::Admit(Route::Exact), Some(Answer::Exact(0.5))))
            .collect();
        outcomes[3] = outcome(Admission::Reject { backlog_s: 1e-3 }, None);
        outcomes[7] = outcome(Admission::Admit(Route::Predicted), Some(Answer::Predicted(0.5)));
        let report = ClusterReport { outcomes, stats: Default::default() };
        let mut tally = Tally::default();
        w.account(0, Ok(report), &mut tally);
        assert_eq!((tally.attempted, tally.failed), (arrivals as u64, 2));
        let mut tally = Tally::default();
        w.account(1, Err(ServeError::Internal("test")), &mut tally);
        assert_eq!(tally.failed, w.input.windows[1].len() as u64);
    }
}
