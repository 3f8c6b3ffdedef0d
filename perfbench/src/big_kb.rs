//! `big_kb`: four large KBs on one `ServeEngine`; single `query()`
//! calls beside 128-lane `serve` batches.

use std::collections::BTreeMap;

use reason_pc::Evidence;
use reason_serve::{Answer, Query, QueryKind, Route, ServeEngine, ServeError, ServeReport};

use crate::bench::{executor_config, Answers, Tally, Workload};
use crate::check::{check_not_raised, evidence_of, same_bits};
use crate::engine::{check_properties, check_split_on, engine_with, mirror_of, Mirror, System};
use crate::gen::{planted_clause, BigKb, BigRequest, Rng};
use crate::layers::{store_metrics, Replay};

pub struct BigKbWorkload {
    pub input: BigKb,
}

pub enum Reply {
    Single(Result<Answer, ServeError>),
    Batch(Result<ServeReport, ServeError>),
}

/// A hashable identity of a query: kind, evidence codes, variable.
type QueryKey = (u8, Vec<u8>, usize);

pub fn query_key(kind: &QueryKind) -> QueryKey {
    let ev = |e: &Evidence| (0..e.len()).map(|v| e.value(v).map_or(2, |x| x as u8)).collect();
    match kind {
        QueryKind::Wmc => (0, Vec::new(), 0),
        QueryKind::Probability(e) => (1, ev(e), 0),
        QueryKind::Posterior(e) => (2, ev(e), 0),
        QueryKind::Marginal(e, var) => (3, ev(e), *var),
        QueryKind::Mpe(e) => (4, ev(e), 0),
    }
}

impl Workload for BigKbWorkload {
    type System = System;
    type Reply = Reply;
    type Mirror = Mirror;

    fn setup(&self) -> System {
        engine_with(&self.input.kbs)
    }

    fn len(&self) -> usize {
        self.input.requests.len()
    }

    fn call(&self, sys: &mut System, i: usize) -> Reply {
        match &self.input.requests[i] {
            BigRequest::Single { kb, kind } => Reply::Single(sys.engine.query(sys.ids[*kb], kind)),
            BigRequest::Batch { kb, kinds } => {
                let queries: Vec<Query> = kinds.iter().map(|k| Query::exact(k.clone())).collect();
                Reply::Batch(sys.engine.serve(sys.ids[*kb], &queries))
            }
        }
    }

    fn account(&self, i: usize, reply: Reply, tally: &mut Tally) {
        match reply {
            Reply::Single(result) => {
                tally.attempted += 1;
                match result {
                    Ok(answer) => tally.record(i, vec![answer]),
                    Err(e) => tally.fail(1, || format!("request {i}: {e}")),
                }
            }
            Reply::Batch(result) => {
                let BigRequest::Batch { kinds, .. } = &self.input.requests[i] else {
                    unreachable!("batch replies answer batch requests")
                };
                tally.attempted += kinds.len() as u64;
                match result {
                    Err(e) => tally.fail(kinds.len() as u64, || format!("request {i}: {e}")),
                    Ok(report) => {
                        let mut answers = Vec::with_capacity(kinds.len());
                        for (k, o) in report.outcomes.into_iter().enumerate() {
                            if o.route != Route::Exact {
                                tally.fail(1, || {
                                    format!("request {i} lane {k} routed {:?}", o.route)
                                });
                            }
                            answers.push(o.answer);
                        }
                        tally.record(i, answers);
                    }
                }
            }
        }
    }

    fn check(&self, sys: &mut System, answers: &Answers) -> Result<(), String> {
        // Every answer to one query, single or batch lane, is bit-identical
        // and passes the property checks.
        let mut seen: BTreeMap<(usize, QueryKey), (&QueryKind, &Answer)> = BTreeMap::new();
        for (i, got) in answers {
            let (kb, kinds): (usize, Vec<&QueryKind>) = match &self.input.requests[*i] {
                BigRequest::Single { kb, kind } => (*kb, vec![kind]),
                BigRequest::Batch { kb, kinds } => (*kb, kinds.iter().collect()),
            };
            for (kind, answer) in kinds.into_iter().zip(got) {
                let first = seen.entry((kb, query_key(kind))).or_insert((kind, answer)).1;
                if !same_bits(first, answer) {
                    return Err(format!("{kind:?} on KB {kb} answered {first:?} and {answer:?}"));
                }
            }
        }
        for (&(kb, _), &(kind, answer)) in &seen {
            check_properties(&self.input.kbs[kb], kind, answer)?;
            // A batch lane must equal the single-query path bit for bit.
            let single = sys.engine.query(sys.ids[kb], kind).map_err(|e| e.to_string())?;
            if !same_bits(&single, answer) {
                return Err(format!("{kind:?}: served {answer:?}, query() answers {single:?}"));
            }
        }
        for (kb, &id) in sys.ids.iter().enumerate() {
            let n = self.input.kbs[kb].num_vars();
            let range = (kb, (0, Vec::new(), 0))..(kb + 1, (0, Vec::new(), 0));
            for (j, (_, &(kind, _))) in seen.range(range).take(8).enumerate() {
                check_split_on(&mut sys.engine, id, &evidence_of(kind, n), j * 5)?;
            }
        }
        // Adding a clause never raises the weighted model count.
        let (id, kb) = (sys.ids[0], &self.input.kbs[0]);
        let z = |engine: &mut ServeEngine| match engine.query(id, &QueryKind::Wmc) {
            Ok(Answer::Exact(z)) => Ok(z),
            other => Err(format!("Pr[φ] answered {other:?}")),
        };
        let before = z(&mut sys.engine)?;
        sys.engine.add_clause(id, &planted_clause(&mut Rng::new(1), &kb.planted));
        check_not_raised(before, z(&mut sys.engine)?)
    }

    fn mirror(&self, sys: &System, replay: &mut Replay) -> Mirror {
        mirror_of(sys, &self.input.kbs, replay)
    }

    fn replay(&self, sys: &System, m: &mut Mirror, i: usize, replay: &mut Replay) {
        let (kb, kinds): (usize, Vec<&QueryKind>) = match &self.input.requests[i] {
            BigRequest::Single { kb, kind } => (*kb, vec![kind]),
            BigRequest::Batch { kb, kinds } => (*kb, kinds.iter().collect()),
        };
        let fps = replay.fingerprints(&[&m.kbs[kb]]);
        let model = sys.engine.telemetry(sys.ids[kb]);
        let queries: Vec<Query> = kinds.iter().map(|&k| Query::exact(k.clone())).collect();
        let arrivals: Vec<_> = queries.iter().map(|q| (&fps[0], q, model)).collect();
        replay.admit(&m.ring, &arrivals);
        replay.lookup(&mut m.store, &[&fps[0]]);
        let art = m.artifacts[kb].clone();
        if kinds.len() == 1 {
            replay.single(&art, &kinds);
        } else {
            replay.executor(executor_config(), &[(art.clone(), kinds.clone(), None)]);
            replay.batch(&art, &kinds);
            replay.rec.count("program.executor_runs", 1.0);
        }
        replay.rec.count("program.groups", 1.0);
        replay.rec.count("program.requests", 1.0);
    }

    fn round_metrics(&self, sys: &System, _m: &Mirror) -> Vec<(&'static str, f64, &'static str)> {
        let mut metrics = store_metrics(&[sys.engine.store_stats()], &[sys.base]);
        let cache: usize =
            sys.ids.iter().map(|&id| sys.engine.kb(id).component_cache().bytes()).sum();
        metrics.push(("pc.compile.persistent_cache_mb", cache as f64 / (1u64 << 20) as f64, "MiB"));
        metrics
    }
}
