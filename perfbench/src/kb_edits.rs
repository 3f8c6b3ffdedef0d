//! `kb_edits`: every request edits one of three KBs on one
//! `ServeEngine`, then reads the new revision through `query()`.

use reason_serve::{Answer, KnowledgeBase, Query, QueryKind, Route, ServeError};

use crate::bench::{Answers, Tally, Workload};
use crate::check::{check_not_raised, same_bits};
use crate::engine::{check_properties, check_split_on, engine_with, mirror_of, Mirror, System};
use crate::gen::{Edit, Kb, KbEdits};
use crate::layers::{store_metrics, Replay};

pub struct KbEditsWorkload {
    pub input: KbEdits,
}

/// Applies an edit to a KB's DIMACS clause list: adds append, and a
/// retraction removes the last clause (always the latest addition).
fn apply(clauses: &mut Vec<Vec<i32>>, edit: &Edit) {
    match edit {
        Edit::Add(c) => clauses.push(c.clone()),
        Edit::Retract => {
            clauses.pop();
        }
    }
}

fn edit_kb(kb: &mut KnowledgeBase, edit: &Edit) {
    match edit {
        Edit::Add(c) => kb.add_clause(c),
        Edit::Retract => {
            kb.retract_clause(kb.num_clauses() - 1);
        }
    }
}

fn exact(answer: &Answer) -> Result<f64, String> {
    match answer {
        Answer::Exact(p) => Ok(*p),
        other => Err(format!("expected a probability, got {other:?}")),
    }
}

impl Workload for KbEditsWorkload {
    type System = System;
    type Reply = Vec<Result<Answer, ServeError>>;
    type Mirror = Mirror;

    fn setup(&self) -> System {
        engine_with(&self.input.kbs)
    }

    fn len(&self) -> usize {
        self.input.requests.len()
    }

    fn call(&self, sys: &mut System, i: usize) -> Self::Reply {
        let req = &self.input.requests[i];
        let id = sys.ids[req.kb];
        match &req.edit {
            Edit::Add(c) => sys.engine.add_clause(id, c),
            Edit::Retract => {
                let last = sys.engine.kb(id).num_clauses() - 1;
                sys.engine.retract_clause(id, last);
            }
        }
        req.reads.iter().map(|kind| sys.engine.query(id, kind)).collect()
    }

    fn account(&self, i: usize, reply: Self::Reply, tally: &mut Tally) {
        // The edit plus each read.
        tally.attempted += 1 + reply.len() as u64;
        let mut answers = Vec::with_capacity(reply.len());
        for (k, r) in reply.into_iter().enumerate() {
            match r {
                Ok(a) => answers.push(a),
                Err(e) => {
                    tally.fail(1, || format!("request {i} read {k}: {e}"));
                    answers.push(Answer::Predicted(f64::NAN));
                }
            }
        }
        tally.record(i, answers);
    }

    fn check(&self, sys: &mut System, answers: &Answers) -> Result<(), String> {
        // Walk the round's revisions with the benchmark's own copy of
        // each clause list.
        let mut clauses: Vec<Vec<Vec<i32>>> =
            self.input.kbs.iter().map(|kb| kb.clauses.clone()).collect();
        let mut fresh = engine_with(&self.input.kbs);
        let mut z: Vec<f64> = Vec::new();
        for id in fresh.ids.clone() {
            z.push(exact(&fresh.engine.query(id, &QueryKind::Wmc).map_err(|e| e.to_string())?)?);
        }
        for (i, got) in answers {
            let req = &self.input.requests[*i];
            apply(&mut clauses[req.kb], &req.edit);
            let kb = Kb { clauses: clauses[req.kb].clone(), ..self.input.kbs[req.kb].clone() };
            for (kind, answer) in req.reads.iter().zip(got) {
                check_properties(&kb, kind, answer)?;
            }
            // reads[0] is Pr[φ]: an addition may not raise it, a
            // retraction may not lower it.
            let now = exact(&got[0])?;
            match req.edit {
                Edit::Add(_) => check_not_raised(z[req.kb], now)?,
                Edit::Retract => check_not_raised(now, z[req.kb])?,
            }
            if exact(&got[1])? > now && !crate::check::close(exact(&got[1])?, now) {
                return Err(format!("request {i}: Pr[φ ∧ e] exceeds Pr[φ]"));
            }
            z[req.kb] = now;
        }
        // On the final revisions: the evidence split, and serve() batch
        // lanes bit-identical to query().
        for (kb, &id) in sys.ids.iter().enumerate() {
            let reads: Vec<&QueryKind> = self
                .input
                .requests
                .iter()
                .filter(|r| r.kb == kb)
                .rev()
                .take(8)
                .flat_map(|r| r.reads.iter())
                .collect();
            for (j, kind) in
                reads.iter().enumerate().filter(|(_, k)| matches!(k, QueryKind::Probability(_)))
            {
                let QueryKind::Probability(ev) = kind else { unreachable!() };
                check_split_on(&mut sys.engine, id, ev, j)?;
            }
            let queries: Vec<Query> = reads.iter().map(|&k| Query::exact(k.clone())).collect();
            let report = sys.engine.serve(id, &queries).map_err(|e| e.to_string())?;
            for (kind, o) in reads.iter().zip(&report.outcomes) {
                let single = sys.engine.query(id, kind).map_err(|e| e.to_string())?;
                if o.route != Route::Exact || !same_bits(&single, &o.answer) {
                    return Err(format!(
                        "{kind:?}: served {:?}, query() answers {single:?}",
                        o.answer
                    ));
                }
            }
        }
        Ok(())
    }

    fn mirror(&self, sys: &System, replay: &mut Replay) -> Mirror {
        // The cold set-up compiles are not what this workload's compile
        // metrics describe.
        replay.rec.counting = false;
        let mirror = mirror_of(sys, &self.input.kbs, replay);
        replay.rec.counting = true;
        mirror
    }

    fn replay(&self, sys: &System, m: &mut Mirror, i: usize, replay: &mut Replay) {
        let req = &self.input.requests[i];
        edit_kb(&mut m.kbs[req.kb], &req.edit);
        let kb_refs: Vec<&KnowledgeBase> = req.reads.iter().map(|_| &m.kbs[req.kb]).collect();
        let fps = replay.fingerprints(&kb_refs);
        let model = sys.engine.telemetry(sys.ids[req.kb]);
        let queries: Vec<Query> = req.reads.iter().map(|k| Query::exact(k.clone())).collect();
        let arrivals: Vec<_> = queries.iter().map(|q| (&fps[0], q, model)).collect();
        replay.admit(&m.ring, &arrivals);
        // The first read looks the new revision up; on a miss the engine
        // compiles, flattens and stores it; the other reads hit.
        let art = match replay.lookup(&mut m.store, &[&fps[0]]).remove(0) {
            Some(art) => art,
            None => {
                let compile_s = sys.engine.last_compile_s(sys.ids[req.kb]);
                replay.build(&mut m.kbs[req.kb], &mut m.store, compile_s)
            }
        };
        let rest: Vec<_> = fps[1..].iter().collect();
        replay.lookup(&mut m.store, &rest);
        m.artifacts[req.kb] = art.clone();
        let kinds: Vec<&QueryKind> = req.reads.iter().collect();
        replay.single(&art, &kinds);
        replay.executor(crate::bench::executor_config(), &[(art.clone(), kinds.clone(), None)]);
        replay.batch(&art, &kinds);
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
