//! Output checks, computed apart from the program under test.
//!
//! `tenants` answers are compared with exhaustive enumeration over all
//! `2^n` assignments ([`Enumerator`], cross-checked against
//! `reason_sat::brute::weighted_count` in the tests and at run time).
//! `big_kb` and `kb_edits` are too large to enumerate, so their answers
//! are checked against properties exact inference must have: the
//! evidence split, marginals summing to one, MPE validity, monotonicity
//! under added clauses, and bit-identity of batch lanes with single
//! queries.

use reason_pc::Evidence;
use reason_serve::{Answer, QueryKind};

use crate::gen::Kb;

/// Relative tolerance of a numeric comparison: far below the one part
/// in 10⁶ a wrong answer must show, far above summation-order rounding.
pub const REL_TOL: f64 = 1e-9;

pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_TOL * a.abs().max(b.abs()) + f64::MIN_POSITIVE
}

/// What exhaustive enumeration says a query must answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Expected {
    Value(f64),
    Distribution([f64; 2]),
    /// The largest log-probability of a model extending the evidence.
    MaxLog(f64),
}

/// Brute-force enumeration of one small KB, clauses as bit masks.
pub struct Enumerator {
    n: usize,
    /// `(positive-literal mask, negative-literal mask)` per clause.
    clauses: Vec<(u32, u32)>,
    probs: Vec<f64>,
}

/// The evidence as `(mask, values)` bits.
fn evidence_bits(ev: &Evidence) -> (u32, u32) {
    let mut mask = 0u32;
    let mut vals = 0u32;
    for v in 0..ev.len() {
        if let Some(x) = ev.value(v) {
            mask |= 1 << v;
            vals |= (x as u32) << v;
        }
    }
    (mask, vals)
}

impl Enumerator {
    /// # Panics
    ///
    /// Panics above 24 variables: enumeration would not finish in a run.
    pub fn new(kb: &Kb) -> Self {
        let n = kb.num_vars();
        assert!(n <= 24, "enumeration is limited to 24 variables");
        let clauses = kb
            .clauses
            .iter()
            .map(|c| {
                c.iter().fold((0u32, 0u32), |(pos, neg), &l| {
                    let bit = 1u32 << (l.unsigned_abs() - 1);
                    if l > 0 {
                        (pos | bit, neg)
                    } else {
                        (pos, neg | bit)
                    }
                })
            })
            .collect();
        Enumerator { n, clauses, probs: kb.probs.clone() }
    }

    /// Calls `f(assignment, weight, log weight)` for every model.
    fn for_each_model(&self, mut f: impl FnMut(u32, f64, f64)) {
        for x in 0u32..(1u32 << self.n) {
            if self.clauses.iter().all(|&(pos, neg)| (x & pos) | (!x & neg) != 0) {
                let (mut w, mut lw) = (1.0, 0.0);
                for (v, &p) in self.probs.iter().enumerate() {
                    let q = if x >> v & 1 == 1 { p } else { 1.0 - p };
                    w *= q;
                    lw += q.ln();
                }
                f(x, w, lw);
            }
        }
    }

    /// The weighted model count `Pr[φ]`.
    pub fn mass(&self) -> f64 {
        let mut z = 0.0;
        self.for_each_model(|_, w, _| z += w);
        z
    }

    /// The expected answer of every query in `kinds`, in one pass.
    pub fn expected(&self, kinds: &[QueryKind]) -> Vec<Expected> {
        let empty = Evidence::empty(self.n);
        let (evidence, split): (Vec<(u32, u32)>, Vec<Option<usize>>) = kinds
            .iter()
            .map(|k| match k {
                QueryKind::Wmc => (evidence_bits(&empty), None),
                QueryKind::Probability(ev) | QueryKind::Posterior(ev) | QueryKind::Mpe(ev) => {
                    (evidence_bits(ev), None)
                }
                // A marginal ignores any evidence on its own variable.
                QueryKind::Marginal(ev, var) => {
                    let (mask, vals) = evidence_bits(ev);
                    ((mask & !(1 << var), vals & !(1 << var)), Some(*var))
                }
            })
            .unzip();
        let mut z = 0.0;
        let mut sums = vec![[0.0f64; 2]; kinds.len()];
        let mut max_log = vec![f64::NEG_INFINITY; kinds.len()];
        self.for_each_model(|x, w, lw| {
            z += w;
            for (k, &(mask, vals)) in evidence.iter().enumerate() {
                if x & mask == vals {
                    let side = split[k].map_or(0, |v| (x >> v & 1) as usize);
                    sums[k][side] += w;
                    max_log[k] = max_log[k].max(lw);
                }
            }
        });
        kinds
            .iter()
            .enumerate()
            .map(|(k, kind)| {
                let [s0, s1] = sums[k];
                match kind {
                    QueryKind::Wmc | QueryKind::Probability(_) => Expected::Value(s0),
                    QueryKind::Posterior(_) => Expected::Value(s0 / z),
                    QueryKind::Marginal(..) if s0 + s1 == 0.0 => Expected::Distribution([0.5; 2]),
                    QueryKind::Marginal(..) => {
                        Expected::Distribution([s0 / (s0 + s1), s1 / (s0 + s1)])
                    }
                    QueryKind::Mpe(_) => Expected::MaxLog(max_log[k]),
                }
            })
            .collect()
    }
}

/// The evidence a query conditions on.
pub fn evidence_of(kind: &QueryKind, n: usize) -> Evidence {
    match kind {
        QueryKind::Wmc => Evidence::empty(n),
        QueryKind::Probability(ev)
        | QueryKind::Posterior(ev)
        | QueryKind::Marginal(ev, _)
        | QueryKind::Mpe(ev) => ev.clone(),
    }
}

/// An MPE answer must extend its evidence, satisfy every clause, and
/// carry the log-probability its literals' log weights sum to.
pub fn check_mpe(
    clauses: &[Vec<i32>],
    probs: &[f64],
    ev: &Evidence,
    assignment: &[usize],
    log_prob: f64,
) -> Result<(), String> {
    if assignment.len() != probs.len() || assignment.iter().any(|&x| x > 1) {
        return Err(format!("MPE assignment {assignment:?} is not a complete 0/1 assignment"));
    }
    if let Some(v) = (0..ev.len()).find(|&v| ev.value(v).is_some_and(|x| x != assignment[v])) {
        return Err(format!("MPE assignment contradicts the evidence on variable {v}"));
    }
    if let Some(c) = clauses
        .iter()
        .find(|c| !c.iter().any(|&l| (l > 0) == (assignment[l.unsigned_abs() as usize - 1] == 1)))
    {
        return Err(format!("MPE assignment falsifies clause {c:?}"));
    }
    let sum: f64 = probs
        .iter()
        .zip(assignment)
        .map(|(&p, &x)| if x == 1 { p.ln() } else { (1.0 - p).ln() })
        .sum();
    if !close(sum, log_prob) {
        return Err(format!("MPE log-probability {log_prob} but its literals sum to {sum}"));
    }
    Ok(())
}

/// Checks one answer against enumeration.
pub fn check_expected(
    kb: &Kb,
    kind: &QueryKind,
    answer: &Answer,
    expected: &Expected,
) -> Result<(), String> {
    match (answer, expected) {
        (Answer::Exact(got), Expected::Value(want)) if close(*got, *want) => Ok(()),
        (Answer::Distribution(got), Expected::Distribution(want))
            if got.len() == 2 && close(got[0], want[0]) && close(got[1], want[1]) =>
        {
            Ok(())
        }
        (Answer::Assignment { assignment, log_prob }, Expected::MaxLog(max)) => {
            let ev = evidence_of(kind, kb.num_vars());
            check_mpe(&kb.clauses, &kb.probs, &ev, assignment, *log_prob)?;
            if close(*log_prob, *max) {
                Ok(())
            } else {
                Err(format!("MPE log-probability {log_prob}, enumeration finds {max}"))
            }
        }
        _ => Err(format!("{}: answered {answer:?}, enumeration says {expected:?}", kb.name)),
    }
}

/// `Pr[e] = Pr[e, x=0] + Pr[e, x=1]`.
pub fn check_split(p: f64, p0: f64, p1: f64) -> Result<(), String> {
    if close(p, p0 + p1) {
        Ok(())
    } else {
        Err(format!("Pr[e] = {p} but Pr[e,x=0] + Pr[e,x=1] = {p0} + {p1}"))
    }
}

/// A distribution over one binary variable sums to one.
pub fn check_sums_to_one(dist: &[f64]) -> Result<(), String> {
    let sum: f64 = dist.iter().sum();
    if dist.len() == 2 && close(sum, 1.0) && dist.iter().all(|&p| (0.0..=1.0).contains(&p)) {
        Ok(())
    } else {
        Err(format!("marginal {dist:?} does not sum to 1"))
    }
}

/// Adding a clause removes models, so it never raises a probability.
pub fn check_not_raised(before: f64, after: f64) -> Result<(), String> {
    if after <= before || close(after, before) {
        Ok(())
    } else {
        Err(format!("adding a clause raised a probability from {before} to {after}"))
    }
}

/// Bit-for-bit equality of two answers.
pub fn same_bits(a: &Answer, b: &Answer) -> bool {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    match (a, b) {
        (Answer::Exact(x), Answer::Exact(y)) => x.to_bits() == y.to_bits(),
        (Answer::Distribution(x), Answer::Distribution(y)) => bits(x) == bits(y),
        (
            Answer::Assignment { assignment: x, log_prob: lx },
            Answer::Assignment { assignment: y, log_prob: ly },
        ) => x == y && lx.to_bits() == ly.to_bits(),
        _ => false,
    }
}

/// Folds an answer's bits into a running FNV-1a hash: rounds of one
/// run must hash alike, since they repeat the same queries.
pub fn hash_answer(h: &mut u64, answer: &Answer) {
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    match answer {
        Answer::Exact(x) | Answer::Predicted(x) => eat(x.to_bits()),
        Answer::Distribution(d) => d.iter().for_each(|x| eat(x.to_bits())),
        Answer::Assignment { assignment, log_prob } => {
            assignment.iter().for_each(|&x| eat(x as u64));
            eat(log_prob.to_bits());
        }
        Answer::Bounds { estimate, lower, upper } => {
            [estimate, lower, upper].iter().for_each(|x| eat(x.to_bits()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{planted_kb, Rng};

    fn small_kb(seed: u64) -> Kb {
        planted_kb("t".into(), 10, 30, &mut Rng::new(seed))
    }

    #[test]
    fn enumeration_matches_the_reference_weighted_count() {
        for seed in 0..5 {
            let kb = small_kb(seed);
            let want = reason_sat::brute::weighted_count(&kb.cnf(), &kb.probs);
            assert!(close(Enumerator::new(&kb).mass(), want));
        }
    }

    #[test]
    fn enumeration_answers_every_kind() {
        let kb = small_kb(7);
        let mut ev = Evidence::empty(10);
        ev.set(2, usize::from(kb.planted[2]));
        let kinds = vec![
            QueryKind::Wmc,
            QueryKind::Probability(ev.clone()),
            QueryKind::Posterior(ev.clone()),
            QueryKind::Marginal(ev.clone(), 4),
            QueryKind::Mpe(ev.clone()),
        ];
        let got = Enumerator::new(&kb).expected(&kinds);
        let mut cnf = kb.cnf();
        cnf.add_dimacs_clause(&[if kb.planted[2] { 3 } else { -3 }]);
        let joint = reason_sat::brute::weighted_count(&cnf, &kb.probs);
        let z = reason_sat::brute::weighted_count(&kb.cnf(), &kb.probs);
        assert!(close(got_value(&got[0]), z));
        assert!(close(got_value(&got[1]), joint));
        assert!(close(got_value(&got[2]), joint / z));
        let Expected::Distribution(d) = got[3] else { panic!("marginal") };
        assert!(check_sums_to_one(&d).is_ok());
        let Expected::MaxLog(max) = got[4] else { panic!("mpe") };
        let planted: Vec<usize> = kb.planted.iter().map(|&b| usize::from(b)).collect();
        let planted_log: f64 = kb
            .probs
            .iter()
            .zip(&planted)
            .map(|(&p, &x)| if x == 1 { p.ln() } else { (1.0 - p).ln() })
            .sum();
        assert!(max >= planted_log, "the planted model extends the evidence");
    }

    fn got_value(e: &Expected) -> f64 {
        match e {
            Expected::Value(v) => *v,
            other => panic!("not a value: {other:?}"),
        }
    }

    #[test]
    fn checks_reject_an_answer_off_by_one_part_in_a_million() {
        let kb = small_kb(3);
        let kinds = vec![QueryKind::Wmc, QueryKind::Marginal(Evidence::empty(10), 1)];
        let want = Enumerator::new(&kb).expected(&kinds);
        let z = got_value(&want[0]);
        assert!(check_expected(&kb, &kinds[0], &Answer::Exact(z), &want[0]).is_ok());
        let off = Answer::Exact(z * (1.0 + 1e-6));
        assert!(check_expected(&kb, &kinds[0], &off, &want[0]).is_err());
        let Expected::Distribution([d0, d1]) = want[1] else { panic!("marginal") };
        let off = Answer::Distribution(vec![d0 * (1.0 + 1e-6), d1]);
        assert!(check_expected(&kb, &kinds[1], &off, &want[1]).is_err());
        assert!(check_split(z, z * 0.25, z * 0.75 * (1.0 + 1e-6)).is_err());
        assert!(check_split(z, z * 0.25, z * 0.75).is_ok());
        assert!(check_sums_to_one(&[0.25, 0.75 * (1.0 + 1e-6)]).is_err());
        assert!(check_not_raised(z, z * (1.0 + 1e-6)).is_err());
        assert!(check_not_raised(z, z * (1.0 - 1e-6)).is_ok());
    }

    #[test]
    fn checks_reject_an_mpe_assignment_with_one_bit_flipped() {
        let kb = small_kb(11);
        let ev = Evidence::empty(10);
        let kind = QueryKind::Mpe(ev.clone());
        let want = Enumerator::new(&kb).expected(std::slice::from_ref(&kind));
        // Find a maximizer by enumeration, then flip each bit in turn.
        let en = Enumerator::new(&kb);
        let mut best = (0u32, f64::NEG_INFINITY);
        en.for_each_model(|x, _, lw| {
            if lw > best.1 {
                best = (x, lw);
            }
        });
        let assignment: Vec<usize> = (0..10).map(|v| (best.0 >> v & 1) as usize).collect();
        let answer = Answer::Assignment { assignment: assignment.clone(), log_prob: best.1 };
        assert!(check_expected(&kb, &kind, &answer, &want[0]).is_ok());
        for v in 0..10 {
            let mut flipped = assignment.clone();
            flipped[v] ^= 1;
            let answer = Answer::Assignment { assignment: flipped, log_prob: best.1 };
            assert!(check_expected(&kb, &kind, &answer, &want[0]).is_err(), "bit {v}");
        }
    }

    #[test]
    fn bit_identity_sees_the_last_bit() {
        let a = Answer::Exact(0.1);
        let b = Answer::Exact(f64::from_bits(0.1f64.to_bits() + 1));
        assert!(same_bits(&a, &a.clone()));
        assert!(!same_bits(&a, &b));
        let (mut ha, mut hb) = (0u64, 0u64);
        hash_answer(&mut ha, &a);
        hash_answer(&mut hb, &b);
        assert_ne!(ha, hb);
    }
}
