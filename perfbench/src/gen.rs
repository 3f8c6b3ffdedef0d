//! Seeded input generation.
//!
//! Every input of a run is a function of the workload seed, drawn from
//! the benchmark's own SplitMix64 stream so that a change to the
//! repository's `rand` shim never changes what is measured. Every
//! knowledge base is a planted random 3-SAT formula: the generator
//! keeps an assignment that satisfies every clause, draws evidence from
//! it (so no query conditions on an impossible event) and, in
//! `kb_edits`, draws added clauses that it satisfies too (so no
//! revision loses all mass).
//!
//! The knowledge bases are a fixed population: compiled size varies by
//! ±30% between random instances of one shape, which would swamp
//! run-to-run comparisons, so their instance seeds are constants and the
//! run seed varies the traffic (evidence, query shapes, order,
//! deadlines, edits).

use std::time::Duration;

use reason_pc::{Evidence, WmcWeights};
use reason_sat::Cnf;
use reason_serve::QueryKind;

use crate::check::Enumerator;

/// SplitMix64: small, fast, and fully specified here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// A planted knowledge base: DIMACS clauses, per-variable marginals and
/// the satisfying assignment the clauses were drawn around.
#[derive(Debug, Clone, PartialEq)]
pub struct Kb {
    pub name: String,
    pub clauses: Vec<Vec<i32>>,
    pub probs: Vec<f64>,
    pub planted: Vec<bool>,
}

impl Kb {
    pub fn num_vars(&self) -> usize {
        self.probs.len()
    }

    pub fn cnf(&self) -> Cnf {
        Cnf::from_clauses(self.num_vars(), self.clauses.clone())
    }

    pub fn weights(&self) -> WmcWeights {
        WmcWeights::new(self.probs.clone())
    }

    /// Evidence fixing `vars` to their planted values.
    fn planted_evidence(&self, vars: &[usize]) -> Evidence {
        let mut ev = Evidence::empty(self.num_vars());
        for &v in vars {
            ev.set(v, usize::from(self.planted[v]));
        }
        ev
    }
}

/// A 3-clause over distinct variables with random signs, redrawn until
/// `planted` satisfies it.
pub fn planted_clause(rng: &mut Rng, planted: &[bool]) -> Vec<i32> {
    let n = planted.len();
    loop {
        let mut vars: Vec<usize> = Vec::with_capacity(3);
        while vars.len() < 3 {
            let v = rng.below(n);
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        let clause: Vec<i32> = vars
            .iter()
            .map(|&v| if rng.chance(0.5) { v as i32 + 1 } else { -(v as i32 + 1) })
            .collect();
        if clause.iter().any(|&l| (l > 0) == planted[l.unsigned_abs() as usize - 1]) {
            return clause;
        }
    }
}

/// A planted random 3-SAT KB with `m` clauses over `n` variables and
/// marginals in `[0.3, 0.7]`.
pub fn planted_kb(name: String, n: usize, m: usize, rng: &mut Rng) -> Kb {
    let planted: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
    let clauses = (0..m).map(|_| planted_clause(rng, &planted)).collect();
    let probs = (0..n).map(|_| 0.3 + 0.4 * rng.unit()).collect();
    Kb { name, clauses, probs, planted }
}

/// `count` distinct variables of `0..n`.
fn distinct_vars(rng: &mut Rng, n: usize, count: usize) -> Vec<usize> {
    let mut vars: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut vars);
    vars.truncate(count);
    vars
}

// ---------------------------------------------------------------- tenants

pub const TENANTS: usize = 48;
pub const SHAPES: usize = 8;
/// Arrivals in an ordinary window and in a burst window.
pub const WINDOW_ARRIVALS: usize = 8;
pub const BURST_ARRIVALS: usize = 96;
pub const WINDOWS_PER_ROUND: usize = 1200;
pub const BURSTS_PER_ROUND: usize = 120;
/// Tenants are probed until their weighted model count clears this.
pub const TENANT_MIN_MASS: f64 = 1e-4;

pub struct Tenant {
    pub kb: Kb,
    pub shapes: Vec<QueryKind>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub tenant: usize,
    pub shape: usize,
    pub deadline: Option<Duration>,
}

pub struct Tenants {
    pub tenants: Vec<Tenant>,
    /// One request = one `serve_at` window of arrivals.
    pub windows: Vec<Vec<Arrival>>,
    /// Arrivals before each window in the round (its first arrival's
    /// index).
    pub offsets: Vec<usize>,
}

/// The eight query shapes of one tenant, in popularity order.
fn tenant_shapes(kb: &Kb, rng: &mut Rng) -> Vec<QueryKind> {
    let n = kb.num_vars();
    let ev = |count: usize, rng: &mut Rng| kb.planted_evidence(&distinct_vars(rng, n, count));
    vec![
        QueryKind::Wmc,
        QueryKind::Probability(ev(1, rng)),
        QueryKind::Posterior(ev(1, rng)),
        QueryKind::Probability(ev(2, rng)),
        QueryKind::Marginal(ev(1, rng), rng.below(n)),
        QueryKind::Mpe(ev(1, rng)),
        QueryKind::Posterior(ev(2, rng)),
        QueryKind::Marginal(Evidence::empty(n), rng.below(n)),
    ]
}

/// 48 tenants, tenant of popularity rank `r` with `n = 10 + r % 11`
/// variables and `3n` clauses, each re-drawn until its mass clears
/// [`TENANT_MIN_MASS`]. A round is 1200 windows: 1080 of 8 arrivals and,
/// at shuffled positions, 120 bursts of 96. Each arrival draws its tenant
/// by Zipf(1.0), its shape by Zipf(1.1) and its deadline from 40% none,
/// 40% 1 ms, 20% 50 µs.
pub fn tenants(seed: u64) -> Tenants {
    let mut population = Rng::new(0x7E4A_0000);
    let mut rng = Rng::new(seed ^ 0x7E4A_A175);
    let tenants = (0..TENANTS)
        .map(|rank| {
            let n = 10 + rank % 11;
            let kb = loop {
                let kb = planted_kb(format!("tenant-{rank}"), n, 3 * n, &mut population);
                if Enumerator::new(&kb).mass() > TENANT_MIN_MASS {
                    break kb;
                }
            };
            let shapes = tenant_shapes(&kb, &mut rng);
            Tenant { kb, shapes }
        })
        .collect();
    let tenant_zipf = Zipf::new(TENANTS, 1.0);
    let shape_zipf = Zipf::new(SHAPES, 1.1);
    let mut sizes: Vec<usize> = (0..WINDOWS_PER_ROUND)
        .map(|i| if i < BURSTS_PER_ROUND { BURST_ARRIVALS } else { WINDOW_ARRIVALS })
        .collect();
    rng.shuffle(&mut sizes);
    let windows: Vec<Vec<Arrival>> = sizes
        .iter()
        .map(|&size| {
            (0..size)
                .map(|_| {
                    let tenant = tenant_zipf.sample(&mut rng);
                    let shape = shape_zipf.sample(&mut rng);
                    let u = rng.unit();
                    let deadline = if u < 0.4 {
                        None
                    } else if u < 0.8 {
                        Some(Duration::from_millis(1))
                    } else {
                        Some(Duration::from_micros(50))
                    };
                    Arrival { tenant, shape, deadline }
                })
                .collect()
        })
        .collect();
    let offsets = sizes
        .iter()
        .scan(0, |acc, &size| {
            let first = *acc;
            *acc += size;
            Some(first)
        })
        .collect();
    Tenants { tenants, windows, offsets }
}

// ----------------------------------------------------------------- big_kb

/// `(variables, instance seed)` of the fixed `big_kb` population, with
/// `round(2.1 n)` clauses each: every one compiles to about 1.1·10⁴
/// nodes and 4·10⁴ edges.
pub const BIG_KBS: [(usize, u64); 4] = [(36, 28), (40, 14), (42, 27), (44, 106)];
pub const BIG_REQUESTS_PER_ROUND: usize = 500;
pub const BIG_BATCHES_PER_ROUND: usize = 50;
pub const BIG_EVIDENCE_MENU: usize = 48;
pub const BIG_MARGINAL_VARS: usize = 8;
/// Lane mix of one `serve` batch: probability, posterior, marginal, MPE.
pub const BIG_BATCH_MIX: [usize; 4] = [64, 24, 16, 24];

#[derive(Debug, Clone)]
pub enum BigRequest {
    Single { kb: usize, kind: QueryKind },
    Batch { kb: usize, kinds: Vec<QueryKind> },
}

pub struct BigKb {
    pub kbs: Vec<Kb>,
    pub requests: Vec<BigRequest>,
}

pub fn big_kb_population() -> Vec<Kb> {
    BIG_KBS
        .iter()
        .enumerate()
        .map(|(i, &(n, instance))| {
            let m = (2.1 * n as f64).round() as usize;
            planted_kb(format!("big-{i}"), n, m, &mut Rng::new(0xB16_0000 + instance))
        })
        .collect()
}

/// A KB's evidence menu (1–4 planted variables each, ranked for Zipf
/// popularity) and its marginal-variable menu.
fn menus(kb: &Kb, rng: &mut Rng) -> (Vec<Evidence>, Vec<usize>) {
    let n = kb.num_vars();
    let evidence = (0..BIG_EVIDENCE_MENU)
        .map(|_| {
            let count = 1 + rng.below(4);
            kb.planted_evidence(&distinct_vars(rng, n, count))
        })
        .collect();
    (evidence, distinct_vars(rng, n, BIG_MARGINAL_VARS))
}

/// 500 requests per round on KBs drawn uniformly: 50 deadline-free
/// `serve` batches of 128 lanes (64 probability, 24 posterior, 16
/// marginal, 24 MPE) at shuffled positions, and 450 single `query()`
/// calls (45% probability, 25% posterior, 15% marginal, 15% MPE).
/// Evidence is Zipf(1.1)-popular over a 48-entry menu per KB, so batch
/// lanes repeat.
pub fn big_kb(seed: u64) -> BigKb {
    let kbs = big_kb_population();
    let mut rng = Rng::new(seed ^ 0xB16_B16);
    let menus: Vec<(Vec<Evidence>, Vec<usize>)> =
        kbs.iter().map(|kb| menus(kb, &mut rng)).collect();
    let ev_zipf = Zipf::new(BIG_EVIDENCE_MENU, 1.1);
    let var_zipf = Zipf::new(BIG_MARGINAL_VARS, 1.1);
    let draw = |kind: usize, kb: usize, rng: &mut Rng| {
        let (evidence, vars) = &menus[kb];
        let ev = evidence[ev_zipf.sample(rng)].clone();
        match kind {
            0 => QueryKind::Probability(ev),
            1 => QueryKind::Posterior(ev),
            2 => QueryKind::Marginal(ev, vars[var_zipf.sample(rng)]),
            _ => QueryKind::Mpe(ev),
        }
    };
    let mut is_batch: Vec<bool> =
        (0..BIG_REQUESTS_PER_ROUND).map(|i| i < BIG_BATCHES_PER_ROUND).collect();
    rng.shuffle(&mut is_batch);
    let requests = is_batch
        .into_iter()
        .map(|batch| {
            let kb = rng.below(kbs.len());
            if batch {
                let mut kinds: Vec<QueryKind> = Vec::new();
                for (kind, &count) in BIG_BATCH_MIX.iter().enumerate() {
                    for _ in 0..count {
                        kinds.push(draw(kind, kb, &mut rng));
                    }
                }
                rng.shuffle(&mut kinds);
                BigRequest::Batch { kb, kinds }
            } else {
                let u = rng.unit();
                let kind = if u < 0.45 {
                    0
                } else if u < 0.70 {
                    1
                } else if u < 0.85 {
                    2
                } else {
                    3
                };
                BigRequest::Single { kb, kind: draw(kind, kb, &mut rng) }
            }
        })
        .collect();
    BigKb { kbs, requests }
}

// --------------------------------------------------------------- kb_edits

/// `(variables, instance seed)` of the fixed `kb_edits` population, with
/// `round(2.6 n)` clauses each.
pub const EDIT_KBS: [(usize, u64); 3] = [(28, 14), (30, 14), (32, 15)];
pub const EDIT_REQUESTS_PER_ROUND: usize = 360;

#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    Add(Vec<i32>),
    /// Retract the clause this workload added last to the KB.
    Retract,
}

#[derive(Debug, Clone)]
pub struct EditRequest {
    pub kb: usize,
    pub edit: Edit,
    /// Deadline-free `query()` reads on the new revision; the first is
    /// always the weighted model count.
    pub reads: Vec<QueryKind>,
}

pub struct KbEdits {
    pub kbs: Vec<Kb>,
    pub requests: Vec<EditRequest>,
}

pub fn kb_edits_population() -> Vec<Kb> {
    EDIT_KBS
        .iter()
        .enumerate()
        .map(|(i, &(n, instance))| {
            let m = (2.6 * n as f64).round() as usize;
            planted_kb(format!("edit-{i}"), n, m, &mut Rng::new(0xED17_0000 + instance))
        })
        .collect()
}

/// 360 requests per round, round-robin over the three KBs. Each KB's
/// edits cycle add, add, retract, retract: a KB is never more than two
/// clauses from its base formula, so every request's cost is drawn
/// from one distribution instead of drifting with a growing formula,
/// while every cycle still adds two clauses never seen before (new
/// revisions for the store, new components for the persistent cache).
/// The pattern is the same for every seed; the seed draws the clauses. Each request then
/// reads `Pr[φ]`, `Pr[φ ∧ e]`, a marginal and an MPE under 1–3 planted
/// evidence variables.
pub fn kb_edits(seed: u64) -> KbEdits {
    let kbs = kb_edits_population();
    let mut rng = Rng::new(seed ^ 0xED17_ED17);
    let requests = (0..EDIT_REQUESTS_PER_ROUND)
        .map(|i| {
            let kb = i % kbs.len();
            let edit = if (i / kbs.len()) % 4 >= 2 {
                Edit::Retract
            } else {
                Edit::Add(planted_clause(&mut rng, &kbs[kb].planted))
            };
            let n = kbs[kb].num_vars();
            let count = 1 + rng.below(3);
            let ev = kbs[kb].planted_evidence(&distinct_vars(&mut rng, n, count));
            let reads = vec![
                QueryKind::Wmc,
                QueryKind::Probability(ev.clone()),
                QueryKind::Marginal(ev.clone(), rng.below(n)),
                QueryKind::Mpe(ev),
            ];
            EditRequest { kb, edit, reads }
        })
        .collect();
    KbEdits { kbs, requests }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint<T: std::fmt::Debug>(x: &T) -> String {
        format!("{x:?}")
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let tenants_of = |seed| {
            let t = tenants(seed);
            let kbs: Vec<&Kb> = t.tenants.iter().map(|t| &t.kb).collect();
            let shapes: Vec<&Vec<QueryKind>> = t.tenants.iter().map(|t| &t.shapes).collect();
            fingerprint(&(kbs, shapes, t.windows))
        };
        assert_eq!(tenants_of(1), tenants_of(1));
        assert_ne!(tenants_of(1), tenants_of(2));
        let big_of = |seed| {
            let b = big_kb(seed);
            fingerprint(&(b.kbs, b.requests))
        };
        assert_eq!(big_of(1), big_of(1));
        assert_ne!(big_of(1), big_of(2));
        let edits_of = |seed| {
            let e = kb_edits(seed);
            fingerprint(&(e.kbs, e.requests))
        };
        assert_eq!(edits_of(1), edits_of(1));
        assert_ne!(edits_of(1), edits_of(2));
    }

    #[test]
    fn request_mixes_hold_their_stated_counts() {
        let b = big_kb(3);
        let batches: Vec<&BigRequest> =
            b.requests.iter().filter(|r| matches!(r, BigRequest::Batch { .. })).collect();
        assert_eq!(batches.len(), BIG_BATCHES_PER_ROUND);
        assert!(batches
            .iter()
            .all(|r| matches!(r, BigRequest::Batch { kinds, .. } if kinds.len() == 128)));
        let e = kb_edits(3);
        let mut added = vec![0i64; e.kbs.len()];
        for r in &e.requests {
            added[r.kb] += if matches!(r.edit, Edit::Add(_)) { 1 } else { -1 };
            assert!(added[r.kb] >= 0, "a retraction only removes what the workload added");
            if let Edit::Add(c) = &r.edit {
                let planted = &e.kbs[r.kb].planted;
                assert!(c.iter().any(|&l| (l > 0) == planted[l.unsigned_abs() as usize - 1]));
            }
        }
        let t = tenants(3);
        assert_eq!(
            t.windows.iter().filter(|w| w.len() == BURST_ARRIVALS).count(),
            BURSTS_PER_ROUND
        );
        assert!(t.windows.iter().all(|w| w.len() == BURST_ARRIVALS || w.len() == WINDOW_ARRIVALS));
        for tenant in &t.tenants {
            assert!(tenant.kb.clauses.iter().all(|c| c
                .iter()
                .any(|&l| (l > 0) == tenant.kb.planted[l.unsigned_abs() as usize - 1])));
        }
    }
}
