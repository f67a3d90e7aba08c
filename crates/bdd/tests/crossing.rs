//! Truth-table oracle tests for the crossing and multi-literal restriction
//! kernels: random functions over at most 10 variables, random literal sets
//! (inside and outside the operands' support, duplicated variables,
//! terminal operands), checked against exhaustive evaluation and against
//! the connective-based formulations the kernels replace.

use bdd::{Bdd, BddManager, Budget, Crossing, Resource, VarId};

/// SplitMix64: a tiny deterministic generator for reproducible draws.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A random function over the first `support` variables: a union of random
/// cubes, or (sometimes) a terminal.
fn random_bdd(m: &mut BddManager, rng: &mut Rng, support: u32) -> Bdd {
    match rng.below(10) {
        0 => return m.bottom(),
        1 => return m.top(),
        _ => {}
    }
    let mut f = m.bottom();
    for _ in 0..1 + rng.below(5) {
        let mut cube = m.top();
        for v in 0..support {
            if rng.chance(67) {
                let lit = m.literal(v, rng.chance(50));
                cube = m.and(cube, lit);
            }
        }
        f = m.or(f, cube);
    }
    f
}

/// Random pinned literals over all `num_vars` variables (so some lie
/// outside the operands' support), occasionally with a variable repeated.
fn random_pinned(rng: &mut Rng, num_vars: u32) -> Vec<(VarId, bool)> {
    let mut pinned = Vec::new();
    for v in 0..num_vars {
        if rng.chance(30) {
            pinned.push((v, rng.chance(50)));
        }
    }
    if !pinned.is_empty() && rng.chance(15) {
        let (v, value) = pinned[rng.below(pinned.len() as u64) as usize];
        pinned.push((v, !value));
    }
    // Any order: the kernels must not rely on sorted input.
    for i in (1..pinned.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        pinned.swap(i, j);
    }
    pinned
}

/// The assignment `x` with the pinned literals applied (first value wins).
fn fire(x: &[bool], pinned: &[(VarId, bool)]) -> Vec<bool> {
    let mut y = x.to_vec();
    let mut seen = vec![false; x.len()];
    for &(v, value) in pinned {
        if !std::mem::replace(&mut seen[v as usize], true) {
            y[v as usize] = value;
        }
    }
    y
}

fn assignments(num_vars: u32) -> impl Iterator<Item = Vec<bool>> {
    (0u32..1 << num_vars).map(move |bits| (0..num_vars).map(|v| bits >> v & 1 == 1).collect())
}

/// Exhaustive evaluation of the four quadrants.
fn crossing_oracle(
    m: &BddManager,
    num_vars: u32,
    (srcs, src_set, tgt_set): (Bdd, Bdd, Bdd),
    pinned: &[(VarId, bool)],
) -> Crossing {
    let mut q = [false; 4];
    for x in assignments(num_vars) {
        if !m.eval(srcs, &x) {
            continue;
        }
        let src_in = m.eval(src_set, &x);
        let tgt_in = m.eval(tgt_set, &fire(&x, pinned));
        q[usize::from(!src_in) * 2 + usize::from(!tgt_in)] = true;
    }
    Crossing::from_quadrants(q[0], q[1], q[2], q[3])
}

/// The connective-based formulation: cofactor the target at every pinned
/// literal, then four conjunctions compared with `false`.
fn crossing_by_connectives(
    m: &mut BddManager,
    (srcs, src_set, tgt_set): (Bdd, Bdd, Bdd),
    pinned: &[(VarId, bool)],
) -> Crossing {
    let tgt_in = pinned.iter().fold(tgt_set, |acc, &(v, value)| m.restrict(acc, v, value));
    let tgt_out = m.not(tgt_in);
    let src_in = m.and(srcs, src_set);
    let src_out = m.and_not(srcs, src_set);
    let nonempty = |m: &mut BddManager, a: Bdd, b: Bdd| !m.and(a, b).is_false();
    Crossing::from_quadrants(
        nonempty(m, src_in, tgt_in),
        nonempty(m, src_in, tgt_out),
        nonempty(m, src_out, tgt_in),
        nonempty(m, src_out, tgt_out),
    )
}

#[test]
fn crossing_matches_the_truth_table_and_the_connectives() {
    let mut rng = Rng(0x5eed);
    for round in 0..600 {
        let num_vars = 1 + rng.below(10) as u32;
        let mut m = BddManager::new(num_vars as usize);
        // Operands draw from a (sometimes smaller) support, so pinned
        // variables fall both inside and outside it.
        let support = 1 + rng.below(u64::from(num_vars)) as u32;
        let srcs = random_bdd(&mut m, &mut rng, support);
        let src_set = random_bdd(&mut m, &mut rng, support);
        let tgt_set = if rng.chance(40) { src_set } else { random_bdd(&mut m, &mut rng, support) };
        let pinned = random_pinned(&mut rng, num_vars);
        let operands = (srcs, src_set, tgt_set);
        let nodes = m.num_nodes();
        let got = m.crossing(srcs, src_set, tgt_set, &pinned);
        assert_eq!(m.num_nodes(), nodes, "round {round}: the kernel must create no nodes");
        let oracle = crossing_oracle(&m, num_vars, operands, &pinned);
        assert_eq!(got, oracle, "round {round}: truth table disagrees ({pinned:?})");
        let connectives = crossing_by_connectives(&mut m, operands, &pinned);
        assert_eq!(got, connectives, "round {round}: connectives disagree ({pinned:?})");
    }
}

#[test]
fn crossing_of_empty_sources_is_empty() {
    let mut m = BddManager::new(3);
    let a = m.var(0);
    let none = m.bottom();
    assert!(m.crossing(none, a, a, &[(0, true)]).is_empty());
    let all = m.top();
    let c = m.crossing(all, all, none, &[]);
    assert_eq!(c, Crossing::from_quadrants(false, true, false, false));
}

#[test]
fn restrict_literals_matches_the_fold_of_restrict() {
    let mut rng = Rng(0xc0fa);
    for round in 0..600 {
        let num_vars = 1 + rng.below(10) as u32;
        let mut m = BddManager::new(num_vars as usize);
        let support = 1 + rng.below(u64::from(num_vars)) as u32;
        let f = random_bdd(&mut m, &mut rng, support);
        let pinned = random_pinned(&mut rng, num_vars);
        let folded = pinned.iter().fold(f, |acc, &(v, value)| m.restrict(acc, v, value));
        let got = m.restrict_literals(f, &pinned);
        assert_eq!(got, folded, "round {round}: {pinned:?}");
        for x in assignments(num_vars) {
            assert_eq!(m.eval(got, &x), m.eval(f, &fire(&x, &pinned)), "round {round}");
        }
    }
}

/// `⋁ᵢ (xᵢ ∧ yᵢ)` with every `x` ordered before every `y`: about `2^(n+1)`
/// nodes, so a walk over it spans several budget check intervals.
fn wide_sum(m: &mut BddManager, n: VarId) -> Bdd {
    let mut f = m.bottom();
    for i in 0..n {
        let (x, y) = (m.var(i), m.var(i + n));
        let xy = m.and(x, y);
        f = m.or(f, xy);
    }
    f
}

#[test]
fn crossing_charges_the_budget_and_poisons_to_empty() {
    // Sources = set: only the stays-in quadrant is populated, so the walk
    // cannot stop early and visits every node.
    let only_stays_in = Crossing::from_quadrants(true, false, false, false);
    let mut m = BddManager::new(24);
    let f = wide_sum(&mut m, 12);
    let budget = Budget::unlimited();
    m.set_budget(budget.clone());
    let nodes = m.num_nodes();
    assert_eq!(m.crossing(f, f, f, &[]), only_stays_in);
    m.check_budget().expect("unlimited");
    assert!(budget.steps_spent() > 4096, "one step per visited triple");
    assert_eq!(m.num_nodes(), nodes);

    // A manager tripped before the call answers with the empty mask, as
    // the poisoned connectives would.
    budget.cancel();
    assert!(m.check_budget().is_err());
    assert_eq!(m.crossing(f, f, f, &[]), Crossing::EMPTY);
    assert!(m.restrict_literals(f, &[(3, true)]).is_false());

    // A step ceiling crossed during the walk poisons its answer too.
    let mut m = BddManager::new(24);
    let f = wide_sum(&mut m, 12);
    m.set_budget(Budget::new(None, Some(1), None));
    assert_eq!(m.crossing(f, f, f, &[]), Crossing::EMPTY);
    let trip = m.take_budget_trip().expect("trip report");
    assert_eq!(trip.resource, Resource::ApplySteps);
    assert_eq!(m.crossing(f, f, f, &[]), Crossing::EMPTY, "the ceiling stays crossed");
}
