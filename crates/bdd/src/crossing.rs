//! Allocation-free transition-crossing queries.
//!
//! The CSC solver classifies every branch of a transition against a
//! candidate state set: do its reachable firings stay inside, leave, enter
//! or stay outside the set?  Answered with the general connectives, each
//! question conjoins, negates and cofactors full BDDs only to compare the
//! result with `false`.  This module answers all four at once with one
//! memoised traversal that builds no nodes ([`BddManager::crossing`]), and
//! cofactors a function at a whole literal set in one recursion
//! ([`BddManager::restrict_literals`]) for the analyses that do need the
//! target predicate as a BDD.
//!
//! Both kernels memoise in a manager-owned, direct-mapped table that is
//! invalidated in O(1) per call by a generation bump, so steady-state calls
//! allocate nothing.  The table is *lossy*: a collision drops an entry,
//! which costs a re-traversal but never a wrong answer (crossing results
//! are OR-accumulated and idempotent; restriction results are canonical).

use crate::hash::fx_combine;
use crate::manager::{Bdd, BddManager};
use crate::node::{NodeId, VarId, TERMINAL_VAR};
use std::fmt;

/// Which of the four crossing quadrants of a branch are non-empty, as
/// returned by [`BddManager::crossing`].
///
/// For source states `srcs`, a source predicate `src_set` and a target
/// predicate `tgt_set` evaluated after the branch fires, a firing from
/// source `x` to target `x'`:
///
/// | quadrant    | `src_set(x)` | `tgt_set(x')` |
/// |-------------|--------------|---------------|
/// | `stays_in`  | 1            | 1             |
/// | `leaves`    | 1            | 0             |
/// | `enters`    | 0            | 1             |
/// | `stays_out` | 0            | 0             |
#[derive(Copy, Clone, PartialEq, Eq)]
pub struct Crossing(u8);

impl Crossing {
    /// No quadrant is populated (also the poisoned result of a tripped
    /// manager).
    pub const EMPTY: Crossing = Crossing(0);
    const STAYS_IN: u8 = 1;
    const LEAVES: u8 = 2;
    const ENTERS: u8 = 4;
    const STAYS_OUT: u8 = 8;
    const ALL: u8 = 15;

    /// Builds a mask from the four quadrant flags.
    pub fn from_quadrants(stays_in: bool, leaves: bool, enters: bool, stays_out: bool) -> Self {
        let bit = |on: bool, mask: u8| if on { mask } else { 0 };
        Crossing(
            bit(stays_in, Self::STAYS_IN)
                | bit(leaves, Self::LEAVES)
                | bit(enters, Self::ENTERS)
                | bit(stays_out, Self::STAYS_OUT),
        )
    }

    /// The single quadrant of a firing from a source with `src_in`
    /// membership to a target with `tgt_in` membership.
    #[inline]
    fn quadrant(src_in: bool, tgt_in: bool) -> u8 {
        match (src_in, tgt_in) {
            (true, true) => Self::STAYS_IN,
            (true, false) => Self::LEAVES,
            (false, true) => Self::ENTERS,
            (false, false) => Self::STAYS_OUT,
        }
    }

    /// Some firing starts and ends inside the set.
    pub fn stays_in(self) -> bool {
        self.0 & Self::STAYS_IN != 0
    }

    /// Some firing starts inside and ends outside.
    pub fn leaves(self) -> bool {
        self.0 & Self::LEAVES != 0
    }

    /// Some firing starts outside and ends inside.
    pub fn enters(self) -> bool {
        self.0 & Self::ENTERS != 0
    }

    /// Some firing starts and ends outside.
    pub fn stays_out(self) -> bool {
        self.0 & Self::STAYS_OUT != 0
    }

    /// No quadrant is populated (the branch has no source state).
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for Crossing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Crossing")
            .field("stays_in", &self.stays_in())
            .field("leaves", &self.leaves())
            .field("enters", &self.enters())
            .field("stays_out", &self.stays_out())
            .finish()
    }
}

#[derive(Copy, Clone)]
struct MemoEntry {
    a: u32,
    b: u32,
    c: u32,
    value: u32,
    generation: u32,
}

const EMPTY_MEMO_ENTRY: MemoEntry = MemoEntry { a: 0, b: 0, c: 0, value: 0, generation: 0 };
/// First allocation of the memo table (entries; a power of two).
const MEMO_MIN: usize = 1 << 10;
/// The table stops growing here, bounding its memory at a few MiB.
const MEMO_MAX: usize = 1 << 18;

/// Lossy direct-mapped memo keyed by node triples, cleared per call by a
/// generation bump.
#[derive(Default)]
struct KernelMemo {
    entries: Vec<MemoEntry>,
    generation: u32,
    /// Entries written during the current call: a call that writes more
    /// than half the table grows it for the next one.
    stores: usize,
}

impl KernelMemo {
    /// Starts a call: invalidates every entry in O(1).
    fn begin(&mut self) {
        if self.entries.is_empty() {
            self.entries = vec![EMPTY_MEMO_ENTRY; MEMO_MIN];
        }
        self.generation = match self.generation.checked_add(1) {
            Some(g) => g,
            None => {
                self.entries.fill(EMPTY_MEMO_ENTRY);
                1
            }
        };
        self.stores = 0;
    }

    /// Ends a call: grows (and thereby clears) a table the call crowded.
    fn end(&mut self) {
        let len = self.entries.len();
        if self.stores * 2 > len && len < MEMO_MAX {
            let wanted = (self.stores * 2).next_power_of_two().min(MEMO_MAX);
            self.entries = vec![EMPTY_MEMO_ENTRY; wanted];
            self.generation = 0;
        }
    }

    #[inline]
    fn slot(&self, a: NodeId, b: NodeId, c: NodeId) -> usize {
        let h = fx_combine(fx_combine(fx_combine(0, a.0 as u64), b.0 as u64), c.0 as u64);
        (h as usize) & (self.entries.len() - 1)
    }

    #[inline]
    fn get(&self, a: NodeId, b: NodeId, c: NodeId) -> Option<u32> {
        let e = &self.entries[self.slot(a, b, c)];
        (e.generation == self.generation && e.a == a.0 && e.b == b.0 && e.c == c.0)
            .then_some(e.value)
    }

    #[inline]
    fn insert(&mut self, a: NodeId, b: NodeId, c: NodeId, value: u32) {
        let slot = self.slot(a, b, c);
        self.entries[slot] =
            MemoEntry { a: a.0, b: b.0, c: c.0, value, generation: self.generation };
        self.stores += 1;
    }
}

/// Reusable state of the two kernels: the literal set sorted by variable
/// and the memo table.  Taken out of the manager for the duration of a
/// call, so the recursions can borrow the manager mutably.
#[derive(Default)]
pub(crate) struct KernelScratch {
    pinned: Vec<(VarId, bool)>,
    memo: KernelMemo,
}

impl KernelScratch {
    /// Loads `pinned` sorted by variable; a variable listed twice keeps
    /// its first value, as a left fold of single-literal restrictions does.
    fn load(&mut self, pinned: &[(VarId, bool)]) {
        self.pinned.clear();
        self.pinned.extend_from_slice(pinned);
        self.pinned.sort_by_key(|&(v, _)| v);
        self.pinned.dedup_by_key(|&mut (v, _)| v);
        self.memo.begin();
    }
}

/// The first index of the sorted literal list at or below level `v`.
#[inline]
fn skip_to(pinned: &[(VarId, bool)], mut p: usize, v: VarId) -> usize {
    while p < pinned.len() && pinned[p].0 < v {
        p += 1;
    }
    p
}

impl BddManager {
    /// Classifies the firings of one transition branch against a state set
    /// in a single traversal: which of the quadrants stays-in, leaves,
    /// enters and stays-out (see [`Crossing`]) contain a source state.
    ///
    /// The sources are the states of `srcs`.  Membership of a source is
    /// `src_set`; membership of its target is `tgt_set` evaluated with the
    /// `pinned` literals substituted — the branch's firing sets those
    /// variables to those values and keeps every other variable.  The
    /// answer equals the four emptiness tests
    ///
    /// ```text
    /// T         = tgt_set restricted at every pinned literal
    /// stays_in  = srcs ∧  src_set ∧  T ≠ ∅      leaves    = srcs ∧  src_set ∧ ¬T ≠ ∅
    /// enters    = srcs ∧ ¬src_set ∧  T ≠ ∅      stays_out = srcs ∧ ¬src_set ∧ ¬T ≠ ∅
    /// ```
    ///
    /// but no node is created: the three operands are walked together
    /// (the target operand follows its pinned child at every pinned
    /// variable), shared sub-triples are visited once, sub-problems that
    /// can only yield quadrants already found are skipped, and the walk
    /// stops as soon as all four are found.  `pinned` may be in any order;
    /// a variable listed twice keeps its first value.
    ///
    /// The traversal charges the attached [`crate::Budget`] one step per
    /// visited triple, in the same batches as node allocation.  On a
    /// tripped manager — before or during the call — it returns
    /// [`Crossing::EMPTY`], the answer the poisoned connectives give.
    ///
    /// ```
    /// use bdd::BddManager;
    ///
    /// let mut m = BddManager::new(2);
    /// let (a, b) = (m.var(0), m.var(1));
    /// // Sources: every state with b = 0; the branch sets b := 1.
    /// let srcs = m.not(b);
    /// // Against the set {a}: a-states stay in, ¬a-states stay out.
    /// let c = m.crossing(srcs, a, a, &[(1, true)]);
    /// assert!(c.stays_in() && c.stays_out() && !c.leaves() && !c.enters());
    /// // Against the set {b}: every firing enters it.
    /// let c = m.crossing(srcs, b, b, &[(1, true)]);
    /// assert!(c.enters() && !c.stays_in() && !c.leaves() && !c.stays_out());
    /// ```
    pub fn crossing(
        &mut self,
        srcs: Bdd,
        src_set: Bdd,
        tgt_set: Bdd,
        pinned: &[(VarId, bool)],
    ) -> Crossing {
        if self.budget_tripped() {
            return Crossing::EMPTY;
        }
        let mut scratch = std::mem::take(&mut self.kernel_scratch);
        scratch.load(pinned);
        let mut mask = 0;
        self.crossing_rec(&mut scratch, 0, srcs.0, src_set.0, tgt_set.0, &mut mask);
        scratch.memo.end();
        self.kernel_scratch = scratch;
        if self.budget_tripped() {
            return Crossing::EMPTY;
        }
        Crossing(mask)
    }

    fn crossing_rec(
        &mut self,
        scratch: &mut KernelScratch,
        mut p: usize,
        mut s: NodeId,
        mut a: NodeId,
        mut b: NodeId,
        mask: &mut u8,
    ) {
        loop {
            if s == NodeId::FALSE || *mask == Crossing::ALL || self.budget_tripped() {
                return;
            }
            // Quadrants this sub-problem can still populate: a terminal
            // source (target) operand fixes the membership on its side.
            let (src_in, src_out) = (a != NodeId::FALSE, a != NodeId::TRUE);
            let (tgt_in, tgt_out) = (b != NodeId::FALSE, b != NodeId::TRUE);
            let possible = Crossing::from_quadrants(
                src_in && tgt_in,
                src_in && tgt_out,
                src_out && tgt_in,
                src_out && tgt_out,
            );
            if possible.0 & !*mask == 0 {
                return;
            }
            let (vs, va, vb) = (self.var_of(s), self.var_of(a), self.var_of(b));
            if va == TERMINAL_VAR && vb == TERMINAL_VAR {
                // `s` is satisfiable (not FALSE), so its states populate
                // exactly this quadrant.
                *mask |= Crossing::quadrant(a == NodeId::TRUE, b == NodeId::TRUE);
                return;
            }
            let v = vs.min(va).min(vb);
            p = skip_to(&scratch.pinned, p, v);
            let pin = scratch.pinned.get(p).filter(|&&(pv, _)| pv == v).map(|&(_, value)| value);
            if let Some(value) = pin {
                // The target is read after the firing: follow the pinned
                // child, whatever the source value of `v` is.
                if vb == v {
                    let (_, low, high) = self.node_triple(b);
                    b = if value { high } else { low };
                }
                p += 1;
                if vs != v && va != v {
                    continue; // nothing else branches on `v`
                }
            }
            if scratch.memo.get(s, a, b).is_some() {
                return;
            }
            scratch.memo.insert(s, a, b, 1);
            self.charge_step();
            let (s0, s1) = self.cofactors(s, v);
            let (a0, a1) = self.cofactors(a, v);
            let (b0, b1) = if pin.is_some() { (b, b) } else { self.cofactors(b, v) };
            self.crossing_rec(scratch, p, s0, a0, b0, mask);
            // The high cofactors continue in this frame.
            (s, a, b) = (s1, a1, b1);
        }
    }

    /// Cofactors `f` at the first-level variable `v` (at or above `f`'s
    /// root).
    #[inline]
    fn cofactors(&self, f: NodeId, v: VarId) -> (NodeId, NodeId) {
        if self.var_of(f) == v {
            let (_, low, high) = self.node_triple(f);
            (low, high)
        } else {
            (f, f)
        }
    }

    /// The cofactor of `f` at every literal of `pinned` at once — the
    /// value of `f` *after* a firing that sets those variables, as a
    /// function of the state before it.
    ///
    /// Equal to the left fold of [`Self::restrict`] over `pinned` (a
    /// variable listed twice keeps its first value), but computed in one
    /// recursion with one memo instead of one recursion and one fresh memo
    /// map per literal.
    ///
    /// ```
    /// use bdd::BddManager;
    ///
    /// let mut m = BddManager::new(3);
    /// let (a, b, c) = (m.var(0), m.var(1), m.var(2));
    /// let ab = m.and(a, b);
    /// let f = m.or(ab, c);
    /// // Setting a := 1 and c := 0 leaves b.
    /// assert_eq!(m.restrict_literals(f, &[(2, false), (0, true)]), b);
    /// ```
    pub fn restrict_literals(&mut self, f: Bdd, pinned: &[(VarId, bool)]) -> Bdd {
        if self.budget_tripped() {
            return self.bottom();
        }
        let mut scratch = std::mem::take(&mut self.kernel_scratch);
        scratch.load(pinned);
        let r = self.restrict_literals_rec(&mut scratch, 0, f.0);
        scratch.memo.end();
        self.kernel_scratch = scratch;
        Bdd(r)
    }

    fn restrict_literals_rec(
        &mut self,
        scratch: &mut KernelScratch,
        p: usize,
        f: NodeId,
    ) -> NodeId {
        let v = self.var_of(f);
        let p = skip_to(&scratch.pinned, p, v);
        if p == scratch.pinned.len() || f.is_terminal() {
            return f;
        }
        if self.budget_tripped() {
            // Budget poison: unwind fast; the caller discards the result.
            return NodeId::FALSE;
        }
        if let Some(r) = scratch.memo.get(f, f, f) {
            return NodeId(r);
        }
        let (_, low, high) = self.node_triple(f);
        let r = match scratch.pinned[p] {
            (pv, value) if pv == v => {
                self.restrict_literals_rec(scratch, p + 1, if value { high } else { low })
            }
            _ => {
                let low = self.restrict_literals_rec(scratch, p, low);
                let high = self.restrict_literals_rec(scratch, p, high);
                self.mk(v, low, high)
            }
        };
        if !self.budget_tripped() {
            scratch.memo.insert(f, f, f, r.0);
        }
        r
    }
}
