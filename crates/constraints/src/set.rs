//! The hash-indexed constraint repository and its logical closure.
//!
//! Section 6.1 of the paper: "Constraints are organized in a hash table for
//! efficient retrieval during the minimization process. Given an
//! information content at a node, CDM considers each pair of arguments ...
//! and uses them as a key to access the hash table". Membership queries
//! ([`ConstraintSet::has_required_child`] etc.) are O(1) hash probes — this
//! is what makes CDM independent of the repository size (Figure 8(a)).

use crate::constraint::Constraint;
use tpq_base::{FxHashMap, FxHashSet, TypeId};

/// Which of the three constraint kinds a pair belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Child,
    Desc,
    Cooc,
}

impl Kind {
    fn split(c: Constraint) -> (Kind, TypeId, TypeId) {
        match c {
            Constraint::RequiredChild(a, b) => (Kind::Child, a, b),
            Constraint::RequiredDescendant(a, b) => (Kind::Desc, a, b),
            Constraint::CoOccurrence(a, b) => (Kind::Cooc, a, b),
        }
    }
}

/// The `(lhs, rhs)` pairs of one constraint kind.
type Pairs = FxHashSet<(TypeId, TypeId)>;
/// The rhs types of one constraint kind, per lhs type.
type ByLhs = FxHashMap<TypeId, Vec<TypeId>>;

/// A set of integrity constraints with O(1) pair lookups and per-type
/// adjacency lists.
#[derive(Debug, Clone, Default)]
pub struct ConstraintSet {
    child: Pairs,
    desc: Pairs,
    cooc: Pairs,
    child_by_lhs: ByLhs,
    desc_by_lhs: ByLhs,
    cooc_by_lhs: ByLhs,
}

impl ConstraintSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a constraint; returns `true` if it was new. Trivial
    /// constraints (`t ~ t`) are ignored.
    pub fn insert(&mut self, c: Constraint) -> bool {
        if c.is_trivial() {
            return false;
        }
        let (kind, a, b) = Kind::split(c);
        let (set, by_lhs) = match kind {
            Kind::Child => (&mut self.child, &mut self.child_by_lhs),
            Kind::Desc => (&mut self.desc, &mut self.desc_by_lhs),
            Kind::Cooc => (&mut self.cooc, &mut self.cooc_by_lhs),
        };
        if !set.insert((a, b)) {
            return false;
        }
        by_lhs.entry(a).or_default().push(b);
        true
    }

    /// O(1): is `t1 -> t2` in the set?
    #[inline]
    pub fn has_required_child(&self, t1: TypeId, t2: TypeId) -> bool {
        self.child.contains(&(t1, t2))
    }

    /// O(1): is `t1 ->> t2` in the set?
    #[inline]
    pub fn has_required_descendant(&self, t1: TypeId, t2: TypeId) -> bool {
        self.desc.contains(&(t1, t2))
    }

    /// O(1): is `t1 ~ t2` in the set?
    #[inline]
    pub fn has_cooccurrence(&self, t1: TypeId, t2: TypeId) -> bool {
        self.cooc.contains(&(t1, t2))
    }

    /// Types `t2` with `t1 -> t2`: ascending on a set returned by
    /// [`ConstraintSet::closure`], in insertion order otherwise.
    pub fn required_children_of(&self, t1: TypeId) -> &[TypeId] {
        self.child_by_lhs.get(&t1).map_or(&[], Vec::as_slice)
    }

    /// Types `t2` with `t1 ->> t2`, ordered as in
    /// [`ConstraintSet::required_children_of`].
    pub fn required_descendants_of(&self, t1: TypeId) -> &[TypeId] {
        self.desc_by_lhs.get(&t1).map_or(&[], Vec::as_slice)
    }

    /// Types `t2` with `t1 ~ t2`, ordered as in
    /// [`ConstraintSet::required_children_of`].
    pub fn cooccurrences_of(&self, t1: TypeId) -> &[TypeId] {
        self.cooc_by_lhs.get(&t1).map_or(&[], Vec::as_slice)
    }

    /// Number of (non-trivial) constraints.
    pub fn len(&self) -> usize {
        self.child.len() + self.desc.len() + self.cooc.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over every constraint (unordered).
    pub fn iter(&self) -> impl Iterator<Item = Constraint> + '_ {
        self.child
            .iter()
            .map(|&(a, b)| Constraint::RequiredChild(a, b))
            .chain(self.desc.iter().map(|&(a, b)| Constraint::RequiredDescendant(a, b)))
            .chain(self.cooc.iter().map(|&(a, b)| Constraint::CoOccurrence(a, b)))
    }

    /// The logical closure of this set (Section 5.2).
    ///
    /// The closure is the least set containing this one and closed under
    /// the paper's inference rules, which are its specification:
    ///
    /// 1. `a -> b   ⟹ a ->> b`
    /// 2. `a ->> b, b ->> c ⟹ a ->> c`
    /// 3. `a ~ b, b ~ c ⟹ a ~ c`
    /// 4. `a ~ b, b -> c ⟹ a -> c` (likewise `->>`)
    /// 5. `a -> b, b ~ c ⟹ a -> c` (likewise `->>`)
    ///
    /// It is computed by reachability rather than by applying the rules.
    /// With `C*(a)` the types reachable from `a` over `~` edges (`a`
    /// included), the closed relations are:
    ///
    /// * `a ~ c` for every `c ∈ C*(a)` other than `a`;
    /// * `a -> c` for every `c ∈ C*(b)` with `x -> b` given for some
    ///   `x ∈ C*(a)`;
    /// * `a ->> c` for every `c` reachable over `~`, `->` and `->>` edges
    ///   from some `y` with `x -> y` or `x ->> y` given for some
    ///   `x ∈ C*(a)` (`c = y` included).
    ///
    /// One search per type and relation, each over the edges it reaches,
    /// with a reused visited array: the work is about the size of the
    /// output plus the edges scanned to produce it, not the per-pair
    /// rederivation of a worklist. The output has at most `O(T²)`
    /// constraints over `T` participating types (three pair-sets),
    /// matching the paper's quadratic size bound. Every adjacency list of
    /// the result is sorted by [`TypeId`], so walks over it do not depend
    /// on hash-table order or on the order constraints were inserted.
    pub fn closure(&self) -> ConstraintSet {
        let _span = tpq_obs::span!("constraints.closure");
        // Dense ids in ascending type order, so sorting ids sorts types.
        let mut types: Vec<TypeId> = self.iter().flat_map(|c| [c.lhs(), c.rhs()]).collect();
        types.sort_unstable();
        types.dedup();
        let n = types.len();
        let dense = |pairs: &Pairs| -> Vec<(u32, u32)> {
            let id = |t| types.binary_search(&t).expect("collected above") as u32;
            pairs.iter().map(|&(a, b)| (id(a), id(b))).collect()
        };
        let (child_rel, desc_rel, cooc_rel) = {
            let cooc = Adjacency::from_edges(n, dense(&self.cooc));
            let child = Adjacency::from_edges(n, dense(&self.child));
            let mut structural = dense(&self.child);
            structural.extend(dense(&self.desc));
            let structural = Adjacency::from_edges(n, structural);
            let mut seen = Visited::new(n);
            let cstar = Adjacency::collect(n, |a, out| {
                seen.reset();
                let mut next = out.len();
                seen.first(a);
                out.push(a);
                while let Some(&u) = out.get(next) {
                    next += 1;
                    out.extend(cooc.of(u).iter().filter(|&&v| seen.first(v)));
                }
            });
            // A type already seen brings nothing new: its own `C*` was
            // added when it was first seen, since `C*` is transitive.
            let child_rel = Adjacency::collect(n, |a, out| {
                seen.reset();
                for &x in cstar.of(a) {
                    for &b in child.of(x) {
                        if seen.first(b) {
                            out.push(b);
                            out.extend(cstar.of(b).iter().filter(|&&c| seen.first(c)));
                        }
                    }
                }
            });
            let desc_rel = Adjacency::collect(n, |a, out| {
                seen.reset();
                let mut next = out.len();
                for &x in cstar.of(a) {
                    out.extend(structural.of(x).iter().filter(|&&y| seen.first(y)));
                }
                while let Some(&u) = out.get(next) {
                    next += 1;
                    let succ = cooc.of(u).iter().chain(structural.of(u));
                    out.extend(succ.filter(|&&v| seen.first(v)));
                }
            });
            let cooc_rel =
                Adjacency::collect(n, |a, out| out.extend(cstar.of(a).iter().filter(|&&c| c != a)));
            (child_rel, desc_rel, cooc_rel)
        };
        let (child, child_by_lhs) = child_rel.into_pairs(&types);
        let (desc, desc_by_lhs) = desc_rel.into_pairs(&types);
        let (cooc, cooc_by_lhs) = cooc_rel.into_pairs(&types);
        ConstraintSet { child, desc, cooc, child_by_lhs, desc_by_lhs, cooc_by_lhs }
    }

    /// Whether the set equals its own closure.
    pub fn is_closed(&self) -> bool {
        self.closure().len() == self.len()
    }

    /// Whether a finite tree can satisfy the set for nodes of the types it
    /// mentions: a cycle in the closed required-descendant relation (in
    /// particular `t ->> t`) forces an infinite tree.
    ///
    /// Call on the closure; on a non-closed set this may miss cycles.
    pub fn is_finitely_satisfiable(&self) -> bool {
        !self.desc.iter().any(|&(a, b)| a == b || self.desc.contains(&(b, a)))
    }
}

/// Per-type lists over dense ids, stored back to back: the list of `a`
/// is `to[start[a]..start[a + 1]]`.
struct Adjacency {
    start: Vec<usize>,
    to: Vec<u32>,
}

impl Adjacency {
    /// Group `edges` by their first id.
    fn from_edges(n: usize, mut edges: Vec<(u32, u32)>) -> Adjacency {
        edges.sort_unstable();
        let mut start = vec![0; n + 1];
        for &(a, _) in &edges {
            start[a as usize + 1] += 1;
        }
        for a in 0..n {
            start[a + 1] += start[a];
        }
        Adjacency { start, to: edges.into_iter().map(|(_, b)| b).collect() }
    }

    /// The list of each `a` in `0..n` is what `fill(a, to)` appends to
    /// `to`, sorted.
    fn collect(n: usize, mut fill: impl FnMut(u32, &mut Vec<u32>)) -> Adjacency {
        let mut start = Vec::with_capacity(n + 1);
        start.push(0);
        let mut to = Vec::new();
        for a in 0..n as u32 {
            let from = to.len();
            fill(a, &mut to);
            to[from..].sort_unstable();
            start.push(to.len());
        }
        Adjacency { start, to }
    }

    fn of(&self, a: u32) -> &[u32] {
        &self.to[self.start[a as usize]..self.start[a as usize + 1]]
    }

    /// The relation as a pair set and per-type lists, mapped back from
    /// dense ids to `types`, each allocated at its final size.
    fn into_pairs(self, types: &[TypeId]) -> (Pairs, ByLhs) {
        let mut pairs = FxHashSet::with_capacity_and_hasher(self.to.len(), Default::default());
        let lhs_count = self.start.windows(2).filter(|w| w[0] < w[1]).count();
        let mut by_lhs = FxHashMap::with_capacity_and_hasher(lhs_count, Default::default());
        for (a, &t) in types.iter().enumerate() {
            let list: Vec<TypeId> = self.of(a as u32).iter().map(|&b| types[b as usize]).collect();
            if !list.is_empty() {
                pairs.extend(list.iter().map(|&u| (t, u)));
                by_lhs.insert(t, list);
            }
        }
        (pairs, by_lhs)
    }
}

/// A visited set over dense ids that empties in O(1): an id is visited
/// when its stamp equals the current epoch.
struct Visited {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Visited {
    fn new(n: usize) -> Visited {
        Visited { stamp: vec![0; n], epoch: 0 }
    }

    fn reset(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Mark `v`; `true` if it was not yet visited since the last reset.
    fn first(&mut self, v: u32) -> bool {
        let stamp = &mut self.stamp[v as usize];
        let fresh = *stamp != self.epoch;
        *stamp = self.epoch;
        fresh
    }
}

impl PartialEq for ConstraintSet {
    /// Two repositories are equal when they hold the same constraints; the
    /// adjacency lists are derived data and their ordering is ignored.
    fn eq(&self, other: &Self) -> bool {
        self.child == other.child && self.desc == other.desc && self.cooc == other.cooc
    }
}

impl Eq for ConstraintSet {}

impl FromIterator<Constraint> for ConstraintSet {
    /// Build from an iterator of constraints (trivial ones are dropped).
    fn from_iter<I: IntoIterator<Item = Constraint>>(iter: I) -> Self {
        let mut s = ConstraintSet::new();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpq_base::SmallRng;
    use Constraint::*;

    fn t(i: u32) -> TypeId {
        TypeId(i)
    }

    /// The closure as Section 5.2 states it: a worklist fixpoint of the
    /// inference rules that joins every new fact against both of its
    /// neighbours. The oracle [`ConstraintSet::closure`] is checked
    /// against.
    fn worklist_closure(s: &ConstraintSet) -> ConstraintSet {
        let mut out = s.clone();
        let mut by_rhs: FxHashMap<(Kind, TypeId), Vec<TypeId>> = FxHashMap::default();
        let mut work: Vec<Constraint> = out.iter().collect();
        for &c in &work {
            let (kind, a, b) = Kind::split(c);
            by_rhs.entry((kind, b)).or_default().push(a);
        }
        while let Some(c) = work.pop() {
            // `into(k, t)`: types `x` with `x k t`; `from(k, t)`: types
            // `y` with `t k y`.
            let into = |kind, t| by_rhs.get(&(kind, t)).map_or(&[][..], Vec::as_slice);
            let from = |kind, t| match kind {
                Kind::Child => out.required_children_of(t),
                Kind::Desc => out.required_descendants_of(t),
                Kind::Cooc => out.cooccurrences_of(t),
            };
            let mut derived: Vec<Constraint> = Vec::new();
            match c {
                RequiredChild(a, b) => {
                    // Rule 1.
                    derived.push(RequiredDescendant(a, b));
                    // Rule 4 (join on the left): x ~ a, a -> b ⟹ x -> b.
                    derived.extend(into(Kind::Cooc, a).iter().map(|&x| RequiredChild(x, b)));
                    // Rule 5 (join on the right): a -> b, b ~ c ⟹ a -> c.
                    derived.extend(from(Kind::Cooc, b).iter().map(|&c| RequiredChild(a, c)));
                }
                RequiredDescendant(a, b) => {
                    // Rule 2, both join directions.
                    derived.extend(from(Kind::Desc, b).iter().map(|&c| RequiredDescendant(a, c)));
                    derived.extend(into(Kind::Desc, a).iter().map(|&x| RequiredDescendant(x, b)));
                    // Rules 4 and 5 for ->>.
                    derived.extend(into(Kind::Cooc, a).iter().map(|&x| RequiredDescendant(x, b)));
                    derived.extend(from(Kind::Cooc, b).iter().map(|&c| RequiredDescendant(a, c)));
                }
                CoOccurrence(a, b) => {
                    // Rule 3, both directions.
                    derived.extend(from(Kind::Cooc, b).iter().map(|&c| CoOccurrence(a, c)));
                    derived.extend(into(Kind::Cooc, a).iter().map(|&x| CoOccurrence(x, b)));
                    // Rule 4: a ~ b with b -> c / b ->> c.
                    derived.extend(from(Kind::Child, b).iter().map(|&c| RequiredChild(a, c)));
                    derived.extend(from(Kind::Desc, b).iter().map(|&c| RequiredDescendant(a, c)));
                    // Rule 5: x -> a / x ->> a with a ~ b.
                    derived.extend(into(Kind::Child, a).iter().map(|&x| RequiredChild(x, b)));
                    derived.extend(into(Kind::Desc, a).iter().map(|&x| RequiredDescendant(x, b)));
                }
            }
            for d in derived {
                if out.insert(d) {
                    let (kind, a, b) = Kind::split(d);
                    by_rhs.entry((kind, b)).or_default().push(a);
                    work.push(d);
                }
            }
        }
        out
    }

    /// A seeded random constraint list over 4–12 types, mixing `~`
    /// cycles (`a ~ b, b ~ a`; with `a = b` the trivial `a ~ a`), child
    /// self-loops, `->>` cycles, mixed chains and single edges.
    fn random_constraints(rng: &mut SmallRng) -> (u32, Vec<Constraint>) {
        let n = rng.gen_range(4..13u32);
        let any = |rng: &mut SmallRng, a, b| match rng.gen_range(0..3u32) {
            0 => RequiredChild(a, b),
            1 => RequiredDescendant(a, b),
            _ => CoOccurrence(a, b),
        };
        let mut out = Vec::new();
        for _ in 0..rng.gen_range(1..n) {
            let a = t(rng.gen_range(0..n));
            let b = t(rng.gen_range(0..n));
            match rng.gen_range(0..5u32) {
                0 => out.extend([CoOccurrence(a, b), CoOccurrence(b, a)]),
                1 => out.push(RequiredChild(a, a)),
                2 => {
                    let cycle: Vec<TypeId> =
                        (0..rng.gen_range(1..4usize)).map(|_| t(rng.gen_range(0..n))).collect();
                    for (i, &x) in cycle.iter().enumerate() {
                        out.push(RequiredDescendant(x, cycle[(i + 1) % cycle.len()]));
                    }
                }
                3 => {
                    let mut x = a;
                    for _ in 0..rng.gen_range(2..6usize) {
                        let y = t(rng.gen_range(0..n));
                        out.push(any(rng, x, y));
                        x = y;
                    }
                }
                _ => out.push(any(rng, a, b)),
            }
        }
        (n, out)
    }

    #[test]
    fn closure_matches_the_worklist_oracle_on_random_sets() {
        for seed in 0..500 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (n, mut cs) = random_constraints(&mut rng);
            let given = ConstraintSet::from_iter(cs.iter().copied());
            let closed = given.closure();
            let oracle = worklist_closure(&given);
            assert_eq!(closed, oracle, "seed {seed}: {cs:?}");
            // Neither the closed set nor the order of its lists depends on
            // the order the constraints were inserted in.
            rng.shuffle(&mut cs);
            let reordered = ConstraintSet::from_iter(cs.iter().copied()).closure();
            assert_eq!(reordered, closed, "seed {seed}");
            let lists = |s: &ConstraintSet, x| {
                [s.required_children_of(x), s.required_descendants_of(x), s.cooccurrences_of(x)]
                    .map(<[TypeId]>::to_vec)
            };
            for x in (0..n).map(t) {
                let got = lists(&closed, x);
                assert_eq!(got, lists(&reordered, x), "seed {seed}, type {x}");
                let mut want = lists(&oracle, x);
                want.iter_mut().for_each(|l| l.sort_unstable());
                assert_eq!(got, want, "seed {seed}, type {x}: lists out of order");
            }
        }
    }

    #[test]
    fn closure_carries_facts_around_a_cooccurrence_cycle() {
        // a ~ b, b ~ a: the trivial a ~ a is dropped, yet b's required
        // child carries over to a, and a -> b with b ~ a gives a -> a.
        let s = ConstraintSet::from_iter([
            CoOccurrence(t(0), t(1)),
            CoOccurrence(t(1), t(0)),
            RequiredChild(t(1), t(2)),
            RequiredChild(t(0), t(1)),
        ])
        .closure();
        assert!(s.has_cooccurrence(t(0), t(1)) && s.has_cooccurrence(t(1), t(0)));
        assert!(!s.has_cooccurrence(t(0), t(0)));
        assert!(s.has_required_child(t(0), t(2)));
        assert!(s.has_required_child(t(0), t(0)));
        assert!(!s.is_finitely_satisfiable());
    }

    #[test]
    fn insert_and_lookup() {
        let mut s = ConstraintSet::new();
        assert!(s.insert(RequiredChild(t(0), t(1))));
        assert!(!s.insert(RequiredChild(t(0), t(1))), "duplicate");
        assert!(s.has_required_child(t(0), t(1)));
        assert!(!s.has_required_child(t(1), t(0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn trivial_cooccurrence_rejected() {
        let mut s = ConstraintSet::new();
        assert!(!s.insert(CoOccurrence(t(3), t(3))));
        assert!(s.is_empty());
    }

    #[test]
    fn adjacency_lists() {
        let s = ConstraintSet::from_iter([
            RequiredChild(t(0), t(1)),
            RequiredChild(t(0), t(2)),
            RequiredDescendant(t(0), t(3)),
            CoOccurrence(t(1), t(4)),
        ]);
        let mut kids = s.required_children_of(t(0)).to_vec();
        kids.sort();
        assert_eq!(kids, vec![t(1), t(2)]);
        assert_eq!(s.required_descendants_of(t(0)), &[t(3)]);
        assert_eq!(s.cooccurrences_of(t(1)), &[t(4)]);
        assert!(s.required_children_of(t(9)).is_empty());
    }

    #[test]
    fn closure_child_implies_descendant() {
        let s = ConstraintSet::from_iter([RequiredChild(t(0), t(1))]).closure();
        assert!(s.has_required_descendant(t(0), t(1)));
    }

    #[test]
    fn closure_descendant_transitivity() {
        let s = ConstraintSet::from_iter([
            RequiredDescendant(t(0), t(1)),
            RequiredDescendant(t(1), t(2)),
            RequiredDescendant(t(2), t(3)),
        ])
        .closure();
        assert!(s.has_required_descendant(t(0), t(3)));
        assert!(s.has_required_descendant(t(1), t(3)));
        assert!(!s.has_required_descendant(t(3), t(0)));
    }

    #[test]
    fn closure_child_then_descendant_chains() {
        let s = ConstraintSet::from_iter([RequiredChild(t(0), t(1)), RequiredChild(t(1), t(2))])
            .closure();
        // Children do not compose into children...
        assert!(!s.has_required_child(t(0), t(2)));
        // ...but do compose into descendants.
        assert!(s.has_required_descendant(t(0), t(2)));
    }

    #[test]
    fn closure_cooccurrence_transfers_constraints() {
        // Employee ~ Person, Person -> Name  ⟹  Employee -> Name.
        let s = ConstraintSet::from_iter([CoOccurrence(t(0), t(1)), RequiredChild(t(1), t(2))])
            .closure();
        assert!(s.has_required_child(t(0), t(2)));
        assert!(s.has_required_descendant(t(0), t(2)));
    }

    #[test]
    fn closure_rhs_cooccurrence_widens_targets() {
        // a -> b, b ~ c  ⟹  a -> c (the required child is also a c).
        let s = ConstraintSet::from_iter([RequiredChild(t(0), t(1)), CoOccurrence(t(1), t(2))])
            .closure();
        assert!(s.has_required_child(t(0), t(2)));
    }

    #[test]
    fn closure_cooccurrence_transitive() {
        let s = ConstraintSet::from_iter([CoOccurrence(t(0), t(1)), CoOccurrence(t(1), t(2))])
            .closure();
        assert!(s.has_cooccurrence(t(0), t(2)));
        assert!(!s.has_cooccurrence(t(2), t(0)), "co-occurrence is directed");
    }

    #[test]
    fn closure_is_idempotent() {
        let s = ConstraintSet::from_iter([
            RequiredChild(t(0), t(1)),
            RequiredDescendant(t(1), t(2)),
            CoOccurrence(t(2), t(3)),
            CoOccurrence(t(3), t(4)),
            RequiredChild(t(4), t(5)),
        ])
        .closure();
        assert!(s.is_closed());
        assert_eq!(s.closure().len(), s.len());
    }

    #[test]
    fn closure_size_is_quadratic_bounded() {
        // A chain of n descendant constraints closes to n(n+1)/2 pairs.
        let n = 20u32;
        let s =
            ConstraintSet::from_iter((0..n).map(|i| RequiredDescendant(t(i), t(i + 1)))).closure();
        assert_eq!(s.len(), (n * (n + 1) / 2) as usize);
    }

    #[test]
    fn finite_satisfiability_detects_cycles() {
        let ok = ConstraintSet::from_iter([RequiredDescendant(t(0), t(1))]).closure();
        assert!(ok.is_finitely_satisfiable());
        let cyc = ConstraintSet::from_iter([
            RequiredDescendant(t(0), t(1)),
            RequiredDescendant(t(1), t(0)),
        ])
        .closure();
        assert!(!cyc.is_finitely_satisfiable());
        let selfloop = ConstraintSet::from_iter([RequiredChild(t(0), t(0))]).closure();
        assert!(!selfloop.is_finitely_satisfiable());
    }

    #[test]
    fn equality_ignores_insertion_order() {
        let a = ConstraintSet::from_iter([
            RequiredChild(t(0), t(1)),
            RequiredDescendant(t(2), t(3)),
            CoOccurrence(t(4), t(5)),
        ]);
        let b = ConstraintSet::from_iter([
            CoOccurrence(t(4), t(5)),
            RequiredChild(t(0), t(1)),
            RequiredDescendant(t(2), t(3)),
        ]);
        assert_eq!(a, b);
        let mut c = b.clone();
        c.insert(RequiredChild(t(9), t(1)));
        assert_ne!(a, c);
        // Kind matters: a -> b is not a ->> b.
        let d = ConstraintSet::from_iter([RequiredChild(t(0), t(1))]);
        let e = ConstraintSet::from_iter([RequiredDescendant(t(0), t(1))]);
        assert_ne!(d, e);
    }

    #[test]
    fn iter_round_trips() {
        let cs =
            [RequiredChild(t(0), t(1)), RequiredDescendant(t(2), t(3)), CoOccurrence(t(4), t(5))];
        let s = ConstraintSet::from_iter(cs);
        let mut back: Vec<_> = s.iter().collect();
        back.sort();
        let mut want = cs.to_vec();
        want.sort();
        assert_eq!(back, want);
    }
}
