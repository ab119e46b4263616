//! Routing information bases: Adj-RIB-In, Loc-RIB, Adj-RIB-Out.
//!
//! The Adj-RIB-In is exactly the "set of input routes the AS might
//! receive" against which the paper defines promise violations (§2); the
//! Adj-RIB-Out is what it actually emitted. Keeping all three explicit
//! lets PVR's verifier and the experiments compare permitted vs. actual
//! outputs directly.

use crate::decision::{prefer_refs, Candidate};
use crate::route::Route;
use crate::sorted::SortedMap;
use crate::types::{Asn, Prefix};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

/// Routes received from each neighbor, per prefix (post-import-policy).
///
/// Storage shape is chosen for the hot path: the outer per-prefix index
/// is a hash map (hit on every UPDATE, never iterated during event
/// processing — accessors that expose it sort first), while the inner
/// per-neighbor candidate set is a tiny sorted vector, because its
/// ASN-ascending order is what makes the decision process and its
/// tie-breaking deterministic.
#[derive(Clone, Debug, Default)]
pub struct AdjRibIn {
    routes: HashMap<Prefix, SortedMap<Asn, Route>>,
}

impl AdjRibIn {
    /// Creates an empty RIB.
    pub fn new() -> AdjRibIn {
        AdjRibIn::default()
    }

    /// Records `route` from `neighbor`, replacing any previous route for
    /// the same prefix from that neighbor (BGP implicit withdraw).
    pub fn insert(&mut self, neighbor: Asn, route: Route) {
        self.routes.entry(route.prefix).or_default().insert(neighbor, route);
    }

    /// Removes `neighbor`'s route for `prefix`; returns whether one existed.
    pub fn remove(&mut self, neighbor: Asn, prefix: Prefix) -> bool {
        if let Some(per_neighbor) = self.routes.get_mut(&prefix) {
            let removed = per_neighbor.remove(neighbor).is_some();
            if per_neighbor.is_empty() {
                self.routes.remove(&prefix);
            }
            removed
        } else {
            false
        }
    }

    /// All candidates for `prefix`, in deterministic (ASN) order.
    ///
    /// Clones each route; the decision process itself uses
    /// [`AdjRibIn::candidate_refs`] and never materializes this vector.
    /// Kept for tests and external inspection.
    pub fn candidates(&self, prefix: Prefix) -> Vec<Candidate> {
        self.candidate_refs(prefix).map(|(n, r)| Candidate::from_neighbor(r.clone(), n)).collect()
    }

    /// Borrowed candidates for `prefix`, in deterministic (ASN) order.
    pub fn candidate_refs(&self, prefix: Prefix) -> impl Iterator<Item = (Asn, &Route)> {
        self.routes.get(&prefix).into_iter().flat_map(|per| per.iter())
    }

    /// The route `neighbor` currently advertises for `prefix`, if any.
    pub fn get(&self, neighbor: Asn, prefix: Prefix) -> Option<&Route> {
        self.routes.get(&prefix)?.get(neighbor)
    }

    /// All (prefix, route) entries held from `neighbor`, in prefix order.
    pub fn from_neighbor(&self, neighbor: Asn) -> Vec<(Prefix, &Route)> {
        let mut out: Vec<(Prefix, &Route)> =
            self.routes.iter().filter_map(|(&p, per)| per.get(neighbor).map(|r| (p, r))).collect();
        out.sort_by_key(|&(p, _)| p);
        out
    }

    /// All prefixes with at least one route, in prefix order.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        let mut keys: Vec<Prefix> = self.routes.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
    }

    /// Total number of (neighbor, prefix) entries.
    pub fn len(&self) -> usize {
        self.routes.values().map(SortedMap::len).sum()
    }

    /// Number of distinct prefixes with at least one candidate.
    pub fn prefix_count(&self) -> usize {
        self.routes.len()
    }

    /// True if no routes are stored.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }
}

/// Why a reselection is being run — the incremental decision path's
/// license to skip work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReselectHint {
    /// Anything may have changed: scan every candidate.
    Full,
    /// Only `neighbor`'s Adj-RIB-In entry for the prefix changed
    /// (inserted, replaced, or removed); every other candidate — the
    /// local one included — is exactly as the last selection left it.
    Neighbor(Asn),
}

/// What a reselection did (statistics for the scale experiment E14).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReselectOutcome {
    /// Selection unchanged after a full candidate scan.
    UnchangedScanned,
    /// Selection unchanged, decided in O(1) from the hint — the new or
    /// removed route loses to the standing best without a rescan.
    UnchangedShortCircuit,
    /// Selection changed.
    Changed,
}

impl ReselectOutcome {
    /// True when the selection changed (the trigger for
    /// re-advertisement).
    pub fn changed(self) -> bool {
        matches!(self, ReselectOutcome::Changed)
    }
}

/// The selected best route per prefix, plus locally originated routes.
#[derive(Clone, Debug, Default)]
pub struct LocRib {
    best: HashMap<Prefix, Candidate>,
}

impl LocRib {
    /// Creates an empty Loc-RIB.
    pub fn new() -> LocRib {
        LocRib::default()
    }

    /// Recomputes the best route for `prefix` from `adj_in` plus any
    /// locally originated candidate. Returns `true` if the selection
    /// changed (the trigger for re-advertisement).
    pub fn reselect(
        &mut self,
        prefix: Prefix,
        adj_in: &AdjRibIn,
        local: Option<&Candidate>,
    ) -> bool {
        self.reselect_with_hint(prefix, adj_in, local, ReselectHint::Full).changed()
    }

    /// [`LocRib::reselect`] with an incremental hint.
    ///
    /// With [`ReselectHint::Neighbor`], an arrival that *loses* to the
    /// standing best (or a withdrawal of a non-best route) is decided
    /// with one comparison and no candidate scan — the common case on a
    /// converged or converging network, where most announcements are
    /// longer-path alternatives to an already-selected route. An
    /// arrival that *beats* the standing best is installed directly:
    /// every other candidate already lost to the old best, so by
    /// transitivity of the ranking none of them needs re-examining.
    ///
    /// The full scan compares candidates by reference (in Adj-RIB-In
    /// order, local candidate last, ties resolved toward the later
    /// candidate exactly like `max_by` over the materialized vector
    /// used to) and clones a route only when the selection actually
    /// changes.
    pub fn reselect_with_hint(
        &mut self,
        prefix: Prefix,
        adj_in: &AdjRibIn,
        local: Option<&Candidate>,
        hint: ReselectHint,
    ) -> ReselectOutcome {
        if let ReselectHint::Neighbor(n) = hint {
            if let Some(cur) = self.best.get(&prefix) {
                // The incremental path applies only when the standing
                // best is *not* the changed neighbor's route (that case
                // needs a rescan: its replacement may have weakened).
                if cur.learned_from != Some(n) {
                    match adj_in.get(n, prefix) {
                        None => return ReselectOutcome::UnchangedShortCircuit,
                        Some(r) => {
                            match prefer_refs(r, Some(n), &cur.route, cur.learned_from) {
                                Ordering::Less => {
                                    return ReselectOutcome::UnchangedShortCircuit;
                                }
                                Ordering::Greater => {
                                    self.best
                                        .insert(prefix, Candidate::from_neighbor(r.clone(), n));
                                    return ReselectOutcome::Changed;
                                }
                                // A tie against the standing best can
                                // only involve degenerate neighbor keys;
                                // resolve it with the full scan's
                                // deterministic order.
                                Ordering::Equal => {}
                            }
                        }
                    }
                }
            }
        }

        // Full scan by reference: later candidates win ties, matching
        // `Iterator::max_by` over [neighbors ascending, local last].
        let mut new_best: Option<(&Route, Option<Asn>)> = None;
        for (n, r) in adj_in.candidate_refs(prefix) {
            new_best = match new_best {
                Some((br, bf)) if prefer_refs(r, Some(n), br, bf) == Ordering::Less => {
                    Some((br, bf))
                }
                _ => Some((r, Some(n))),
            };
        }
        if let Some(l) = local {
            new_best = match new_best {
                Some((br, bf))
                    if prefer_refs(&l.route, l.learned_from, br, bf) == Ordering::Less =>
                {
                    Some((br, bf))
                }
                _ => Some((&l.route, l.learned_from)),
            };
        }
        match new_best {
            Some((route, learned_from)) => {
                let unchanged = self
                    .best
                    .get(&prefix)
                    .is_some_and(|cur| cur.learned_from == learned_from && cur.route == *route);
                if unchanged {
                    ReselectOutcome::UnchangedScanned
                } else {
                    self.best.insert(prefix, Candidate { route: route.clone(), learned_from });
                    ReselectOutcome::Changed
                }
            }
            None => {
                if self.best.remove(&prefix).is_some() {
                    ReselectOutcome::Changed
                } else {
                    ReselectOutcome::UnchangedScanned
                }
            }
        }
    }

    /// The current selection for `prefix`.
    pub fn get(&self, prefix: Prefix) -> Option<&Candidate> {
        self.best.get(&prefix)
    }

    /// Installs a selection directly, bypassing the decision process.
    /// Checkpoint restore only: the candidate must be what a reselect
    /// over the restored Adj-RIB-In would have produced.
    pub(crate) fn install(&mut self, prefix: Prefix, cand: Candidate) {
        self.best.insert(prefix, cand);
    }

    /// Every `(prefix, selection)` pair, borrowed, in no particular
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &Candidate)> + '_ {
        self.best.iter().map(|(p, c)| (*p, c))
    }

    /// All selected prefixes, in prefix order.
    pub fn prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        let mut keys: Vec<Prefix> = self.best.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter()
    }

    /// Number of selected routes.
    pub fn len(&self) -> usize {
        self.best.len()
    }

    /// True when nothing is selected.
    pub fn is_empty(&self) -> bool {
        self.best.is_empty()
    }
}

/// What we last advertised to each neighbor (needed to generate
/// withdrawals and to audit our own promises).
/// Hash-mapped on both levels: the export path reads and writes one
/// (neighbor, prefix) cell at a time and never iterates (the
/// [`AdjRibOut::neighbors`] accessor sorts on the way out).
#[derive(Clone, Debug, Default)]
pub struct AdjRibOut {
    routes: HashMap<Asn, HashMap<Prefix, Route>>,
}

impl AdjRibOut {
    /// Creates an empty RIB.
    pub fn new() -> AdjRibOut {
        AdjRibOut::default()
    }

    /// Records an advertisement of `route` to `neighbor`; returns the
    /// replaced route, if any.
    pub fn advertise(&mut self, neighbor: Asn, route: Route) -> Option<Route> {
        self.routes.entry(neighbor).or_default().insert(route.prefix, route)
    }

    /// Records a withdrawal; returns the withdrawn route, if any.
    pub fn withdraw(&mut self, neighbor: Asn, prefix: Prefix) -> Option<Route> {
        let per = self.routes.get_mut(&neighbor)?;
        let r = per.remove(&prefix);
        if per.is_empty() {
            self.routes.remove(&neighbor);
        }
        r
    }

    /// What `neighbor` currently believes we advertise for `prefix`.
    pub fn get(&self, neighbor: Asn, prefix: Prefix) -> Option<&Route> {
        self.routes.get(&neighbor)?.get(&prefix)
    }

    /// Neighbors with at least one advertised route, in ASN order.
    pub fn neighbors(&self) -> BTreeSet<Asn> {
        self.routes.keys().copied().collect()
    }

    /// Every `(neighbor, prefix, route)` cell in `(neighbor, prefix)`
    /// order — the deterministic iteration the checkpoint codec needs
    /// (the export hot path never calls this).
    pub(crate) fn entries(&self) -> Vec<(Asn, Prefix, &Route)> {
        let mut out: Vec<(Asn, Prefix, &Route)> = self
            .routes
            .iter()
            .flat_map(|(&n, per)| per.iter().map(move |(&p, r)| (n, p, r)))
            .collect();
        out.sort_by_key(|&(n, p, _)| (n, p));
        out
    }

    /// Forgets everything advertised to `neighbor` (session teardown:
    /// the peer's view of us is gone, so recovery must re-announce from
    /// scratch). Returns how many advertisements were dropped.
    pub fn flush_neighbor(&mut self, neighbor: Asn) -> usize {
        self.routes.remove(&neighbor).map_or(0, |per| per.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::AsPath;

    fn prefix() -> Prefix {
        Prefix::parse("10.0.0.0/8").unwrap()
    }

    fn route(path: &[u32], lp: u32) -> Route {
        let mut r = Route::originate(prefix());
        r.path = AsPath::from_slice(&path.iter().map(|&a| Asn(a)).collect::<Vec<_>>());
        r.local_pref = lp;
        r
    }

    #[test]
    fn adj_in_implicit_withdraw() {
        let mut rib = AdjRibIn::new();
        rib.insert(Asn(1), route(&[1, 9], 100));
        rib.insert(Asn(1), route(&[1], 100)); // replaces
        assert_eq!(rib.len(), 1);
        assert_eq!(rib.get(Asn(1), prefix()).unwrap().path_len(), 1);
    }

    #[test]
    fn adj_in_remove() {
        let mut rib = AdjRibIn::new();
        rib.insert(Asn(1), route(&[1], 100));
        assert!(rib.remove(Asn(1), prefix()));
        assert!(!rib.remove(Asn(1), prefix()));
        assert!(rib.is_empty());
        assert_eq!(rib.prefixes().count(), 0);
    }

    #[test]
    fn adj_in_candidates_deterministic_order() {
        let mut rib = AdjRibIn::new();
        rib.insert(Asn(5), route(&[5], 100));
        rib.insert(Asn(1), route(&[1], 100));
        rib.insert(Asn(3), route(&[3], 100));
        let c = rib.candidates(prefix());
        let order: Vec<u32> = c.iter().map(|c| c.learned_from.unwrap().0).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn loc_rib_selection_and_change_detection() {
        let mut adj = AdjRibIn::new();
        let mut loc = LocRib::new();
        adj.insert(Asn(1), route(&[1, 8, 9], 100));
        assert!(loc.reselect(prefix(), &adj, None), "first selection is a change");
        assert_eq!(loc.get(prefix()).unwrap().route.path_len(), 3);

        // A better route arrives.
        adj.insert(Asn(2), route(&[2], 100));
        assert!(loc.reselect(prefix(), &adj, None));
        assert_eq!(loc.get(prefix()).unwrap().learned_from, Some(Asn(2)));

        // Re-running with no change reports no change.
        assert!(!loc.reselect(prefix(), &adj, None));

        // Withdraw everything.
        adj.remove(Asn(1), prefix());
        adj.remove(Asn(2), prefix());
        assert!(loc.reselect(prefix(), &adj, None));
        assert!(loc.get(prefix()).is_none());
        assert!(loc.is_empty());
    }

    #[test]
    fn loc_rib_local_candidate_participates() {
        let adj = AdjRibIn::new();
        let mut loc = LocRib::new();
        let local = Candidate::local(route(&[], 100));
        assert!(loc.reselect(prefix(), &adj, Some(&local)));
        assert_eq!(loc.get(prefix()).unwrap().learned_from, None);
        assert_eq!(loc.len(), 1);
    }

    #[test]
    fn hinted_reselect_short_circuits_losing_arrivals() {
        let mut adj = AdjRibIn::new();
        let mut loc = LocRib::new();
        adj.insert(Asn(1), route(&[1], 100));
        assert!(loc.reselect(prefix(), &adj, None));

        // A longer-path arrival from another neighbor: O(1) rejection.
        adj.insert(Asn(2), route(&[2, 8, 9], 100));
        let out = loc.reselect_with_hint(prefix(), &adj, None, ReselectHint::Neighbor(Asn(2)));
        assert_eq!(out, ReselectOutcome::UnchangedShortCircuit);
        assert_eq!(loc.get(prefix()).unwrap().learned_from, Some(Asn(1)));

        // Withdrawal of the losing route: O(1) no-change.
        adj.remove(Asn(2), prefix());
        let out = loc.reselect_with_hint(prefix(), &adj, None, ReselectHint::Neighbor(Asn(2)));
        assert_eq!(out, ReselectOutcome::UnchangedShortCircuit);

        // A winning arrival installs directly.
        adj.insert(Asn(3), route(&[3], 200));
        let out = loc.reselect_with_hint(prefix(), &adj, None, ReselectHint::Neighbor(Asn(3)));
        assert_eq!(out, ReselectOutcome::Changed);
        assert_eq!(loc.get(prefix()).unwrap().learned_from, Some(Asn(3)));

        // The best route's own neighbor changing forces a rescan.
        adj.insert(Asn(3), route(&[3, 7, 8, 9], 100));
        let out = loc.reselect_with_hint(prefix(), &adj, None, ReselectHint::Neighbor(Asn(3)));
        assert_eq!(out, ReselectOutcome::Changed);
        assert_eq!(loc.get(prefix()).unwrap().learned_from, Some(Asn(1)));
    }

    /// Whatever the hint, the selection must equal what a full scan
    /// produces — driven through a randomized insert/remove schedule.
    #[test]
    fn hinted_reselect_matches_full_scan() {
        use pvr_crypto::drbg::HmacDrbg;
        let mut rng = HmacDrbg::new(b"rib hint equivalence");
        let mut adj = AdjRibIn::new();
        let mut hinted = LocRib::new();
        let mut scanned = LocRib::new();
        let local = Candidate::local(route(&[], 100));
        // The local candidate's presence is fixed across the schedule:
        // the Neighbor hint promises only the named neighbor's entry
        // changed since the last selection.
        for step in 0..500 {
            let n = Asn(1 + rng.below(6) as u32);
            let local_opt = Some(&local);
            if rng.chance(0.3) {
                adj.remove(n, prefix());
            } else {
                let len = rng.below(5) as usize;
                let path: Vec<u32> = (0..=len).map(|h| n.0 * 10 + h as u32).collect();
                adj.insert(n, route(&path, 100 + 10 * rng.below(3) as u32));
            }
            let h = hinted.reselect_with_hint(prefix(), &adj, local_opt, ReselectHint::Neighbor(n));
            let s = scanned.reselect_with_hint(prefix(), &adj, local_opt, ReselectHint::Full);
            assert_eq!(h.changed(), s.changed(), "step {step}");
            assert_eq!(hinted.get(prefix()), scanned.get(prefix()), "step {step}");
        }
    }

    #[test]
    fn adj_out_tracks_advertisements() {
        let mut out = AdjRibOut::new();
        assert!(out.advertise(Asn(1), route(&[100], 100)).is_none());
        assert!(out.advertise(Asn(1), route(&[100, 2], 100)).is_some());
        assert_eq!(out.get(Asn(1), prefix()).unwrap().path_len(), 2);
        assert_eq!(out.neighbors().len(), 1);
        assert!(out.withdraw(Asn(1), prefix()).is_some());
        assert!(out.withdraw(Asn(1), prefix()).is_none());
        assert!(out.get(Asn(1), prefix()).is_none());
        assert!(out.neighbors().is_empty());
    }
}
