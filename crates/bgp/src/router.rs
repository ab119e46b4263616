//! The BGP speaker: a [`pvr_netsim::Agent`] that maintains RIBs, runs
//! the decision process, applies policy, and (optionally) signs and
//! verifies route attestations.
//!
//! Implemented features: UPDATE processing with implicit withdraw,
//! per-neighbor export with Gao–Rexford/partial-transit policy,
//! loop rejection, S-BGP attestation signing/verification, scheduled
//! originations/withdrawals (for workloads), per-router statistics.
//!
//! ## Propagation cost model (post-E14)
//!
//! The hot path is structurally shared end to end: per-neighbor export
//! no longer copies attribute bytes. The propagated route (path
//! prepended once) is built a single time per selection change and
//! cloned per neighbor as reference-count bumps; extending an
//! attestation chain shares the received chain rather than re-copying
//! its prefix; and message `wire_size` accounting is arithmetic, never
//! an encode. Announcements that lose to the standing best route are
//! rejected in O(1) by the incremental decision path
//! ([`crate::rib::ReselectHint`]) without rescanning the Adj-RIB-In.
//!
//! ## Failure semantics (post-E16)
//!
//! The router implements proper session teardown and recovery through
//! the fault layer's [`Agent::on_session`] callback: a session loss
//! flushes both Adj-RIBs for the peer and floods withdraws for every
//! route learned over it; recovery re-announces the full Loc-RIB per
//! export policy. RFC 2439-style route-flap dampening
//! ([`crate::dampening`]) suppresses persistently flapping
//! `(neighbor, prefix)` pairs, and MRAI batching supports a jittered
//! re-arm delay drawn from a router-owned seeded DRBG (never the
//! engine's — per-shard engine DRBGs would break the cross-engine
//! byte-identity the determinism gate asserts).
//!
//! Documented omissions: no OPEN/KEEPALIVE exchange (session state is
//! driven by the fault layer, not a peer FSM), no iBGP, no aggregation.

use crate::dampening::{DampState, DampeningPolicy};
use crate::decision::Candidate;
use crate::messages::BgpUpdate;
use crate::policy::PolicyConfig;
use crate::private::{PrivateRequest, PrivateVerifier, PVR_VERDICT_TIMER};
use crate::rib::{AdjRibIn, AdjRibOut, LocRib, ReselectHint, ReselectOutcome};
use crate::route::Route;
use crate::sbgp::{SignedRoute, VerifyCache};
use crate::sorted::SortedMap;
use crate::topology::OriginTable;
use crate::types::{Asn, Prefix};
use pvr_crypto::drbg::HmacDrbg;
use pvr_crypto::encoding::{Reader, Wire, WireError};
use pvr_crypto::keys::{Identity, KeyStore};
use pvr_netsim::{Agent, Context, NodeId, SimDuration, SimTime};
use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// A scheduled local action (drives workloads without an extra agent).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LocalEvent {
    /// Start originating `prefix`.
    Announce(Prefix),
    /// Stop originating `prefix`.
    Withdraw(Prefix),
}

impl Wire for LocalEvent {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            LocalEvent::Announce(p) => {
                buf.push(0);
                p.encode(buf);
            }
            LocalEvent::Withdraw(p) => {
                buf.push(1);
                p.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.take(1)?[0] {
            0 => Ok(LocalEvent::Announce(Prefix::decode(r)?)),
            1 => Ok(LocalEvent::Withdraw(Prefix::decode(r)?)),
            _ => Err(WireError::Invalid("local event discriminant")),
        }
    }
}

/// Security mode for a router.
pub enum SecurityMode {
    /// Plain BGP: no signatures.
    Plain,
    /// S-BGP mode: sign own announcements, verify received chains, drop
    /// announcements that fail verification.
    Signed {
        /// This AS's signing identity (boxed: an RSA identity is far
        /// larger than the `Plain` variant).
        identity: Box<Identity>,
        /// Public keys of all ASes.
        keys: Arc<KeyStore>,
    },
}

pvr_obs::metric_struct! {
    /// Per-router counters (inputs to experiment E8's overhead table and
    /// E12's detection columns).
    ///
    /// Declared through [`pvr_obs::metric_struct!`], which also derives
    /// the commutative `add` fold (network-wide totals independent of
    /// router iteration order and shard layout) and the registry export
    /// (counters named `pvr_router_<field>_total`) from the same field
    /// list — the struct and the metrics registry cannot drift apart.
    pub struct RouterStats, prefix = "pvr_router" {
        /// UPDATE messages received.
        pub updates_rx: u64,
        /// UPDATE messages sent.
        pub updates_tx: u64,
        /// Routes accepted into Adj-RIB-In.
        pub routes_accepted: u64,
        /// Routes rejected by import policy (incl. loops).
        pub routes_rejected: u64,
        /// Announcements dropped due to attestation failures.
        pub attestation_failures: u64,
        /// Announcements dropped because the origin AS is not authorized
        /// for the prefix (RPKI-style check, see [`OriginTable`]).
        pub origin_failures: u64,
        /// Attestation-signature checks this router requested (signed
        /// mode with the network-wide cache installed; one per attestation
        /// of each received chain).
        pub verify_calls: u64,
        /// How many of those were answered by the network-wide
        /// [`VerifyCache`] without running RSA.
        pub verify_cache_hits: u64,
        /// Decision-process runs that changed the best route.
        pub best_changes: u64,
        /// Decision-process runs resolved in O(1) by the incremental path:
        /// the arrival lost to the standing best (or withdrew a non-best
        /// route), so no candidate rescan, no clone, no export ran.
        pub reselect_short_circuits: u64,
        /// Explicit withdraws this router queued for transmission
        /// (counted pre-MRAI-merge: the fan-out of a withdraw storm, not
        /// the post-batching wire count).
        pub withdraws_sent: u64,
        /// Announcements parked by route-flap dampening because the
        /// `(neighbor, prefix)` pair was suppressed on arrival.
        pub dampening_suppressed: u64,
    }
}

/// Hooks that turn a router into a malicious agent. Used by the
/// `pvr-attack` campaign engine; every flag defaults to honest
/// behaviour.
#[derive(Clone, Debug, Default)]
pub struct Malice {
    /// Ignore export policy: advertise every selected route to every
    /// neighbor regardless of where it was learned — the classic
    /// customer→provider route leak (a Gao–Rexford valley).
    pub leak_all: bool,
}

/// Reserved timer id for the MRAI flush (schedule timers use indices,
/// which can never reach this value).
const MRAI_TIMER: u64 = u64::MAX;

/// Reserved timer id for the dampening reuse-list tick.
const DAMP_TIMER: u64 = u64::MAX - 1;

/// A BGP speaker for one AS.
pub struct BgpRouter {
    asn: Asn,
    policy: PolicyConfig,
    security: SecurityMode,
    /// Neighbor AS → simulator node.
    neighbor_nodes: BTreeMap<Asn, NodeId>,
    /// Reverse lookup for message attribution (built alongside
    /// `neighbor_nodes`; avoids a per-message linear scan).
    asn_of_node: HashMap<NodeId, Asn>,
    /// Neighbors in ascending-ASN order, for allocation-free iteration
    /// during the per-prefix export loop.
    neighbor_list: Vec<(Asn, NodeId)>,
    /// Scheduled announce/withdraw actions: (delay, event).
    schedule: Vec<(SimDuration, LocalEvent)>,
    /// Prefixes originated at start.
    originate_at_start: Vec<Prefix>,

    adj_in: AdjRibIn,
    loc_rib: LocRib,
    adj_out: AdjRibOut,
    /// Attestation chains for routes in Adj-RIB-In (signed mode).
    chains_in: BTreeMap<(Asn, Prefix), SignedRoute>,
    /// Currently originated prefixes.
    local: BTreeMap<Prefix, Candidate>,
    /// Minimum route advertisement interval: when set, outgoing updates
    /// are buffered and flushed at most once per interval (RFC 4271
    /// §9.2.1.1, simplified to a router-level timer).
    mrai: Option<SimDuration>,
    /// Buffered updates awaiting the next MRAI tick.
    mrai_buffer: BTreeMap<NodeId, BgpUpdate>,
    /// Whether an MRAI flush timer is currently armed.
    mrai_armed: bool,
    /// Upper bound on the random extra delay added each time the MRAI
    /// timer is armed (RFC 4271's jitter, §9.2.1.1 / §10).
    mrai_jitter: Option<SimDuration>,
    /// Router-owned DRBG the MRAI jitter draws from (the engine gives
    /// agents no randomness), so the draws follow this router's own
    /// event order at every shard count.
    jitter_rng: Option<HmacDrbg>,
    /// Route-flap dampening policy (`None` = dampening off).
    dampening: Option<DampeningPolicy>,
    /// Dampening figure-of-merit per `(neighbor, prefix)`.
    damp_states: BTreeMap<(Asn, Prefix), DampState>,
    /// Latest announcement parked per suppressed `(neighbor, prefix)`,
    /// re-processed when the pair's penalty decays below reuse.
    parked: BTreeMap<(Asn, Prefix), SignedRoute>,
    /// Whether a dampening reuse tick is currently armed.
    damp_timer_armed: bool,
    /// Neighbors whose session is currently torn down; export skips
    /// them until recovery re-announces.
    sessions_down: BTreeSet<Asn>,
    /// Malicious-behaviour switches (campaign engine).
    malice: Malice,
    /// Origin authorizations checked on import when present.
    origin_table: Option<Arc<OriginTable>>,
    /// Network-wide attestation-verification memo (signed mode;
    /// installed by `Topology::instantiate`, shared by every router of
    /// one `BgpNetwork`).
    verify_cache: Option<Arc<VerifyCache>>,
    /// Shared private-verification service (PVR mode; installed by
    /// `Topology::instantiate` when private verification is enabled).
    /// Best-route changes with ≥ 2 winning-tier candidates enqueue an
    /// SMC verification request; verdicts come back on
    /// [`PVR_VERDICT_TIMER`] after the cost-model latency.
    private_verifier: Option<Arc<PrivateVerifier>>,
    /// Router-local request sequence — with the ASN, the engine-
    /// invariant ordering key for private-verification flushes.
    pvr_seq: u64,
    /// When this router first dropped an announcement for a security
    /// reason (attestation or origin failure) — the campaign engine's
    /// detection-latency measurement.
    first_security_reject: Option<SimTime>,
    /// Reused buffer for the prefixes an UPDATE touched (per-message
    /// allocation shaved off the hot path).
    touched_scratch: Vec<Prefix>,
    /// Reused per-neighbor outgoing-update accumulator (drained by
    /// `flush`, allocation retained across messages).
    pending_scratch: SortedMap<NodeId, BgpUpdate>,
    stats: RouterStats,
    /// Per-router convergence-timeline recorder (RIB churn and verify
    /// traffic per sim-time window); `None` unless observability was
    /// enabled at instantiation. Stamped exclusively with the
    /// simulator's virtual clock (the sim-time-only tracing rule).
    obs_timeline: Option<pvr_obs::TimelineRecorder>,
    /// Ring-buffered sim-time event journal (capacity 0 = disabled).
    journal: pvr_obs::EventJournal,
}

impl BgpRouter {
    /// Creates a router for `asn` with the given policy and security mode.
    pub fn new(asn: Asn, policy: PolicyConfig, security: SecurityMode) -> BgpRouter {
        BgpRouter {
            asn,
            policy,
            security,
            neighbor_nodes: BTreeMap::new(),
            asn_of_node: HashMap::new(),
            neighbor_list: Vec::new(),
            schedule: Vec::new(),
            originate_at_start: Vec::new(),
            adj_in: AdjRibIn::new(),
            loc_rib: LocRib::new(),
            adj_out: AdjRibOut::new(),
            chains_in: BTreeMap::new(),
            local: BTreeMap::new(),
            mrai: None,
            mrai_buffer: BTreeMap::new(),
            mrai_armed: false,
            mrai_jitter: None,
            jitter_rng: None,
            dampening: None,
            damp_states: BTreeMap::new(),
            parked: BTreeMap::new(),
            damp_timer_armed: false,
            sessions_down: BTreeSet::new(),
            malice: Malice::default(),
            origin_table: None,
            verify_cache: None,
            private_verifier: None,
            pvr_seq: 0,
            first_security_reject: None,
            touched_scratch: Vec::new(),
            pending_scratch: SortedMap::new(),
            stats: RouterStats::default(),
            obs_timeline: None,
            journal: pvr_obs::EventJournal::new(0),
        }
    }

    /// Enables the per-router convergence-timeline recorder with
    /// `window`-wide sim-time windows (RIB churn and verify traffic;
    /// merged network-wide by `BgpNetwork::convergence_timeline`).
    pub fn enable_timeline(&mut self, window: SimDuration) {
        if self.obs_timeline.is_none() {
            self.obs_timeline = Some(pvr_obs::TimelineRecorder::new(
                window.as_micros(),
                pvr_obs::timeline::RT_CHANNELS,
            ));
        }
    }

    /// Enables the ring-buffered event journal, keeping the most recent
    /// `capacity` events for forensic JSONL dumps.
    pub fn enable_journal(&mut self, capacity: usize) {
        self.journal = pvr_obs::EventJournal::new(capacity);
    }

    /// The per-router timeline recorder, if enabled.
    pub fn timeline(&self) -> Option<&pvr_obs::TimelineRecorder> {
        self.obs_timeline.as_ref()
    }

    /// The per-router event journal (empty when disabled).
    pub fn journal(&self) -> &pvr_obs::EventJournal {
        &self.journal
    }

    /// Records a best-route change at `now` (timeline + journal).
    fn observe_churn(&mut self, now: SimTime) {
        let t = now.as_micros();
        if let Some(tl) = &mut self.obs_timeline {
            tl.add(t, pvr_obs::timeline::RT_RIB_CHURN, 1);
        }
        self.journal.record(t, "best_change", 1);
    }

    /// Records attestation-verification traffic at `now`: calls and
    /// hits on the timeline, the call count in the journal.
    fn observe_verify(&mut self, now: SimTime, calls: u64, hits: u64) {
        let t = now.as_micros();
        if let Some(tl) = &mut self.obs_timeline {
            tl.add(t, pvr_obs::timeline::RT_VERIFY_CALLS, calls);
            tl.add(t, pvr_obs::timeline::RT_VERIFY_HITS, hits);
        }
        self.journal.record(t, "verify", calls);
    }

    /// Journals a security rejection (attestation/origin) at `now`.
    fn observe_reject(&mut self, now: SimTime, kind: &'static str) {
        self.journal.record(now.as_micros(), kind, 1);
    }

    /// Records an explicit withdraw queued for transmission at `now`
    /// (timeline churn channel + counter).
    fn observe_withdraw(&mut self, now: SimTime) {
        self.stats.withdraws_sent += 1;
        if let Some(tl) = &mut self.obs_timeline {
            tl.add(now.as_micros(), pvr_obs::timeline::RT_WITHDRAWS, 1);
        }
    }

    /// Switches this router to the given malicious behaviour.
    pub fn set_malice(&mut self, malice: Malice) {
        self.malice = malice;
    }

    /// True when any malicious-behaviour switch is set. Checkpointing
    /// refuses such routers: malice is installed imperatively by the
    /// campaign engine, so a restore from topology + options alone
    /// could not reconstruct it.
    pub fn malice_active(&self) -> bool {
        self.malice.leak_all
    }

    /// Installs an origin-authorization table; subsequently received
    /// announcements whose origin is unauthorized are dropped.
    pub fn set_origin_table(&mut self, table: Arc<OriginTable>) {
        self.origin_table = Some(table);
    }

    /// The installed origin table, if any (checkpoints embed it so a
    /// restored network keeps rejecting unauthorized origins).
    pub(crate) fn origin_table_ref(&self) -> Option<&Arc<OriginTable>> {
        self.origin_table.as_ref()
    }

    /// Installs the shared attestation-verification cache. Verdicts
    /// are unchanged; repeated chain verifies skip the RSA math.
    pub fn set_verify_cache(&mut self, cache: Arc<VerifyCache>) {
        self.verify_cache = Some(cache);
    }

    /// Installs the shared private-verification service; subsequent
    /// best-route changes enqueue SMC verification requests.
    pub fn set_private_verifier(&mut self, verifier: Arc<PrivateVerifier>) {
        self.private_verifier = Some(verifier);
    }

    /// The signing identity (signed mode only).
    pub fn identity(&self) -> Option<&Identity> {
        match &self.security {
            SecurityMode::Signed { identity, .. } => Some(identity),
            SecurityMode::Plain => None,
        }
    }

    /// When this router first dropped an announcement for a security
    /// reason, if it ever did.
    pub fn first_security_reject(&self) -> Option<SimTime> {
        self.first_security_reject
    }

    /// Enables MRAI batching: updates are buffered and flushed at most
    /// once per `interval`.
    pub fn set_mrai(&mut self, interval: SimDuration) {
        self.mrai = Some(interval);
    }

    /// Adds a random extra delay in `[0, jitter]` each time the MRAI
    /// timer is armed, drawn from `rng` (a router-owned DRBG; see the
    /// field docs for why it must not be the engine's).
    pub fn set_mrai_jitter(&mut self, jitter: SimDuration, rng: HmacDrbg) {
        self.mrai_jitter = Some(jitter);
        self.jitter_rng = Some(rng);
    }

    /// Enables RFC 2439-style route-flap dampening with `policy`.
    pub fn set_dampening(&mut self, policy: DampeningPolicy) {
        self.dampening = Some(policy);
    }

    /// Dampening state for `(neighbor, prefix)`, if any (test/metric
    /// introspection).
    pub fn damp_state(&self, neighbor: Asn, prefix: Prefix) -> Option<&DampState> {
        self.damp_states.get(&(neighbor, prefix))
    }

    /// Registers a neighbor and the simulator node it lives at.
    pub fn add_neighbor(&mut self, asn: Asn, node: NodeId) {
        self.neighbor_nodes.insert(asn, node);
        self.asn_of_node.insert(node, asn);
        match self.neighbor_list.binary_search_by_key(&asn, |&(a, _)| a) {
            Ok(i) => self.neighbor_list[i] = (asn, node),
            Err(i) => self.neighbor_list.insert(i, (asn, node)),
        }
    }

    /// Originates `prefix` when the simulation starts.
    pub fn originate(&mut self, prefix: Prefix) {
        self.originate_at_start.push(prefix);
    }

    /// Schedules a local announce/withdraw after `delay`.
    pub fn schedule_event(&mut self, delay: SimDuration, event: LocalEvent) {
        self.schedule.push((delay, event));
    }

    /// This router's AS number.
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// Counters.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// The current best route for `prefix`, if any.
    pub fn best_route(&self, prefix: Prefix) -> Option<&Candidate> {
        self.loc_rib.get(prefix)
    }

    /// What this router last advertised to `neighbor` for `prefix`.
    pub fn advertised_to(&self, neighbor: Asn, prefix: Prefix) -> Option<&Route> {
        self.adj_out.get(neighbor, prefix)
    }

    /// The post-import route currently held from `neighbor` for `prefix`.
    pub fn route_from(&self, neighbor: Asn, prefix: Prefix) -> Option<&Route> {
        self.adj_in.get(neighbor, prefix)
    }

    /// Every (prefix, route) pair currently held from `neighbor`, in
    /// prefix order. The raw material for the `pvr-attack` gossip audit:
    /// a neighbor reveals only what the suspect itself announced to it.
    pub fn routes_from(&self, neighbor: Asn) -> Vec<(Prefix, &Route)> {
        self.adj_in.from_neighbor(neighbor)
    }

    /// Read access to the import policy.
    pub fn policy(&self) -> &PolicyConfig {
        &self.policy
    }

    /// The attested announcement (with its full chain) currently held
    /// from `neighbor` for `prefix` — what a PVR committer feeds into a
    /// round, and what a provider presents as `IgnoredInput` evidence.
    pub fn received_chain(&self, neighbor: Asn, prefix: Prefix) -> Option<&SignedRoute> {
        self.chains_in.get(&(neighbor, prefix))
    }

    /// All prefixes currently selected in the Loc-RIB, in prefix order.
    pub fn selected_prefixes(&self) -> Vec<Prefix> {
        self.loc_rib.prefixes().collect()
    }

    /// Every `(prefix, best route)` pair in the Loc-RIB, borrowed, in no
    /// particular order.
    pub fn best_routes(&self) -> impl Iterator<Item = (Prefix, &Candidate)> + '_ {
        self.loc_rib.iter()
    }

    /// `(Adj-RIB-In entries, Loc-RIB selections)` — the scale
    /// experiment E14's RIB-size accounting.
    pub fn rib_entry_counts(&self) -> (usize, usize) {
        (self.adj_in.len(), self.loc_rib.len())
    }

    fn start_originating(&mut self, prefix: Prefix) {
        let route = Route::originate(prefix);
        self.local.insert(prefix, Candidate::local(route));
    }

    /// Runs the decision process for `prefix`; on change, advertises or
    /// withdraws toward every neighbor per export policy. Outgoing
    /// updates are merged into `pending` (one UPDATE per neighbor).
    ///
    /// `hint` feeds the incremental decision path: an arrival that
    /// loses to the standing best returns after one comparison, with
    /// no candidate rescan and no export loop.
    fn reselect_and_export(
        &mut self,
        prefix: Prefix,
        hint: ReselectHint,
        now: SimTime,
        pending: &mut SortedMap<NodeId, BgpUpdate>,
    ) {
        let outcome =
            self.loc_rib.reselect_with_hint(prefix, &self.adj_in, self.local.get(&prefix), hint);
        match outcome {
            ReselectOutcome::UnchangedShortCircuit => {
                self.stats.reselect_short_circuits += 1;
                return;
            }
            ReselectOutcome::UnchangedScanned => return,
            ReselectOutcome::Changed => {}
        }
        self.stats.best_changes += 1;
        self.observe_churn(now);
        self.request_private_verification(prefix);
        self.export(prefix, now, pending);
    }

    /// Enqueues a private-verification request for the fresh selection
    /// of `prefix`, when the mode is on and there is something to
    /// verify: a *learned* best route with at least one competing
    /// candidate in the winning LOCAL_PREF tier. Each tier candidate's
    /// path length is one party's secret input; the claimed length is
    /// the selected route's. An honest selection always passes both
    /// circuits (the claim *is* the tier minimum, so every "claim ≤
    /// mine" vote is true).
    fn request_private_verification(&mut self, prefix: Prefix) {
        let Some(verifier) = &self.private_verifier else { return };
        let Some(best) = self.loc_rib.get(prefix) else { return };
        if best.learned_from.is_none() {
            return; // locally originated: no neighbors to compare
        }
        let pref = best.route.local_pref;
        let claimed_len = best.route.path_len() as u64;
        let candidate_lens: Vec<u64> = self
            .adj_in
            .candidate_refs(prefix)
            .filter(|(_, r)| r.local_pref == pref)
            .map(|(_, r)| r.path_len() as u64)
            .collect();
        if candidate_lens.len() < 2 {
            return; // a lone candidate leaks nothing by comparison
        }
        let seq = self.pvr_seq;
        self.pvr_seq += 1;
        verifier.enqueue(PrivateRequest {
            asn: self.asn,
            seq,
            prefix,
            claimed_len,
            candidate_lens,
        });
    }

    /// The per-neighbor half of [`reselect_and_export`]: advertises or
    /// withdraws the standing best route toward every live neighbor.
    ///
    /// [`reselect_and_export`]: BgpRouter::reselect_and_export
    fn export(&mut self, prefix: Prefix, now: SimTime, pending: &mut SortedMap<NodeId, BgpUpdate>) {
        // O(1)-ish clone: the candidate's route shares its path and
        // communities.
        let best = self.loc_rib.get(prefix).cloned();
        // The propagated route is identical toward every neighbor
        // (LOCAL_PREF/MED reset, path prepended): build it once, clone
        // refcounts per neighbor.
        let out_route = best.as_ref().map(|cand| cand.route.propagated_by(self.asn));
        for i in 0..self.neighbor_list.len() {
            // Indexed access keeps the borrow local so the RIB and
            // policy can be touched inside the loop.
            let (neighbor, node) = self.neighbor_list[i];
            // No updates toward a torn-down session; recovery
            // re-announces the whole Loc-RIB instead.
            if self.sessions_down.contains(&neighbor) {
                continue;
            }
            // A leaking router bypasses export policy entirely (still
            // skipping the neighbor the route came from: re-exporting to
            // the source would only be loop-rejected there).
            let exportable = best.as_ref().filter(|cand| {
                if self.malice.leak_all {
                    cand.learned_from != Some(neighbor)
                } else {
                    self.policy.may_export(&cand.route, cand.learned_from, neighbor)
                }
            });
            match exportable {
                Some(cand) => {
                    let out_route = out_route.as_ref().expect("built alongside best").clone();
                    // Skip if identical to what the neighbor already has.
                    if self.adj_out.get(neighbor, prefix) == Some(&out_route) {
                        continue;
                    }
                    let signed = self.sign_for(cand, &out_route, neighbor);
                    self.adj_out.advertise(neighbor, out_route);
                    pending.get_or_default(node).announces.push(signed);
                }
                None => {
                    if self.adj_out.withdraw(neighbor, prefix).is_some() {
                        pending.get_or_default(node).withdraws.push(prefix);
                        self.observe_withdraw(now);
                    }
                }
            }
        }
    }

    /// Builds the (possibly attested) announcement of `out_route` to
    /// `neighbor`, extending the received chain when one exists.
    fn sign_for(&self, cand: &Candidate, out_route: &Route, neighbor: Asn) -> SignedRoute {
        match &self.security {
            SecurityMode::Plain => SignedRoute::unsigned(out_route.clone()),
            SecurityMode::Signed { identity, .. } => match cand.learned_from {
                None => SignedRoute::originate(identity, out_route.clone(), neighbor),
                Some(from) => {
                    let received = self
                        .chains_in
                        .get(&(from, out_route.prefix))
                        .expect("signed mode: chain must exist for learned route");
                    SignedRoute::extend(received, identity, out_route.clone(), neighbor)
                }
            },
        }
    }

    /// Processes one announcement from `from` at simulated time `now`;
    /// returns the prefix if the Adj-RIB-In changed.
    fn process_announce(&mut self, from: Asn, sr: SignedRoute, now: SimTime) -> Option<Prefix> {
        // Attestation check first (signed mode only).
        if let SecurityMode::Signed { keys, .. } = &self.security {
            let mut lookup = self.verify_cache.as_deref().map(|cache| cache.at(now));
            let verdict = sr.verify_cached(self.asn, keys, lookup.as_mut());
            if let Some(used) = lookup.filter(|used| used.calls > 0) {
                self.stats.verify_calls += used.calls;
                self.stats.verify_cache_hits += used.hits;
                self.observe_verify(now, used.calls, used.hits);
            }
            if verdict.is_err() {
                self.stats.attestation_failures += 1;
                self.first_security_reject.get_or_insert(now);
                self.observe_reject(now, "attestation_reject");
                return None;
            }
            // The claimed first AS must be the actual sender.
            if sr.route.path.first_as() != Some(from) {
                self.stats.attestation_failures += 1;
                self.first_security_reject.get_or_insert(now);
                self.observe_reject(now, "attestation_reject");
                return None;
            }
        }
        // Origin authorization (RPKI-style) when a table is installed.
        if let Some(table) = &self.origin_table {
            if let Some(origin) = sr.route.path.origin_as() {
                if !table.permits(sr.route.prefix, origin) {
                    self.stats.origin_failures += 1;
                    self.first_security_reject.get_or_insert(now);
                    self.observe_reject(now, "origin_reject");
                    return None;
                }
            }
        }
        let prefix = sr.route.prefix;
        match self.policy.import(self.asn, from, sr.route.clone()) {
            Some(imported) => {
                self.stats.routes_accepted += 1;
                self.adj_in.insert(from, imported);
                // Chains only matter when this router re-signs
                // announcements (or feeds a PVR round); plain mode
                // skips the bookkeeping entirely.
                if matches!(self.security, SecurityMode::Signed { .. }) {
                    self.chains_in.insert((from, prefix), sr);
                }
                Some(prefix)
            }
            None => {
                self.stats.routes_rejected += 1;
                // An unimportable announcement still implicitly withdraws
                // any previous route from this neighbor.
                if self.adj_in.remove(from, prefix) {
                    self.chains_in.remove(&(from, prefix));
                    Some(prefix)
                } else {
                    None
                }
            }
        }
    }

    /// Sends (or MRAI-buffers) the accumulated per-neighbor updates in
    /// node order, leaving the drained scratch map's allocation behind
    /// for the next message.
    fn flush(&mut self, ctx: &mut Context<BgpUpdate>, pending: &mut SortedMap<NodeId, BgpUpdate>) {
        match self.mrai {
            None => {
                for (node, update) in pending.drain() {
                    if !update.is_empty() {
                        self.stats.updates_tx += 1;
                        ctx.send(node, update);
                    }
                }
            }
            Some(interval) => {
                let mut buffered_any = false;
                for (node, update) in pending.drain() {
                    if update.is_empty() {
                        continue;
                    }
                    self.mrai_buffer.entry(node).or_default().merge(update);
                    buffered_any = true;
                }
                if buffered_any && !self.mrai_armed {
                    self.mrai_armed = true;
                    let delay = interval + self.mrai_jitter_delay();
                    ctx.set_timer(delay, MRAI_TIMER);
                }
            }
        }
    }

    /// Sends everything in the MRAI buffer.
    fn flush_mrai_buffer(&mut self, ctx: &mut Context<BgpUpdate>) {
        self.mrai_armed = false;
        for (node, update) in std::mem::take(&mut self.mrai_buffer) {
            if !update.is_empty() {
                self.stats.updates_tx += 1;
                ctx.send(node, update);
            }
        }
    }

    /// The extra delay to add when arming the MRAI timer: a fresh draw
    /// in `[0, jitter]` from the router-owned DRBG, or zero when jitter
    /// is not configured.
    fn mrai_jitter_delay(&mut self) -> SimDuration {
        match (&mut self.jitter_rng, self.mrai_jitter) {
            (Some(rng), Some(jitter)) if jitter.as_micros() > 0 => {
                SimDuration::from_micros(rng.below(jitter.as_micros() + 1))
            }
            _ => SimDuration::ZERO,
        }
    }

    /// Records one flap of `(from, prefix)` against the dampening state
    /// (no-op with dampening off).
    fn penalize(&mut self, from: Asn, prefix: Prefix, now: SimTime) {
        let Some(policy) = self.dampening else { return };
        let state = self.damp_states.entry((from, prefix)).or_insert_with(|| DampState::new(now));
        state.penalize(now, &policy);
    }

    /// Session toward `peer` went down: discard anything buffered for
    /// it, forget what we advertised to it (its view of us is gone),
    /// flush every route learned over it, and flood withdraws to the
    /// surviving neighbors wherever that changes a selection.
    fn session_down(
        &mut self,
        peer: Asn,
        node: NodeId,
        now: SimTime,
        pending: &mut SortedMap<NodeId, BgpUpdate>,
    ) {
        if !self.sessions_down.insert(peer) {
            return; // already down
        }
        self.mrai_buffer.remove(&node);
        self.adj_out.flush_neighbor(peer);
        let lost: Vec<Prefix> =
            self.adj_in.from_neighbor(peer).into_iter().map(|(prefix, _)| prefix).collect();
        for prefix in lost {
            self.adj_in.remove(peer, prefix);
            self.chains_in.remove(&(peer, prefix));
            self.parked.remove(&(peer, prefix));
            // A session loss withdraws the route as far as dampening is
            // concerned (RFC 2439 counts it as a flap).
            self.penalize(peer, prefix, now);
            self.reselect_and_export(prefix, ReselectHint::Neighbor(peer), now, pending);
        }
    }

    /// Session toward `peer` recovered: re-announce the full Loc-RIB
    /// per export policy (Adj-RIB-Out for the peer was flushed on the
    /// way down, so everything exportable goes out again).
    fn session_up(
        &mut self,
        peer: Asn,
        node: NodeId,
        _now: SimTime,
        pending: &mut SortedMap<NodeId, BgpUpdate>,
    ) {
        if !self.sessions_down.remove(&peer) {
            return; // was not down (e.g. plan started with LinkUp)
        }
        let prefixes: Vec<Prefix> = self.loc_rib.prefixes().collect();
        for prefix in prefixes {
            let Some(cand) = self.loc_rib.get(prefix).cloned() else { continue };
            let exportable = if self.malice.leak_all {
                cand.learned_from != Some(peer)
            } else {
                self.policy.may_export(&cand.route, cand.learned_from, peer)
            };
            if !exportable {
                continue;
            }
            let out_route = cand.route.propagated_by(self.asn);
            if self.adj_out.get(peer, prefix) == Some(&out_route) {
                continue;
            }
            let signed = self.sign_for(&cand, &out_route, peer);
            self.adj_out.advertise(peer, out_route);
            pending.get_or_default(node).announces.push(signed);
        }
    }

    /// Dampening reuse tick: decay every tracked penalty, release pairs
    /// that fell below the reuse threshold (re-processing their parked
    /// announcement), drop fully decayed state, and re-arm while any
    /// pair stays suppressed.
    fn damp_tick(&mut self, ctx: &mut Context<BgpUpdate>) {
        self.damp_timer_armed = false;
        let Some(policy) = self.dampening else { return };
        let now = ctx.now();
        let mut released = Vec::new();
        let mut expired = Vec::new();
        for (&key, state) in self.damp_states.iter_mut() {
            let was_suppressed = state.suppressed;
            let still_suppressed = state.refresh(now, &policy);
            if was_suppressed && !still_suppressed {
                released.push(key);
            }
            if !still_suppressed && state.penalty == 0 {
                expired.push(key);
            }
        }
        for key in expired {
            self.damp_states.remove(&key);
        }
        let mut pending = std::mem::take(&mut self.pending_scratch);
        for (from, prefix) in released {
            if let Some(sr) = self.parked.remove(&(from, prefix)) {
                if self.process_announce(from, sr, now).is_some() {
                    self.reselect_and_export(
                        prefix,
                        ReselectHint::Neighbor(from),
                        now,
                        &mut pending,
                    );
                }
            }
        }
        self.flush(ctx, &mut pending);
        self.pending_scratch = pending;
        self.arm_damp_timer_if_needed(ctx);
    }

    /// Arms the dampening reuse tick when any pair is suppressed and no
    /// tick is already pending (keeps the simulation quiescent once all
    /// penalties decay away).
    fn arm_damp_timer_if_needed(&mut self, ctx: &mut Context<BgpUpdate>) {
        let Some(policy) = self.dampening else { return };
        if self.damp_timer_armed {
            return;
        }
        if self.damp_states.values().any(|state| state.suppressed) {
            self.damp_timer_armed = true;
            ctx.set_timer(policy.reuse_tick, DAMP_TIMER);
        }
    }

    /// Serializes every field the event loop mutates — RIBs, chains,
    /// MRAI buffer, dampening state, session set, counters, recorders —
    /// in a fixed deterministic order. Static configuration (policy,
    /// keys, neighbors, schedule) is *not* written: restore rebuilds it
    /// from the topology and overlays this dynamic state on top.
    pub(crate) fn save_dynamic(&self, buf: &mut Vec<u8>) {
        // Adj-RIB-In: routes carry their own prefix, so each cell is
        // (neighbor, route); prefix-major, neighbor-ascending order.
        (self.adj_in.len() as u32).encode(buf);
        for prefix in self.adj_in.prefixes().collect::<Vec<_>>() {
            for (n, r) in self.adj_in.candidate_refs(prefix) {
                n.encode(buf);
                r.encode(buf);
            }
        }
        // Loc-RIB: candidates re-key by their route's prefix on load.
        (self.loc_rib.len() as u32).encode(buf);
        for prefix in self.loc_rib.prefixes().collect::<Vec<_>>() {
            self.loc_rib.get(prefix).expect("listed prefix").encode(buf);
        }
        let adj_out = self.adj_out.entries();
        (adj_out.len() as u32).encode(buf);
        for (n, _, r) in adj_out {
            n.encode(buf);
            r.encode(buf);
        }
        (self.chains_in.len() as u32).encode(buf);
        for (&(n, _), sr) in &self.chains_in {
            n.encode(buf);
            sr.encode(buf);
        }
        (self.local.len() as u32).encode(buf);
        for cand in self.local.values() {
            cand.encode(buf);
        }
        (self.mrai_buffer.len() as u32).encode(buf);
        for (&node, update) in &self.mrai_buffer {
            (node as u64).encode(buf);
            update.encode(buf);
        }
        self.mrai_armed.encode(buf);
        match &self.jitter_rng {
            None => false.encode(buf),
            Some(rng) => {
                true.encode(buf);
                buf.extend_from_slice(&rng.state_bytes());
            }
        }
        (self.damp_states.len() as u32).encode(buf);
        for (&(n, p), state) in &self.damp_states {
            n.encode(buf);
            p.encode(buf);
            state.penalty.encode(buf);
            state.last_decay.encode(buf);
            state.suppressed.encode(buf);
        }
        (self.parked.len() as u32).encode(buf);
        for (&(n, _), sr) in &self.parked {
            n.encode(buf);
            sr.encode(buf);
        }
        self.damp_timer_armed.encode(buf);
        (self.sessions_down.len() as u32).encode(buf);
        for &n in &self.sessions_down {
            n.encode(buf);
        }
        self.pvr_seq.encode(buf);
        self.first_security_reject.encode(buf);
        // Counters by name, so a build whose stats struct drifted
        // rejects the checkpoint instead of misattributing counts.
        let fields = self.stats.fields();
        (fields.len() as u32).encode(buf);
        for (name, value) in fields {
            name.to_string().encode(buf);
            value.encode(buf);
        }
        match &self.obs_timeline {
            None => false.encode(buf),
            Some(tl) => {
                true.encode(buf);
                tl.window_us().encode(buf);
                (tl.channels() as u64).encode(buf);
                (tl.cells().len() as u32).encode(buf);
                for (&window, row) in tl.cells() {
                    window.encode(buf);
                    for &v in row {
                        v.encode(buf);
                    }
                }
            }
        }
        (self.journal.capacity() as u64).encode(buf);
        self.journal.evicted().encode(buf);
        (self.journal.len() as u32).encode(buf);
        for e in self.journal.entries() {
            e.t_us.encode(buf);
            e.kind.to_string().encode(buf);
            e.value.encode(buf);
        }
    }

    /// Decodes and applies the counterpart of
    /// [`save_dynamic`](Self::save_dynamic). Everything is decoded and
    /// validated before any field is touched, so a corrupt blob leaves
    /// the router exactly as built.
    pub(crate) fn load_dynamic(&mut self, r: &mut Reader<'_>) -> Result<(), WireError> {
        let mut adj_in = AdjRibIn::new();
        for _ in 0..u32::decode(r)? {
            let n = Asn::decode(r)?;
            adj_in.insert(n, Route::decode(r)?);
        }
        let mut loc_rib = LocRib::new();
        for _ in 0..u32::decode(r)? {
            let cand = Candidate::decode(r)?;
            loc_rib.install(cand.route.prefix, cand);
        }
        let mut adj_out = AdjRibOut::new();
        for _ in 0..u32::decode(r)? {
            let n = Asn::decode(r)?;
            adj_out.advertise(n, Route::decode(r)?);
        }
        let mut chains_in = BTreeMap::new();
        for _ in 0..u32::decode(r)? {
            let n = Asn::decode(r)?;
            let sr = SignedRoute::decode(r)?;
            chains_in.insert((n, sr.route.prefix), sr);
        }
        let mut local = BTreeMap::new();
        for _ in 0..u32::decode(r)? {
            let cand = Candidate::decode(r)?;
            local.insert(cand.route.prefix, cand);
        }
        let mut mrai_buffer = BTreeMap::new();
        for _ in 0..u32::decode(r)? {
            let node = u64::decode(r)? as NodeId;
            if !self.asn_of_node.contains_key(&node) {
                return Err(WireError::Invalid("MRAI buffer entry for a non-neighbor node"));
            }
            mrai_buffer.insert(node, BgpUpdate::decode(r)?);
        }
        let mrai_armed = bool::decode(r)?;
        let jitter_rng = if bool::decode(r)? {
            Some(HmacDrbg::from_state_bytes(&r.take_array::<{ HmacDrbg::STATE_LEN }>()?))
        } else {
            None
        };
        let mut damp_states = BTreeMap::new();
        for _ in 0..u32::decode(r)? {
            let key = (Asn::decode(r)?, Prefix::decode(r)?);
            let state = DampState {
                penalty: u64::decode(r)?,
                last_decay: SimTime::decode(r)?,
                suppressed: bool::decode(r)?,
            };
            damp_states.insert(key, state);
        }
        let mut parked = BTreeMap::new();
        for _ in 0..u32::decode(r)? {
            let n = Asn::decode(r)?;
            let sr = SignedRoute::decode(r)?;
            parked.insert((n, sr.route.prefix), sr);
        }
        let damp_timer_armed = bool::decode(r)?;
        let mut sessions_down = BTreeSet::new();
        for _ in 0..u32::decode(r)? {
            let n = Asn::decode(r)?;
            if !self.neighbor_nodes.contains_key(&n) {
                return Err(WireError::Invalid("torn-down session with a non-neighbor"));
            }
            sessions_down.insert(n);
        }
        let pvr_seq = u64::decode(r)?;
        let first_security_reject = Option::<SimTime>::decode(r)?;
        let mut stat_fields = Vec::new();
        for _ in 0..u32::decode(r)? {
            stat_fields.push((String::decode(r)?, u64::decode(r)?));
        }
        let stats = RouterStats::from_fields(stat_fields.iter().map(|(n, v)| (n.as_str(), *v)))
            .ok_or(WireError::Invalid("router stats field list does not match this build"))?;
        let obs_timeline = if bool::decode(r)? {
            let window_us = u64::decode(r)?;
            if window_us == 0 {
                return Err(WireError::Invalid("timeline window must be positive"));
            }
            let channels = u64::decode(r)? as usize;
            if channels != pvr_obs::timeline::RT_CHANNELS {
                return Err(WireError::Invalid("router timeline channel count"));
            }
            let mut cells = BTreeMap::new();
            for _ in 0..u32::decode(r)? {
                let window = u64::decode(r)?;
                let mut row = Vec::with_capacity(channels);
                for _ in 0..channels {
                    row.push(u64::decode(r)?);
                }
                if cells.insert(window, row).is_some() {
                    return Err(WireError::Invalid("duplicate timeline window"));
                }
            }
            Some(pvr_obs::TimelineRecorder::from_cells(window_us, channels, cells))
        } else {
            None
        };
        let journal_capacity = u64::decode(r)? as usize;
        let journal_evicted = u64::decode(r)?;
        let mut journal_entries = Vec::new();
        for _ in 0..u32::decode(r)? {
            let t_us = u64::decode(r)?;
            let kind_owned = String::decode(r)?;
            // The journal stores interned `&'static str` labels;
            // re-intern against the table of every label the router
            // ever records.
            let kind = JOURNAL_KINDS
                .iter()
                .find(|k| **k == kind_owned)
                .copied()
                .ok_or(WireError::Invalid("unknown journal event kind"))?;
            journal_entries.push(pvr_obs::JournalEntry { t_us, kind, value: u64::decode(r)? });
        }

        self.adj_in = adj_in;
        self.loc_rib = loc_rib;
        self.adj_out = adj_out;
        self.chains_in = chains_in;
        self.local = local;
        self.mrai_buffer = mrai_buffer;
        self.mrai_armed = mrai_armed;
        self.jitter_rng = jitter_rng;
        self.damp_states = damp_states;
        self.parked = parked;
        self.damp_timer_armed = damp_timer_armed;
        self.sessions_down = sessions_down;
        self.pvr_seq = pvr_seq;
        self.first_security_reject = first_security_reject;
        self.stats = stats;
        self.obs_timeline = obs_timeline;
        self.journal =
            pvr_obs::EventJournal::restore(journal_capacity, journal_evicted, journal_entries);
        // The checkpointed run had already started: start-time
        // originations live in `local` now, and `on_start` will not run
        // again on the restored engine.
        self.originate_at_start.clear();
        Ok(())
    }
}

/// Every label the router ever journals. Checkpoint restore re-interns
/// decoded labels against this table (journal entries carry
/// `&'static str` kinds).
const JOURNAL_KINDS: [&str; 5] =
    ["best_change", "verify", "dampening_suppress", "attestation_reject", "origin_reject"];

impl Agent<BgpUpdate> for BgpRouter {
    fn on_start(&mut self, ctx: &mut Context<BgpUpdate>) {
        for (i, (delay, _)) in self.schedule.iter().enumerate() {
            ctx.set_timer(*delay, i as u64);
        }
        let now = ctx.now();
        let prefixes = std::mem::take(&mut self.originate_at_start);
        let mut pending = std::mem::take(&mut self.pending_scratch);
        for prefix in prefixes {
            self.start_originating(prefix);
            self.reselect_and_export(prefix, ReselectHint::Full, now, &mut pending);
        }
        self.flush(ctx, &mut pending);
        self.pending_scratch = pending;
    }

    fn on_message(&mut self, ctx: &mut Context<BgpUpdate>, from_node: NodeId, msg: BgpUpdate) {
        // Identify the sending AS from the node id.
        let from = match self.asn_of_node.get(&from_node) {
            Some(&a) => a,
            None => return, // not a configured neighbor: ignore
        };
        // Torn session: a BGP speaker cannot receive on a closed TCP
        // connection. In-flight updates sent before the teardown are
        // discarded like bytes in a dead socket; the flushed Adj-RIB-In
        // is rebuilt solely from the peer's re-announcement at session
        // re-establishment. Without this, a stale in-flight announce
        // could repopulate state the peer no longer tracks (its
        // Adj-RIB-Out was flushed too), and no withdraw would ever
        // correct it.
        if self.sessions_down.contains(&from) {
            return;
        }
        self.stats.updates_rx += 1;
        let now = ctx.now();
        let mut touched = std::mem::take(&mut self.touched_scratch);
        for prefix in msg.withdraws {
            if self.adj_in.remove(from, prefix) {
                self.chains_in.remove(&(from, prefix));
                self.penalize(from, prefix, now);
                touched.push(prefix);
            } else if self.parked.remove(&(from, prefix)).is_some() {
                // Withdrawing a parked (suppressed) announcement is
                // still a flap: the penalty stays topped up while the
                // route keeps oscillating behind the suppression.
                self.penalize(from, prefix, now);
            }
        }
        for sr in msg.announces {
            if let Some(policy) = self.dampening {
                let key = (from, sr.route.prefix);
                if let Some(state) = self.damp_states.get_mut(&key) {
                    if state.refresh(now, &policy) {
                        self.stats.dampening_suppressed += 1;
                        self.journal.record(now.as_micros(), "dampening_suppress", 1);
                        self.parked.insert(key, sr);
                        continue;
                    }
                }
            }
            if let Some(p) = self.process_announce(from, sr, now) {
                touched.push(p);
            }
        }
        let mut pending = std::mem::take(&mut self.pending_scratch);
        touched.sort();
        touched.dedup();
        // Every change in this message came from `from`'s session, so
        // the incremental decision path applies to each prefix.
        for &prefix in &touched {
            self.reselect_and_export(prefix, ReselectHint::Neighbor(from), now, &mut pending);
        }
        touched.clear();
        self.touched_scratch = touched;
        self.flush(ctx, &mut pending);
        self.pending_scratch = pending;
        self.arm_damp_timer_if_needed(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context<BgpUpdate>, timer: u64) {
        if timer == MRAI_TIMER {
            self.flush_mrai_buffer(ctx);
            return;
        }
        if timer == DAMP_TIMER {
            self.damp_tick(ctx);
            return;
        }
        if timer == PVR_VERDICT_TIMER {
            // SMC verdicts due now land in this router's mailbox; the
            // drain is pure accounting (no routing action, no new
            // events), so verification latency extends convergence
            // wall-clock without perturbing route selection.
            if let Some(verifier) = &self.private_verifier {
                verifier.deliver(self.asn, ctx.now());
            }
            return;
        }
        let (_, event) = match self.schedule.get(timer as usize) {
            Some(e) => e.clone(),
            None => return,
        };
        let prefix = match event {
            LocalEvent::Announce(p) => {
                self.start_originating(p);
                p
            }
            LocalEvent::Withdraw(p) => {
                self.local.remove(&p);
                p
            }
        };
        let mut pending = std::mem::take(&mut self.pending_scratch);
        // A local origination/withdrawal changed the local candidate,
        // which the Neighbor hint cannot cover.
        self.reselect_and_export(prefix, ReselectHint::Full, ctx.now(), &mut pending);
        self.flush(ctx, &mut pending);
        self.pending_scratch = pending;
    }

    fn on_session(&mut self, ctx: &mut Context<BgpUpdate>, peer: NodeId, up: bool) {
        let Some(&asn) = self.asn_of_node.get(&peer) else { return };
        let now = ctx.now();
        let mut pending = std::mem::take(&mut self.pending_scratch);
        if up {
            self.session_up(asn, peer, now, &mut pending);
        } else {
            self.session_down(asn, peer, now, &mut pending);
        }
        self.flush(ctx, &mut pending);
        self.pending_scratch = pending;
        self.arm_damp_timer_if_needed(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
