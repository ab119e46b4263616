//! S-BGP-style route attestations.
//!
//! The paper builds on secure BGP (§1, citing Kent et al. \[13\]): "Secure
//! variants of BGP, such as S-BGP, have been proposed as mechanisms for
//! ISPs to check that a routing announcement does correspond to the
//! claimed path and destination" — and PVR's condition 1 (§3.2) relies on
//! exactly this: "To support condition 1, we can sign all the routing
//! announcements."
//!
//! Construction: when AS `s` announces prefix `p` with path `P` to
//! neighbor `t`, it appends an attestation — its signature over
//! `(p, P, t)`. The chain of attestations, one per AS on the path, proves
//! that every hop authorized the announcement to the next hop, so a
//! receiver can check that the route "was provided to A by some N_i".
//!
//! Not covered by signatures (as in real S-BGP): LOCAL_PREF, MED, and
//! communities — they are non-transitive or locally meaningful.

use crate::path::AsPath;
use crate::route::Route;
use crate::types::{Asn, Prefix};
use pvr_crypto::encoding::{decode_seq, Reader, Wire, WireError};
use pvr_crypto::keys::{Identity, KeyStore};
use pvr_crypto::rsa::RsaSignature;
use pvr_crypto::sha256::sha256_concat;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One hop's signature over (prefix, path-so-far, intended receiver).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Attestation {
    /// The announced prefix.
    pub prefix: Prefix,
    /// The path at signing time, nearest AS (the signer) first.
    pub path: AsPath,
    /// The AS the announcement was directed to.
    pub target: Asn,
    /// The signing AS (must equal `path.first_as()`).
    pub signer: Asn,
    /// Signature over the canonical encoding of the above.
    pub signature: RsaSignature,
}

impl Attestation {
    /// Writes the canonical signing payload into `buf` (which is
    /// cleared first). Chain verification reuses one growable buffer
    /// across all attestations instead of allocating per hop.
    fn signed_bytes_into(
        buf: &mut Vec<u8>,
        prefix: &Prefix,
        path: &AsPath,
        target: Asn,
        signer: Asn,
    ) {
        buf.clear();
        buf.extend_from_slice(b"pvr.sbgp.v1");
        prefix.encode(buf);
        path.encode(buf);
        target.encode(buf);
        signer.encode(buf);
    }

    fn signed_bytes(prefix: &Prefix, path: &AsPath, target: Asn, signer: Asn) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64);
        Self::signed_bytes_into(&mut buf, prefix, path, target, signer);
        buf
    }

    /// Creates `identity`'s attestation for announcing (`prefix`, `path`)
    /// to `target`.
    pub fn create(identity: &Identity, prefix: Prefix, path: &AsPath, target: Asn) -> Attestation {
        let signer = Asn(identity.id() as u32);
        debug_assert_eq!(path.first_as(), Some(signer), "signer must head the path");
        let bytes = Self::signed_bytes(&prefix, path, target, signer);
        Attestation { prefix, path: path.clone(), target, signer, signature: identity.sign(&bytes) }
    }

    /// Verifies the signature.
    pub fn verify(&self, keys: &KeyStore) -> Result<(), SbgpError> {
        let bytes = Self::signed_bytes(&self.prefix, &self.path, self.target, self.signer);
        keys.verify(self.signer.principal(), &bytes, &self.signature)
            .map_err(|_| SbgpError::BadSignature(self.signer))
    }
}

impl Wire for Attestation {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.prefix.encode(buf);
        self.path.encode(buf);
        self.target.encode(buf);
        self.signer.encode(buf);
        self.signature.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Attestation {
            prefix: Prefix::decode(r)?,
            path: AsPath::decode(r)?,
            target: Asn::decode(r)?,
            signer: Asn::decode(r)?,
            signature: RsaSignature::decode(r)?,
        })
    }
    fn encoded_len(&self) -> usize {
        self.prefix.encoded_len()
            + self.path.encoded_len()
            + 4 // target
            + 4 // signer
            + self.signature.encoded_len()
    }
}

/// A persistent (structurally shared) attestation chain.
///
/// Propagating a signed route appends exactly one attestation to the
/// chain it arrived with, so chains across a network form a tree of
/// shared prefixes. The pre-E14 representation (`Vec<Attestation>`)
/// deep-copied the whole prefix — path slices and signature bytes — at
/// every hop and for every per-neighbor clone. This cons list shares
/// the parent instead: [`AttestationChain::push`] allocates one node,
/// and every clone anywhere downstream is a reference-count bump.
///
/// The newest attestation (last hop's) is the list head; origin-first
/// order — the canonical wire and verification order — is recovered by
/// collecting references, which chains are short enough (path length)
/// to make free compared to one RSA verify.
#[derive(Clone, Default)]
pub struct AttestationChain(Option<Arc<ChainNode>>);

#[derive(Debug)]
struct ChainNode {
    att: Attestation,
    parent: Option<Arc<ChainNode>>,
    /// Number of attestations up to and including this node.
    len: u32,
}

impl AttestationChain {
    /// The empty chain (an unsigned route).
    pub fn empty() -> AttestationChain {
        AttestationChain(None)
    }

    /// Builds a chain from origin-first attestations (wire order). Used
    /// by decoding, tests, and attack strategies that forge chains
    /// explicitly.
    pub fn from_attestations(atts: Vec<Attestation>) -> AttestationChain {
        let mut chain = AttestationChain::empty();
        for att in atts {
            chain = chain.push(att);
        }
        chain
    }

    /// A new chain extending `self` with `att` (the newest hop's
    /// attestation). `self` is shared, never copied.
    pub fn push(&self, att: Attestation) -> AttestationChain {
        let len = self.len() as u32 + 1;
        AttestationChain(Some(Arc::new(ChainNode { att, parent: self.0.clone(), len })))
    }

    /// Number of attestations.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |n| n.len as usize)
    }

    /// True when the chain holds no attestations.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// The most recent attestation (the last signer's), if any.
    pub fn newest(&self) -> Option<&Attestation> {
        self.0.as_deref().map(|n| &n.att)
    }

    /// The origin AS's attestation (the oldest), if any.
    pub fn origin(&self) -> Option<&Attestation> {
        let mut node = self.0.as_deref()?;
        while let Some(parent) = node.parent.as_deref() {
            node = parent;
        }
        Some(&node.att)
    }

    /// Iterates newest-first (list order; O(1) per step).
    pub fn iter_newest_first(&self) -> impl Iterator<Item = &Attestation> {
        std::iter::successors(self.0.as_deref(), |n| n.parent.as_deref()).map(|n| &n.att)
    }

    /// References to all attestations in canonical origin-first order.
    pub fn to_refs(&self) -> Vec<&Attestation> {
        let mut refs: Vec<&Attestation> = self.iter_newest_first().collect();
        refs.reverse();
        refs
    }

    /// Clones all attestations in canonical origin-first order.
    pub fn to_vec(&self) -> Vec<Attestation> {
        self.to_refs().into_iter().cloned().collect()
    }
}

impl PartialEq for AttestationChain {
    fn eq(&self, other: &Self) -> bool {
        if self.len() != other.len() {
            return false;
        }
        let mut a = self.0.as_deref();
        let mut b = other.0.as_deref();
        while let (Some(x), Some(y)) = (a, b) {
            // Shared suffixes compare in O(1); a chain equals itself or
            // a clone without walking.
            if std::ptr::eq(x, y) {
                return true;
            }
            if x.att != y.att {
                return false;
            }
            a = x.parent.as_deref();
            b = y.parent.as_deref();
        }
        true
    }
}

impl Eq for AttestationChain {}

impl std::fmt::Debug for AttestationChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.to_refs()).finish()
    }
}

/// A network-wide RSA-verification memo for attestation signatures.
///
/// `sbgp` re-verifies the *entire* chain at every import hop, so a
/// route that crosses `h` ASes costs `O(h²)` RSA verifies network-wide
/// — and every prefix-suffix attestation past the first hop is one
/// some router already checked. One cache shared per shard of a
/// [`crate::BgpNetwork`] collapses that: the verdict for an
/// attestation depends only on the signer, the signed payload, and
/// the signature bytes, all captured in the cache key.
///
/// The key is `(signer, sha256(signed_bytes ‖ signature))`. Hashing
/// the signature *with* the payload is load-bearing: a forged
/// attestation carries the same signed bytes as the genuine one but a
/// different (invalid) signature, and a payload-only key would let the
/// genuine chain's cached `true` launder the forgery (pinned by the
/// cache regression tests in `tests/detection_matrix.rs`).
///
/// A cache memo exported for checkpointing: sorted
/// `(signer, digest, verdict)` entries plus the call/hit counters.
pub(crate) type CacheState = (Vec<(Asn, [u8; 32], bool)>, u64, u64);

/// Interior mutability is a `Mutex` so the cache can be shared
/// read-only across router agents; a simulation is single-threaded,
/// so the lock is never contended.
#[derive(Debug, Default)]
pub struct VerifyCache {
    verdicts: Mutex<HashMap<(Asn, [u8; 32]), bool>>,
    calls: AtomicU64,
    hits: AtomicU64,
}

impl VerifyCache {
    /// An empty cache.
    pub fn new() -> VerifyCache {
        VerifyCache::default()
    }

    /// Total attestation-signature checks requested through the cache.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// How many of those were answered from the memo (no RSA math).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Exports the memo for checkpointing: `(entries, calls, hits)`
    /// with entries in `(signer, digest)` order, so the same cache
    /// state always serializes to the same bytes.
    pub(crate) fn export_state(&self) -> CacheState {
        let mut entries: Vec<(Asn, [u8; 32], bool)> = self
            .verdicts
            .lock()
            .unwrap()
            .iter()
            .map(|(&(signer, digest), &verdict)| (signer, digest, verdict))
            .collect();
        entries.sort_unstable_by_key(|&(signer, digest, _)| (signer, digest));
        (entries, self.calls(), self.hits())
    }

    /// Replaces the memo with a checkpointed state. Restore only: the
    /// cache is shared by `Arc`, so this goes through the interior
    /// mutability the hot path already uses.
    pub(crate) fn load_state(&self, entries: Vec<(Asn, [u8; 32], bool)>, calls: u64, hits: u64) {
        let mut verdicts = self.verdicts.lock().unwrap();
        verdicts.clear();
        for (signer, digest, verdict) in entries {
            verdicts.insert((signer, digest), verdict);
        }
        drop(verdicts);
        self.calls.store(calls, Ordering::Relaxed);
        self.hits.store(hits, Ordering::Relaxed);
    }

    /// Checks `signer`'s signature over `signed_bytes`, consulting the
    /// memo first. The verdict (valid or not) is cached either way —
    /// a forged chain replayed at every hop would otherwise cost the
    /// full RSA verify each time it is rejected.
    fn check(&self, signer: Asn, signed_bytes: &[u8], sig: &RsaSignature, keys: &KeyStore) -> bool {
        self.calls.fetch_add(1, Ordering::Relaxed);
        let digest = sha256_concat(&[signed_bytes, &sig.0]);
        let mut key = [0u8; 32];
        key.copy_from_slice(digest.as_bytes());
        if let Some(&verdict) = self.verdicts.lock().unwrap().get(&(signer, key)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return verdict;
        }
        let verdict = keys.verify(signer.principal(), signed_bytes, sig).is_ok();
        self.verdicts.lock().unwrap().insert((signer, key), verdict);
        verdict
    }
}

/// A route bundled with its attestation chain (origin's attestation
/// first on the wire). An empty chain means the route is unsigned
/// (plain BGP mode).
///
/// The chain is a shared persistent list: cloning a `SignedRoute` — as
/// per-neighbor fan-out, RIB storage, and delivery tracing all do —
/// never copies attestation bytes, and [`SignedRoute::extend`] shares
/// the received chain rather than re-copying its prefix. Forged or
/// hand-built chains are constructed explicitly via
/// [`AttestationChain::from_attestations`] and
/// [`SignedRoute::with_chain`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SignedRoute {
    /// The route as announced.
    pub route: Route,
    /// Attestation chain; length equals the path length when signed,
    /// zero when unsigned.
    chain: AttestationChain,
}

impl SignedRoute {
    /// Wraps a route without signatures (plain BGP).
    pub fn unsigned(route: Route) -> SignedRoute {
        SignedRoute { route, chain: AttestationChain::empty() }
    }

    /// Bundles a route with an explicitly built chain (decoders, tests,
    /// and attack strategies forging or splicing chains).
    pub fn with_chain(route: Route, chain: AttestationChain) -> SignedRoute {
        SignedRoute { route, chain }
    }

    /// The attestation chain.
    pub fn chain(&self) -> &AttestationChain {
        &self.chain
    }

    /// True if the route carries an attestation chain.
    pub fn is_signed(&self) -> bool {
        !self.chain.is_empty()
    }

    /// Originates a signed route: `identity`'s AS announces its own
    /// prefix to `target`. The route's path must be exactly `[signer]`.
    pub fn originate(identity: &Identity, route: Route, target: Asn) -> SignedRoute {
        assert_eq!(
            route.path.asns(),
            &[Asn(identity.id() as u32)],
            "origination path must be [self]"
        );
        let att = Attestation::create(identity, route.prefix, &route.path, target);
        SignedRoute { route, chain: AttestationChain::empty().push(att) }
    }

    /// Extends a received signed route for re-announcement: `identity`'s
    /// AS prepends itself (already done in `route`) and signs toward
    /// `target`. `route.path` must start with the signer and continue
    /// with the received chain's path. The received chain is shared,
    /// not copied.
    pub fn extend(
        received: &SignedRoute,
        identity: &Identity,
        route: Route,
        target: Asn,
    ) -> SignedRoute {
        debug_assert_eq!(route.path.first_as(), Some(Asn(identity.id() as u32)));
        let att = Attestation::create(identity, route.prefix, &route.path, target);
        SignedRoute { route, chain: received.chain.push(att) }
    }

    /// Verifies the whole chain for an announcement delivered to
    /// `receiver`. Checks, per §1's S-BGP description, that the
    /// announcement corresponds to the claimed path and destination:
    ///
    /// * one attestation per AS on the path, origin first;
    /// * each attestation's path is the correct suffix of the route path;
    /// * each attestation's target is the next AS (the last one's is
    ///   `receiver`);
    /// * every signature verifies.
    pub fn verify(&self, receiver: Asn, keys: &KeyStore) -> Result<(), SbgpError> {
        self.verify_cached(receiver, keys, None)
    }

    /// [`SignedRoute::verify`] with an optional network-wide
    /// [`VerifyCache`]: verdicts are identical with or without the
    /// cache, only the number of RSA operations differs.
    pub fn verify_cached(
        &self,
        receiver: Asn,
        keys: &KeyStore,
        cache: Option<&VerifyCache>,
    ) -> Result<(), SbgpError> {
        let path = self.route.path.asns();
        if path.is_empty() {
            return Err(SbgpError::EmptyPath);
        }
        if self.route.path.has_loop() {
            return Err(SbgpError::PathLoop);
        }
        if self.chain.len() != path.len() {
            return Err(SbgpError::ChainLength { expected: path.len(), got: self.chain.len() });
        }
        let m = path.len();
        // One signing-payload buffer for the whole chain; the ref
        // collection restores origin-first order so error precedence
        // matches the pre-sharing implementation exactly.
        let mut buf = Vec::with_capacity(64);
        for (j, att) in self.chain.to_refs().into_iter().enumerate() {
            // Attestation j (origin first) was made by path[m-1-j].
            let signer_idx = m - 1 - j;
            let expected_signer = path[signer_idx];
            let expected_target = if signer_idx == 0 { receiver } else { path[signer_idx - 1] };
            if att.signer != expected_signer {
                return Err(SbgpError::WrongSigner { expected: expected_signer, got: att.signer });
            }
            if att.prefix != self.route.prefix {
                return Err(SbgpError::PrefixMismatch);
            }
            if att.path.asns() != &path[signer_idx..] {
                return Err(SbgpError::PathMismatch(att.signer));
            }
            if att.target != expected_target {
                return Err(SbgpError::WrongTarget { expected: expected_target, got: att.target });
            }
            Attestation::signed_bytes_into(
                &mut buf,
                &att.prefix,
                &att.path,
                att.target,
                att.signer,
            );
            let ok = match cache {
                Some(cache) => cache.check(att.signer, &buf, &att.signature, keys),
                None => keys.verify(att.signer.principal(), &buf, &att.signature).is_ok(),
            };
            if !ok {
                return Err(SbgpError::BadSignature(att.signer));
            }
        }
        Ok(())
    }
}

impl Wire for SignedRoute {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.route.encode(buf);
        let refs = self.chain.to_refs();
        (refs.len() as u32).encode(buf);
        for att in refs {
            att.encode(buf);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(SignedRoute {
            route: Route::decode(r)?,
            chain: AttestationChain::from_attestations(decode_seq(r)?),
        })
    }
    fn encoded_len(&self) -> usize {
        self.route.encoded_len()
            + 4
            + self.chain.iter_newest_first().map(Wire::encoded_len).sum::<usize>()
    }
}

/// Builds a genuine `hops`-long attestation chain AS1 → … → AS`hops`,
/// announced toward AS`hops+1`, plus the populated key store. The
/// shared fixture behind the E13 experiment, the chain-verify bench,
/// and the cache regression tests — one place to change if chain
/// conventions ever do.
pub fn demo_chain(
    hops: u32,
    key_bits: usize,
    seed: &[u8],
) -> (SignedRoute, KeyStore, /* receiver */ Asn) {
    use pvr_crypto::drbg::HmacDrbg;
    assert!(hops >= 1, "a chain needs at least an origin");
    let mut rng = HmacDrbg::new(seed);
    let ids: Vec<Identity> =
        (1..=hops as u64).map(|a| Identity::generate(a, key_bits, &mut rng)).collect();
    let mut keys = KeyStore::new();
    for id in &ids {
        keys.register_identity(id);
    }
    let prefix = Prefix::parse("10.77.0.0/16").unwrap();
    let mut route = Route::originate(prefix);
    route.path = AsPath::from_slice(&[Asn(1)]);
    let mut chain = SignedRoute::originate(&ids[0], route, Asn(2));
    for hop in 2..=hops {
        let next = chain.route.clone().propagated_by(Asn(hop));
        chain = SignedRoute::extend(&chain, &ids[hop as usize - 1], next, Asn(hop + 1));
    }
    (chain, keys, Asn(hops + 1))
}

/// Attestation-chain verification failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SbgpError {
    /// Route has no path (locally originated routes are not announced).
    EmptyPath,
    /// Path contains a repeated AS.
    PathLoop,
    /// Number of attestations does not match path length.
    ChainLength {
        /// Path length.
        expected: usize,
        /// Attestation count.
        got: usize,
    },
    /// An attestation was made by the wrong AS.
    WrongSigner {
        /// AS that should have signed at this position.
        expected: Asn,
        /// AS that actually signed.
        got: Asn,
    },
    /// An attestation covers a different prefix.
    PrefixMismatch,
    /// An attestation's path is not the expected suffix.
    PathMismatch(Asn),
    /// An attestation was directed at the wrong next hop.
    WrongTarget {
        /// Required target.
        expected: Asn,
        /// Actual target.
        got: Asn,
    },
    /// A signature failed.
    BadSignature(Asn),
}

impl std::fmt::Display for SbgpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SbgpError::EmptyPath => write!(f, "empty AS path"),
            SbgpError::PathLoop => write!(f, "AS path contains a loop"),
            SbgpError::ChainLength { expected, got } => {
                write!(f, "attestation chain length {got}, expected {expected}")
            }
            SbgpError::WrongSigner { expected, got } => {
                write!(f, "attestation signed by {got}, expected {expected}")
            }
            SbgpError::PrefixMismatch => write!(f, "attestation prefix mismatch"),
            SbgpError::PathMismatch(asn) => write!(f, "attestation path mismatch at {asn}"),
            SbgpError::WrongTarget { expected, got } => {
                write!(f, "attestation targeted {got}, expected {expected}")
            }
            SbgpError::BadSignature(asn) => write!(f, "bad signature from {asn}"),
        }
    }
}

impl std::error::Error for SbgpError {}

#[cfg(test)]
mod tests {
    use super::*;
    use pvr_crypto::drbg::HmacDrbg;

    fn prefix() -> Prefix {
        Prefix::parse("10.0.0.0/8").unwrap()
    }

    /// Identities for AS 1..=4 plus a populated key store.
    fn setup() -> (Vec<Identity>, KeyStore) {
        let mut rng = HmacDrbg::new(b"sbgp tests");
        let ids: Vec<Identity> = (1..=4).map(|a| Identity::generate(a, 512, &mut rng)).collect();
        let mut keys = KeyStore::new();
        for id in &ids {
            keys.register_identity(id);
        }
        (ids, keys)
    }

    /// Builds the chain AS1 → AS2 → AS3 (receiver AS3).
    fn two_hop_chain(ids: &[Identity]) -> SignedRoute {
        let mut r1 = Route::originate(prefix());
        r1.path = AsPath::from_slice(&[Asn(1)]);
        let sr1 = SignedRoute::originate(&ids[0], r1, Asn(2));
        // AS2 re-announces to AS3.
        let r2 = {
            let mut r = sr1.route.clone().propagated_by(Asn(2));
            r.prefix = sr1.route.prefix;
            r
        };
        SignedRoute::extend(&sr1, &ids[1], r2, Asn(3))
    }

    #[test]
    fn valid_chain_verifies() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        assert!(sr.verify(Asn(3), &keys).is_ok());
    }

    #[test]
    fn wrong_receiver_rejected() {
        // AS3 forwarding AS2's announcement to AS4 unchanged must fail:
        // the top attestation targets AS3, not AS4 (cut-and-paste attack).
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        assert_eq!(
            sr.verify(Asn(4), &keys),
            Err(SbgpError::WrongTarget { expected: Asn(4), got: Asn(3) })
        );
    }

    #[test]
    fn truncated_chain_rejected() {
        // Path shortening attack: AS3 strips AS2 from the path.
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let mut forged = sr.clone();
        forged.route.path = AsPath::from_slice(&[Asn(2)]);
        assert!(matches!(forged.verify(Asn(3), &keys), Err(SbgpError::ChainLength { .. })));
    }

    #[test]
    fn path_insertion_rejected() {
        // AS3 invents a shorter-looking path it never received.
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let mut forged = sr.clone();
        forged.route.path = AsPath::from_slice(&[Asn(4), Asn(2), Asn(1)]);
        assert!(forged.verify(Asn(3), &keys).is_err());
    }

    #[test]
    fn tampered_prefix_rejected() {
        let (ids, keys) = setup();
        let mut sr = two_hop_chain(&ids);
        sr.route.prefix = Prefix::parse("192.168.0.0/16").unwrap();
        assert!(sr.verify(Asn(3), &keys).is_err());
    }

    #[test]
    fn tampered_signature_rejected() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let mut atts = sr.chain().to_vec();
        atts[0].signature.0[5] ^= 1;
        let sr = SignedRoute::with_chain(sr.route, AttestationChain::from_attestations(atts));
        assert_eq!(sr.verify(Asn(3), &keys), Err(SbgpError::BadSignature(Asn(1))));
    }

    #[test]
    fn looped_path_rejected() {
        let (ids, keys) = setup();
        let mut sr = two_hop_chain(&ids);
        sr.route.path = AsPath::from_slice(&[Asn(2), Asn(1), Asn(2)]);
        let repeat = sr.chain().newest().unwrap().clone();
        sr = SignedRoute::with_chain(sr.route.clone(), sr.chain().push(repeat));
        assert_eq!(sr.verify(Asn(3), &keys), Err(SbgpError::PathLoop));
    }

    #[test]
    fn empty_path_rejected() {
        let (_, keys) = setup();
        let sr = SignedRoute::unsigned(Route::originate(prefix()));
        assert_eq!(sr.verify(Asn(3), &keys), Err(SbgpError::EmptyPath));
    }

    #[test]
    fn attributes_not_covered_by_signature() {
        // LOCAL_PREF changes must not invalidate the chain (non-transitive
        // attributes are outside the attestation, as in real S-BGP).
        let (ids, keys) = setup();
        let mut sr = two_hop_chain(&ids);
        sr.route.local_pref = 999;
        sr.route.med = 7;
        assert!(sr.verify(Asn(3), &keys).is_ok());
    }

    #[test]
    fn unsigned_round_trip() {
        let sr = SignedRoute::unsigned(Route::originate(prefix()));
        assert!(!sr.is_signed());
        let back: SignedRoute = pvr_crypto::decode_exact(&sr.to_wire()).unwrap();
        assert_eq!(back, sr);
    }

    #[test]
    fn signed_wire_round_trip() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let back: SignedRoute = pvr_crypto::decode_exact(&sr.to_wire()).unwrap();
        assert_eq!(back, sr);
        assert!(back.verify(Asn(3), &keys).is_ok());
    }

    #[test]
    fn cached_verify_matches_uncached() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let cache = VerifyCache::new();
        assert_eq!(sr.verify(Asn(3), &keys), sr.verify_cached(Asn(3), &keys, Some(&cache)));
        assert_eq!(cache.calls(), 2);
        assert_eq!(cache.hits(), 0);
        // Second pass: every signature check answered from the memo.
        assert!(sr.verify_cached(Asn(3), &keys, Some(&cache)).is_ok());
        assert_eq!(cache.calls(), 4);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn cache_does_not_launder_forged_signatures() {
        // Same signed bytes, different signature: the genuine chain's
        // cached `true` must not validate the forgery (the cache key
        // covers the signature, not just the payload).
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        let cache = VerifyCache::new();
        assert!(sr.verify_cached(Asn(3), &keys, Some(&cache)).is_ok());
        let mut atts = sr.chain().to_vec();
        atts[0].signature.0[5] ^= 1;
        let forged =
            SignedRoute::with_chain(sr.route.clone(), AttestationChain::from_attestations(atts));
        assert_eq!(
            forged.verify_cached(Asn(3), &keys, Some(&cache)),
            Err(SbgpError::BadSignature(Asn(1)))
        );
        // And the rejection itself is memoized on replay.
        let calls = cache.calls();
        assert_eq!(
            forged.verify_cached(Asn(3), &keys, Some(&cache)),
            Err(SbgpError::BadSignature(Asn(1)))
        );
        assert_eq!(cache.calls(), calls + 1);
        assert!(cache.hits() >= 1);
    }

    /// The persistent chain must be observationally identical to the
    /// owned `Vec<Attestation>` it replaced: construction by `push` or
    /// `from_attestations`, accessors, equality, wire round-trips, and
    /// encoded length all behave as if the chain were the vector.
    /// Attestations here carry dummy signatures — representation
    /// equivalence is independent of signature validity.
    /// Derives an attestation deterministically from one seed (the
    /// vendored proptest shim has no tuple strategies). Signatures are
    /// dummies — representation equivalence does not depend on
    /// signature validity.
    fn dummy_attestations(seeds: &[u64]) -> Vec<Attestation> {
        seeds
            .iter()
            .map(|&seed| Attestation {
                prefix: Prefix::parse("10.0.0.0/8").unwrap(),
                path: AsPath::from_slice(&[Asn(1 + (seed % 97) as u32)]),
                target: Asn(1 + ((seed >> 8) % 97) as u32),
                signer: Asn(1 + (seed % 97) as u32),
                signature: pvr_crypto::rsa::RsaSignature(
                    (0..4 + (seed % 28) as u8).map(|i| i ^ (seed >> 16) as u8).collect(),
                ),
            })
            .collect()
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn chain_matches_owned_vec_semantics(
            seeds in proptest::collection::vec(any::<u64>(), 0..6),
        ) {
            let atts = dummy_attestations(&seeds);
            // from_attestations == repeated push.
            let chain = AttestationChain::from_attestations(atts.clone());
            let mut pushed = AttestationChain::empty();
            for a in &atts {
                pushed = pushed.push(a.clone());
            }
            prop_assert_eq!(&chain, &pushed);
            // Accessors mirror the vector.
            prop_assert_eq!(chain.len(), atts.len());
            prop_assert_eq!(chain.is_empty(), atts.is_empty());
            prop_assert_eq!(chain.origin(), atts.first());
            prop_assert_eq!(chain.newest(), atts.last());
            prop_assert_eq!(chain.to_vec(), atts.clone());
            let newest_first: Vec<Attestation> =
                chain.iter_newest_first().cloned().collect();
            let mut rev = atts.clone();
            rev.reverse();
            prop_assert_eq!(newest_first, rev);
            // Clones share structure but compare equal; an extended
            // clone diverges without disturbing the parent.
            let shared = chain.clone();
            prop_assert_eq!(&shared, &chain);
            if let Some(first) = atts.first() {
                let longer = chain.push(first.clone());
                prop_assert_eq!(longer.len(), chain.len() + 1);
                prop_assert_ne!(&longer, &chain);
                prop_assert_eq!(chain.to_vec(), atts.clone());
            }
            // Wire bytes equal the origin-first sequence encoding, and
            // the arithmetic length matches (SignedRoute carries the
            // chain on the wire).
            let sr = SignedRoute::with_chain(
                Route::originate(Prefix::parse("10.0.0.0/8").unwrap()),
                chain.clone(),
            );
            let mut expect = sr.route.to_wire();
            pvr_crypto::encoding::encode_seq(&atts, &mut expect);
            prop_assert_eq!(sr.to_wire(), expect);
            prop_assert_eq!(sr.encoded_len(), sr.to_wire().len());
            let back: SignedRoute = pvr_crypto::decode_exact(&sr.to_wire()).unwrap();
            prop_assert_eq!(back, sr);
        }
    }

    #[test]
    fn three_hop_chain() {
        let (ids, keys) = setup();
        let sr = two_hop_chain(&ids);
        // AS3 extends to AS4.
        let r3 = sr.route.clone().propagated_by(Asn(3));
        let sr3 = SignedRoute::extend(&sr, &ids[2], r3, Asn(4));
        assert!(sr3.verify(Asn(4), &keys).is_ok());
        assert_eq!(sr3.chain().len(), 3);
        // And the intermediate receiver can no longer be claimed.
        assert!(sr3.verify(Asn(3), &keys).is_err());
    }
}
