//! Detection-matrix completeness: every `Misbehavior` variant yields a
//! non-OK result from the appropriate verifier.
//!
//! `Misbehavior::catalog` is guarded by a compile-time exhaustiveness
//! check, so adding a new Byzantine strategy without extending the
//! catalog breaks the build — and this test then guarantees the new
//! variant cannot silently go undetected.
//!
//! Also pins the attestation-chain fixtures against the network-wide
//! `VerifyCache`: a performance cache must never change an
//! accept/reject verdict, in any call order.

use pvr::bgp::{demo_chain, AsPath, Asn, Prefix, SbgpError, SignedRoute, VerifyCache};
use pvr::core::{run_min_round, Figure1Bed, Misbehavior, Verdict};
use pvr::crypto::KeyStore;
use pvr::netsim::SimTime;

#[test]
fn every_misbehavior_variant_is_detected() {
    // ns[0] holds the unique minimum, so victim-targeted variants are
    // genuine promise violations.
    for seed in [21u64, 22] {
        let bed = Figure1Bed::build(&[2, 4, 5], seed);
        let victim = bed.ns[0];
        for behavior in Misbehavior::catalog(victim) {
            let report = run_min_round(&bed, Some(behavior.clone()));
            assert!(
                report.detected(),
                "seed={seed} {behavior:?}: no verifier produced a non-OK outcome"
            );
            match behavior {
                // Omission faults are detected as suspicion only: the
                // victim cannot transfer "I received nothing" to a third
                // party, so no conviction is expected (§2.3 Evidence
                // covers commission faults).
                Misbehavior::RefuseReveal { .. } | Misbehavior::CorruptOpening { .. } => {
                    assert!(!report.convicted(), "seed={seed} {behavior:?}");
                }
                // Commission faults must convict, and every accusation
                // from a correct party must stand up before the auditor.
                _ => {
                    assert!(report.convicted(), "seed={seed} {behavior:?}: no conviction");
                    for (accuser, verdict) in &report.verdicts {
                        assert_eq!(
                            *verdict,
                            Verdict::Guilty,
                            "seed={seed} {behavior:?}: weak accusation by {accuser}"
                        );
                    }
                }
            }
        }
    }
}

/// The genuine 3-hop chain AS1 → AS2 → AS3 (receiver AS4) plus the key
/// store — the shared `pvr::bgp::demo_chain` fixture, mirroring the
/// forged/truncated `sbgp` unit-test fixtures at integration level.
fn chain_fixture() -> (SignedRoute, KeyStore, Asn) {
    demo_chain(3, 512, b"detection-matrix chains")
}

/// The verification cache must never flip a verdict: every
/// forged/truncated-chain fixture must produce identical results
/// uncached, through a cold cache, and through a cache warmed by the
/// *genuine* chain (the adversarial aliasing case — same signed bytes,
/// different signature).
#[test]
fn verify_cache_never_changes_verdicts() {
    let (genuine, keys, receiver) = chain_fixture();

    let truncated = {
        // Path-shortening attack: AS3 strips AS2.
        let mut c = genuine.clone();
        c.route.path = AsPath::from_slice(&[Asn(3), Asn(1)]);
        c
    };
    let forged_sig = {
        // Same signed bytes as the genuine origin attestation, bogus
        // signature — the cache key must distinguish them.
        let mut atts = genuine.chain().to_vec();
        atts[0].signature.0[7] ^= 0x40;
        pvr::bgp::SignedRoute::with_chain(
            genuine.route.clone(),
            pvr::bgp::AttestationChain::from_attestations(atts),
        )
    };
    let wrong_prefix = {
        let mut c = genuine.clone();
        c.route.prefix = Prefix::parse("192.168.0.0/16").unwrap();
        c
    };
    let fixtures: Vec<(&str, &SignedRoute)> = vec![
        ("genuine", &genuine),
        ("truncated", &truncated),
        ("forged-signature", &forged_sig),
        ("wrong-prefix", &wrong_prefix),
    ];

    // Warm the shared cache with the genuine chain first, then replay
    // every fixture (and the cut-and-paste wrong-receiver case) in
    // both orders against fresh and warm caches. Each pass looks up at
    // a later sim instant than the one before: entries answer only
    // lookups after their insert instant.
    let warm = VerifyCache::new();
    assert!(genuine.verify_cached(receiver, &keys, Some(&mut warm.at(SimTime(0)))).is_ok());
    let mut warm_pass = warm.at(SimTime(1));
    for (name, chain) in &fixtures {
        let uncached = chain.verify(receiver, &keys);
        let cold_cache = VerifyCache::new();
        let cold = chain.verify_cached(receiver, &keys, Some(&mut cold_cache.at(SimTime(1))));
        let warmed = chain.verify_cached(receiver, &keys, Some(&mut warm_pass));
        assert_eq!(uncached, cold, "{name}: cold cache changed the verdict");
        assert_eq!(uncached, warmed, "{name}: warm cache changed the verdict");
        // And replaying through the same cache (now holding this
        // fixture's own verdicts) still agrees.
        let replayed = chain.verify_cached(receiver, &keys, Some(&mut warm.at(SimTime(2))));
        assert_eq!(uncached, replayed, "{name}: replay");
    }
    assert_eq!(genuine.verify(receiver, &keys), Ok(()));
    assert!(matches!(truncated.verify(receiver, &keys), Err(SbgpError::ChainLength { .. })));
    assert_eq!(forged_sig.verify(receiver, &keys), Err(SbgpError::BadSignature(Asn(1))));
    assert!(wrong_prefix.verify(receiver, &keys).is_err());
    // Cut-and-paste: replaying toward the wrong receiver, with a cache
    // already holding `true` for every genuine signature.
    assert!(matches!(
        genuine.verify_cached(Asn(9), &keys, Some(&mut warm.at(SimTime(3)))),
        Err(SbgpError::WrongTarget { .. })
    ));
    assert!(warm_pass.hits > 0, "warm cache must actually have been consulted");
}

#[test]
fn catalog_is_labeled_distinctly() {
    let victim = pvr::bgp::Asn(1);
    let catalog = Misbehavior::catalog(victim);
    assert_eq!(catalog.len(), 8, "catalog must cover all variants");
    let mut labels: Vec<&str> = catalog.iter().map(|m| m.label()).collect();
    labels.sort_unstable();
    labels.dedup();
    assert_eq!(labels.len(), catalog.len(), "labels must be unique");
}
