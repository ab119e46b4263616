//! E3/E13 — primitive costs (§3.8): SHA-256 vs RSA sign/verify, plus
//! the fast-crypto path cases: Montgomery vs schoolbook modpow, the
//! sign/verify baselines, and attestation chain verification with and
//! without the network-wide cache.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pvr_bgp::{demo_chain, VerifyCache};
use pvr_crypto::{drbg::HmacDrbg, sha256, RsaPrivateKey, Ubig};
use pvr_netsim::SimTime;
use std::hint::black_box;

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("e3_sha256");
    for size in [64usize, 1024, 4096] {
        let data = vec![0xabu8; size];
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| black_box(sha256(d)));
        });
    }
    g.finish();
}

fn bench_rsa(c: &mut Criterion) {
    let mut g = c.benchmark_group("e3_rsa");
    g.sample_size(10);
    let msg = vec![0xabu8; 1024];
    for bits in [512usize, 1024] {
        let mut rng = HmacDrbg::from_u64_labeled(1, "bench-rsa");
        let key = RsaPrivateKey::generate(bits, &mut rng);
        g.bench_function(BenchmarkId::new("sign", bits), |b| {
            b.iter(|| black_box(key.sign(&msg)));
        });
        let sig = key.sign(&msg);
        g.bench_function(BenchmarkId::new("verify", bits), |b| {
            b.iter(|| key.public().verify(&msg, &sig).unwrap());
        });
    }
    g.finish();
}

/// E13: Montgomery modpow vs the schoolbook baseline it replaced, at a
/// full-width exponent (the core of CRT signing).
fn bench_modpow(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_modpow");
    g.sample_size(10);
    for bits in [1024usize, 2048] {
        let mut rng = HmacDrbg::from_u64_labeled(2, "bench-modpow");
        let key = RsaPrivateKey::generate(bits, &mut rng);
        let n = key.public().n().clone();
        let base = Ubig::random_below(&n, &mut rng);
        let exp = Ubig::random_bits(bits - 1, &mut rng);
        g.bench_function(BenchmarkId::new("montgomery", bits), |b| {
            b.iter(|| black_box(base.modpow(&exp, &n)));
        });
        g.bench_function(BenchmarkId::new("schoolbook", bits), |b| {
            b.iter(|| black_box(base.modpow_schoolbook(&exp, &n)));
        });
    }
    g.finish();
}

/// E13: sign/verify on the fast path vs the pre-PR schoolbook path, at
/// the acceptance size (2048 bits).
fn bench_sign_verify_baseline(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_rsa2048");
    g.sample_size(10);
    let msg = b"attestation-sized message";
    let mut rng = HmacDrbg::from_u64_labeled(3, "bench-2048");
    let key = RsaPrivateKey::generate(2048, &mut rng);
    g.bench_function("sign/montgomery", |b| {
        b.iter(|| black_box(key.sign(msg)));
    });
    g.bench_function("sign/schoolbook", |b| {
        b.iter(|| black_box(key.sign_schoolbook(msg)));
    });
    let sig = key.sign(msg);
    g.bench_function("verify/montgomery", |b| {
        b.iter(|| key.public().verify(msg, &sig).unwrap());
    });
    g.bench_function("verify/schoolbook", |b| {
        b.iter(|| key.public().verify_schoolbook(msg, &sig).unwrap());
    });
    g.finish();
}

/// E13: verifying a full attestation chain, uncached vs through a warm
/// network-wide cache (the per-hop import cost in `sbgp`).
fn bench_chain_verify(c: &mut Criterion) {
    let mut g = c.benchmark_group("e13_chain_verify");
    g.sample_size(10);
    let (chain, keys, receiver) = demo_chain(5, 1024, b"bench-chain");
    g.bench_function("uncached", |b| {
        b.iter(|| chain.verify(receiver, &keys).unwrap());
    });
    // Filled at instant 0, read at instant 1: entries answer only
    // lookups after their insert instant.
    let warm = VerifyCache::new();
    chain.verify_cached(receiver, &keys, Some(&mut warm.at(SimTime::ZERO))).unwrap();
    g.bench_function("warm_cache", |b| {
        b.iter(|| chain.verify_cached(receiver, &keys, Some(&mut warm.at(SimTime(1)))).unwrap());
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sha256,
    bench_rsa,
    bench_modpow,
    bench_sign_verify_baseline,
    bench_chain_verify
);
criterion_main!(benches);
