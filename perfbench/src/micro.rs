//! Direct calls into `pvr_crypto`/`pvr_bgp::sbgp` and
//! `pvr_smc::BatchGmw` with inputs shaped like the workload's, timed to
//! price the counts the network run reports.

use crate::trace::Tracer;
use crate::{median, Checks};
use pvr_bgp::{AsPath, Asn, Attestation, Prefix, SmcBatchStats};
use pvr_crypto::drbg::HmacDrbg;
use pvr_crypto::keys::{Identity, KeyStore};
use pvr_smc::{majority_circuit, min_circuit, pack_lane_inputs, to_bits, BatchGmw};
use std::time::Instant;

/// Each timed loop repeats whole passes over its inputs until it has
/// run this long, and reports the median pass.
const MIN_LOOP_S: f64 = 0.3;
/// Path lengths are 8-bit inputs to the min circuit, as in
/// `pvr_bgp::private`.
const LEN_BITS: usize = 8;

/// Median seconds per op over passes of `ops` calls to `pass`.
fn time_per_op(ops: usize, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.is_empty() || start.elapsed().as_secs_f64() < MIN_LOOP_S {
        let t = Instant::now();
        pass();
        samples.push(t.elapsed().as_secs_f64() / ops.max(1) as f64);
    }
    median(samples)
}

/// RSA-512 costs: (keygen ms, sign µs, verify µs). Keys are generated
/// for the payloads' signers; signing and verifying go through
/// `Attestation::create` and `Attestation::verify`.
pub fn crypto(
    payloads: &[(Asn, Prefix, AsPath, Asn)],
    key_bits: usize,
    seed: u64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> (f64, f64, f64) {
    let mut signers: Vec<Asn> = payloads.iter().map(|p| p.0).collect();
    signers.dedup();
    let mut rng = HmacDrbg::from_u64_labeled(seed, "perfbench-identities");
    let mut keygen_s = Vec::new();
    let identities: Vec<Identity> = tr.span("crypto.keygen", |_| {
        signers
            .iter()
            .map(|asn| {
                let t = Instant::now();
                let id = Identity::generate(asn.principal(), key_bits, &mut rng);
                keygen_s.push(t.elapsed().as_secs_f64());
                id
            })
            .collect()
    });
    let mut keys = KeyStore::new();
    identities.iter().for_each(|id| keys.register_identity(id));
    let identity = |asn: Asn| {
        identities.iter().find(|id| id.id() == asn.principal()).expect("signer has a key")
    };

    let mut atts = Vec::new();
    let sign_s = tr.span("crypto.sign", |_| {
        time_per_op(payloads.len(), || {
            atts = payloads
                .iter()
                .map(|(signer, prefix, path, target)| {
                    Attestation::create(identity(*signer), *prefix, path, *target)
                })
                .collect();
        })
    });
    let mut all_valid = true;
    let verify_s = tr.span("crypto.verify", |_| {
        time_per_op(atts.len(), || {
            all_valid &= atts.iter().all(|a| std::hint::black_box(a.verify(&keys)).is_ok());
        })
    });
    checks.record("sampled attestations verify", all_valid && !atts.is_empty());
    (median(keygen_s) * 1e3, sign_s * 1e6, verify_s * 1e6)
}

/// Microseconds per full-width batched pass (min circuit then majority
/// circuit), at the party count whose AND-gate total per batch is
/// nearest the run's average.
pub fn smc(
    stats: &SmcBatchStats,
    lane_cap: usize,
    seed: u64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> f64 {
    let per_batch = stats.and_gates as f64 / stats.batches.max(1) as f64;
    let parties = (2..=16usize)
        .min_by_key(|&k| {
            let ands = min_circuit(k, LEN_BITS).and_count() + majority_circuit(k).and_count();
            (ands as f64 - per_batch).abs() as u64
        })
        .expect("non-empty range");
    let min_c = min_circuit(parties, LEN_BITS);
    let maj_c = majority_circuit(parties);
    let mut rng = HmacDrbg::from_u64_labeled(seed, "perfbench-smc");
    // Honest lanes: the claim is the true minimum of the candidates.
    let lanes: Vec<(u64, Vec<u64>)> = (0..lane_cap.clamp(1, 64))
        .map(|_| {
            let lens: Vec<u64> = (0..parties).map(|_| 1 + rng.below(8)).collect();
            (*lens.iter().min().expect("parties >= 2"), lens)
        })
        .collect();
    let min_in: Vec<Vec<Vec<bool>>> = lanes
        .iter()
        .map(|(_, lens)| lens.iter().map(|&l| to_bits(l, LEN_BITS)).collect())
        .collect();
    let maj_in: Vec<Vec<Vec<bool>>> = lanes
        .iter()
        .map(|(claim, lens)| lens.iter().map(|&l| vec![*claim <= l]).collect())
        .collect();
    let (min_in, maj_in) = (pack_lane_inputs(&min_in), pack_lane_inputs(&maj_in));
    let mut ok = true;
    let per_pass = tr.span("smc.batch", |_| {
        time_per_op(1, || {
            let min_run = BatchGmw::new(&min_c).run(&min_in, &mut rng);
            let maj_run = BatchGmw::new(&maj_c).run(&maj_in, &mut rng);
            ok &= (0..lanes.len()).all(|k| maj_run.lane_outputs(k)[0])
                && (0..lanes.len())
                    .all(|k| pvr_smc::from_bits(&min_run.lane_outputs(k)) == lanes[k].0);
        })
    });
    checks.record("batched GMW computes honest minima and majorities", ok);
    per_pass * 1e6
}
