//! Experiment implementations for the PVR reproduction.
//!
//! Each `eN` function regenerates one experiment table. The paper has
//! no numbered tables; the experiments map its figures and quantitative
//! prose claims — the doc comment on each `eN` function names the
//! figure/section it reproduces, and the README's "Build, test, bench"
//! section shows how to run them. The `harness` binary prints them
//! (`--json` for machine-readable rows); integration tests assert on
//! the returned rows.

use pvr_bgp::{internet_like, Asn, InstantiateOptions, InternetParams};
use pvr_core::{
    batch, claimed_min, run_min_round, verify_as_provider, verify_as_receiver, Figure1Bed,
    Misbehavior, Verdict,
};
use pvr_crypto::{drbg::HmacDrbg, ring_sign, ring_verify, sha256, Identity, RsaPrivateKey};
use pvr_mht::{Label, SparseMht};
use pvr_netsim::{FaultPlan, RunLimits, SimDuration};
use pvr_rfg::{AccessPolicy, Promise};
use pvr_smc::{majority_circuit, min_circuit, run_gmw, to_bits, SmcCostModel, ZkpCostModel};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Instant;

/// Median wall-clock of `n` runs of `f`, in seconds.
pub fn median_secs<F: FnMut()>(n: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.2} s")
    } else if secs >= 1e-3 {
        format!("{:.2} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.2} µs", secs * 1e6)
    } else {
        format!("{:.0} ns", secs * 1e9)
    }
}

/// E1 — Figure 1 / §3.3: detection matrix for the minimum operator.
/// Rows: behavior → detected? evidence? guilty verdicts? false
/// positives are counted across honest seeds.
pub fn e1_detection_matrix() -> String {
    let mut out = String::new();
    writeln!(out, "E1: minimum-operator detection matrix (Figure 1, §3.3)").unwrap();
    writeln!(out, "{:<22} {:>9} {:>9} {:>8}", "behavior", "detected", "evidence", "guilty")
        .unwrap();

    // Honest runs across seeds: false-positive rate must be 0.
    let mut false_positives = 0;
    let honest_runs = 10;
    for seed in 0..honest_runs {
        let bed = Figure1Bed::build(&[2, 3, 5], 1000 + seed);
        if !run_min_round(&bed, None).clean() {
            false_positives += 1;
        }
    }
    writeln!(out, "{:<22} {:>9} {:>9} {:>8}", "honest (10 seeds)", false_positives, 0, 0).unwrap();

    let bed = Figure1Bed::build(&[2, 3, 5], 42);
    let behaviors = vec![
        ("export-longer", Misbehavior::ExportLonger),
        ("suppress-min-input", Misbehavior::SuppressInput { victim: bed.ns[0] }),
        ("deny-all", Misbehavior::DenyAll),
        ("equivocate", Misbehavior::Equivocate { victim: bed.ns[0] }),
        ("non-monotone-bits", Misbehavior::NonMonotoneBits),
        ("fabricate-export", Misbehavior::FabricateExport),
        ("refuse-reveal", Misbehavior::RefuseReveal { victim: bed.ns[0] }),
        ("corrupt-opening", Misbehavior::CorruptOpening { victim: bed.ns[0] }),
    ];
    for (name, b) in behaviors {
        let report = run_min_round(&bed, Some(b));
        let guilty = report.verdicts.iter().filter(|(_, v)| *v == Verdict::Guilty).count();
        writeln!(
            out,
            "{:<22} {:>9} {:>9} {:>8}",
            name,
            report.detected(),
            report.verdicts.len(),
            guilty
        )
        .unwrap();
    }
    writeln!(out, "(expected: honest row all zeros; every row below detected=true;").unwrap();
    writeln!(out, " omission faults — refuse/corrupt — detected without evidence)").unwrap();
    out
}

/// E2 — Figure 2 / §3.5–3.7: multi-operator graph verification and
/// disclosure sizes as the provider count grows.
pub fn e2_graph_navigation() -> String {
    let mut out = String::new();
    writeln!(out, "E2: multi-operator graph navigation (Figure 2, §3.5-3.7)").unwrap();
    writeln!(
        out,
        "{:>4} {:>9} {:>12} {:>14} {:>12}",
        "k", "vertices", "reveals→B", "bytes→B", "verify time"
    )
    .unwrap();
    for k in [2usize, 4, 8, 16, 32] {
        let lens: Vec<usize> = (0..k).map(|i| 2 + (i % 8)).collect();
        let bed = Figure1Bed::build_figure2(&lens, 7);
        let c = bed.honest_committer();
        let everyone: Vec<Asn> = bed.ns.iter().copied().chain([bed.b]).collect();
        let alpha = AccessPolicy::paper_example(&bed.graph, &everyone);
        let reveals = c.graph_disclosure_for(bed.b, &alpha);
        let bytes: usize = {
            use pvr_crypto::Wire;
            reveals.iter().map(|r| r.to_wire().len()).sum()
        };
        let out_label = Label::Var(bed.output_var.0);
        let inputs: Vec<Label> = bed.input_vars.iter().map(|v| Label::Var(v.0)).collect();
        let root = c.signed_root().root;
        let t = median_secs(5, || {
            let g = pvr_core::VisibleGraph::reconstruct(&reveals, &root).unwrap();
            assert!(g.check_figure2_promise(&out_label, &inputs[0], &inputs[1..]));
        });
        writeln!(
            out,
            "{:>4} {:>9} {:>12} {:>14} {:>12}",
            k,
            bed.graph.vars().count() + bed.graph.ops().count(),
            reveals.len(),
            bytes,
            fmt_time(t)
        )
        .unwrap();
    }
    writeln!(out, "(expected: reveals and bytes linear in k; verify time ~linear)").unwrap();
    out
}

/// E3 — §3.8: "a cryptographic hash-function (such as SHA-256), which
/// are relatively cheap, and a public-key signature scheme (such as
/// RSA). A RSA-1024 signature takes about two milliseconds."
pub fn e3_crypto_costs() -> String {
    let mut out = String::new();
    writeln!(out, "E3: primitive costs (§3.8)").unwrap();

    // SHA-256 over a BGP-update-sized message.
    let msg = vec![0xabu8; 4096];
    let t_hash = median_secs(51, || {
        std::hint::black_box(sha256(&msg));
    });
    writeln!(out, "{:<28} {:>12}", "SHA-256 (4 KiB)", fmt_time(t_hash)).unwrap();

    for bits in [512usize, 1024, 2048] {
        let mut rng = HmacDrbg::from_u64_labeled(3, "e3-keys");
        let key = RsaPrivateKey::generate(bits, &mut rng);
        let t_sign = median_secs(11, || {
            std::hint::black_box(key.sign(&msg));
        });
        let sig = key.sign(&msg);
        let t_verify = median_secs(11, || {
            key.public().verify(&msg, &sig).unwrap();
        });
        writeln!(
            out,
            "{:<28} {:>12}   verify {:>10}",
            format!("RSA-{bits} sign"),
            fmt_time(t_sign),
            fmt_time(t_verify)
        )
        .unwrap();
        if bits == 1024 {
            writeln!(
                out,
                "  paper claim: RSA-1024 ≈ 2 ms (2011 hardware); measured {}",
                fmt_time(t_sign)
            )
            .unwrap();
        }
    }
    writeln!(out, "(expected shape: hash µs-scale, signatures ms-scale, quadratic-ish in bits)")
        .unwrap();
    out
}

/// E4 — §3.1: the strawman comparison. "even with only five players,
/// state-of-the-art SMC systems take about 15 seconds … for a simple
/// task like voting \[2\]".
pub fn e4_strawman_comparison() -> String {
    let mut out = String::new();
    writeln!(out, "E4: PVR vs. the SMC/ZKP strawmen (§3.1), k = 5 providers").unwrap();

    // PVR: one full min-operator round (commit + all disclosures + all
    // verifications), measured.
    let bed = Figure1Bed::build(&[2, 3, 4, 5, 6], 4);
    let t_pvr = median_secs(5, || {
        let report = run_min_round(&bed, None);
        assert!(report.clean());
    });

    // GMW on the equivalent min circuit (8-bit lengths), measured
    // locally and modeled on a WAN.
    let circuit = min_circuit(5, 8);
    let inputs: Vec<Vec<bool>> = [2u64, 3, 4, 5, 6].iter().map(|&v| to_bits(v, 8)).collect();
    let mut rng = HmacDrbg::from_u64_labeled(4, "e4-gmw");
    let t_gmw_local = median_secs(5, || {
        let r = run_gmw(&circuit, &inputs, &mut rng);
        std::hint::black_box(r.outputs);
    });
    let gmw_stats = run_gmw(&circuit, &inputs, &mut rng).stats;
    let model = SmcCostModel::fairplay_calibrated();
    let t_gmw_wan = model.estimate_seconds(&gmw_stats);

    // FairplayMP calibration point: majority vote, 5 players.
    let vote = majority_circuit(5);
    let vote_inputs: Vec<Vec<bool>> = (0..5).map(|i| vec![i % 2 == 0]).collect();
    let vote_stats = run_gmw(&vote, &vote_inputs, &mut rng).stats;
    let t_vote_wan = model.estimate_seconds(&vote_stats);

    // Generic ZKP strawman over the min circuit.
    let zkp = ZkpCostModel::generic();
    let t_zkp = zkp.estimate_seconds(&circuit);

    writeln!(out, "{:<44} {:>12}", "PVR full round (measured)", fmt_time(t_pvr)).unwrap();
    writeln!(
        out,
        "{:<44} {:>12}",
        "GMW min-circuit, local compute (measured)",
        fmt_time(t_gmw_local)
    )
    .unwrap();
    writeln!(
        out,
        "{:<44} {:>12}   ({} ANDs, {} rounds, {} OTs)",
        "GMW min-circuit, WAN model",
        fmt_time(t_gmw_wan),
        gmw_stats.and_gates,
        gmw_stats.rounds,
        gmw_stats.equivalent_ots
    )
    .unwrap();
    writeln!(
        out,
        "{:<44} {:>12}   (paper cites ≈15 s)",
        "FairplayMP calibration: 5-player voting",
        fmt_time(t_vote_wan)
    )
    .unwrap();
    writeln!(out, "{:<44} {:>12}", "generic ZKP model, min circuit", fmt_time(t_zkp)).unwrap();
    writeln!(
        out,
        "PVR vs SMC-on-WAN speedup: {:.0}×   (expected: ≥3 orders of magnitude)",
        t_gmw_wan / t_pvr
    )
    .unwrap();
    out
}

/// E5 — §3.8: batched signing of update bursts with a small MHT.
pub fn e5_batching() -> String {
    let mut out = String::new();
    writeln!(out, "E5: batched signing of BGP bursts (§3.8), RSA-1024").unwrap();
    writeln!(
        out,
        "{:>6} {:>16} {:>16} {:>10} {:>14}",
        "burst", "per-update sign", "batched sign", "speedup", "bytes/update"
    )
    .unwrap();
    let mut rng = HmacDrbg::from_u64_labeled(5, "e5-key");
    let identity = Identity::generate(100, 1024, &mut rng);
    for n in [1usize, 4, 16, 64, 256, 1024] {
        let items: Vec<Vec<u8>> = (0..n).map(|i| format!("update {i}").into_bytes()).collect();
        let t_individual = median_secs(3, || {
            for it in &items {
                std::hint::black_box(identity.sign(it));
            }
        }) / n as f64;
        let t_batched = median_secs(3, || {
            std::hint::black_box(batch::SignedBatch::sign(&identity, 1, &items));
        }) / n as f64;
        let b = batch::SignedBatch::sign(&identity, 1, &items);
        let bytes = b.item(0).unwrap().byte_size();
        writeln!(
            out,
            "{:>6} {:>16} {:>16} {:>9.1}x {:>14}",
            n,
            fmt_time(t_individual),
            fmt_time(t_batched),
            t_individual / t_batched,
            bytes
        )
        .unwrap();
    }
    writeln!(out, "(expected: per-update cost flat; batched cost ~1/n toward the hash floor;")
        .unwrap();
    writeln!(out, " bytes/update grows only logarithmically)").unwrap();
    out
}

/// E6 — §3.6: commitment and selective-disclosure scaling.
pub fn e6_mht_scaling() -> String {
    let mut out = String::new();
    writeln!(out, "E6: sparse-MHT commitment & disclosure scaling (§3.6)").unwrap();
    writeln!(
        out,
        "{:>7} {:>12} {:>12} {:>12} {:>12}",
        "leaves", "build", "proof bytes", "verify", "nodes"
    )
    .unwrap();
    for n in [1usize, 16, 64, 256, 1024, 4096] {
        let items: Vec<(Label, Vec<u8>)> =
            (0..n as u32).map(|i| (Label::Var(i), vec![i as u8; 32])).collect();
        let t_build = median_secs(3, || {
            std::hint::black_box(SparseMht::build(&items, [7; 32]));
        });
        let tree = SparseMht::build(&items, [7; 32]);
        let proof = tree.prove(&Label::Var(0)).unwrap();
        let root = tree.root();
        let t_verify = median_secs(11, || {
            assert!(proof.verify(&root));
        });
        writeln!(
            out,
            "{:>7} {:>12} {:>12} {:>12} {:>12}",
            n,
            fmt_time(t_build),
            proof.byte_size(),
            fmt_time(t_verify),
            tree.node_count()
        )
        .unwrap();
    }
    writeln!(out, "(expected: build ~linear; proof size and verify time ~flat —").unwrap();
    writeln!(out, " bounded by the label bit-length, not the leaf count)").unwrap();
    out
}

/// E7 — §2.3 Confidentiality: counterfactual audit summary.
pub fn e7_confidentiality() -> String {
    use pvr_core::confidential::counterfactual_min_audit;
    let mut out = String::new();
    writeln!(out, "E7: counterfactual indistinguishability audit (§2.3)").unwrap();
    writeln!(
        out,
        "{:<28} {:<14} {:>10} {:>14}",
        "worlds (lens A vs B)", "authorized", "leaks", "raw-differs"
    )
    .unwrap();
    let cases: Vec<(&[usize], &[usize], Vec<Asn>)> = vec![
        (&[2, 3], &[2, 5], vec![Asn(2)]),
        (&[2, 9, 12, 5], &[2, 3, 4, 16], vec![Asn(2), Asn(3), Asn(4)]),
        (&[2, 4, 6], &[2, 4, 9], vec![Asn(3)]),
        (&[3, 3], &[3, 3], vec![]),
    ];
    for (a, b, authorized) in cases {
        let outcome = counterfactual_min_audit(a, b, 7);
        let leaks =
            outcome.content_changed.iter().filter(|(n, &c)| c && !authorized.contains(n)).count();
        let raw = outcome.raw_changed.values().filter(|&&c| c).count();
        writeln!(
            out,
            "{:<28} {:<14} {:>10} {:>14}",
            format!("{a:?} vs {b:?}"),
            format!("{authorized:?}"),
            leaks,
            raw
        )
        .unwrap();
    }
    writeln!(out, "(expected: leaks column all zeros — only opaque commitment").unwrap();
    writeln!(out, " material may differ, never opened content)").unwrap();
    out
}

/// E8 — §1/§3.8: PVR on an Internet-like topology: substrate overhead
/// with and without signatures, plus per-decision PVR costs.
pub fn e8_internet_overhead() -> String {
    let mut out = String::new();
    writeln!(out, "E8: Internet-like topology overhead (§3.8)").unwrap();
    let params = InternetParams {
        tier1: 3,
        tier2: 8,
        stubs: 20,
        t2_peering_prob: 0.25,
        ..InternetParams::default()
    };
    let topology = internet_like(params, 11);
    writeln!(out, "topology: {} ASes, {} edges", topology.as_count(), topology.edge_count())
        .unwrap();
    writeln!(
        out,
        "{:<10} {:>10} {:>10} {:>14} {:>14}",
        "mode", "events", "updates", "bytes", "bytes/update"
    )
    .unwrap();
    let mut plain_per_update = 0f64;
    for signed in [false, true] {
        let mut net = topology.instantiate(InstantiateOptions {
            seed: 11,
            signed,
            key_bits: 512,
            ..Default::default()
        });
        net.converge(RunLimits::none());
        let stats = net.sim.stats();
        let per_update = stats.bytes_sent as f64 / stats.delivered.max(1) as f64;
        if !signed {
            plain_per_update = per_update;
        }
        writeln!(
            out,
            "{:<10} {:>10} {:>10} {:>14} {:>14.0}",
            if signed { "S-BGP" } else { "plain" },
            stats.events,
            stats.delivered,
            stats.bytes_sent,
            per_update
        )
        .unwrap();
        if signed {
            writeln!(
                out,
                "attestation overhead: {:.1}× bytes per update",
                per_update / plain_per_update
            )
            .unwrap();
        }
    }

    // Per-decision PVR round cost at k = 4 providers.
    let bed = Figure1Bed::build(&[2, 3, 4, 5], 11);
    let report = run_min_round(&bed, None);
    let total: usize = report.transcripts.values().map(|t| t.total_bytes()).sum();
    writeln!(out, "PVR round (k=4): {} bytes of roots+gossip+disclosures per decision", total)
        .unwrap();
    out
}

/// E9 — §3.2: ring-signature link-state variant scaling.
pub fn e9_ring_scaling() -> String {
    let mut out = String::new();
    writeln!(out, "E9: ring signatures for the link-state variant (§3.2)").unwrap();
    writeln!(out, "{:>6} {:>12} {:>12} {:>12}", "ring", "sign", "verify", "sig bytes").unwrap();
    let mut rng = HmacDrbg::from_u64_labeled(9, "e9-ring");
    let keys: Vec<RsaPrivateKey> =
        (0..16).map(|_| RsaPrivateKey::generate(512, &mut rng)).collect();
    for k in [2usize, 4, 8, 16] {
        let ring: Vec<_> = keys[..k].iter().map(|x| x.public().clone()).collect();
        let t_sign = median_secs(3, || {
            std::hint::black_box(
                ring_sign(b"a route exists", &ring, 0, &keys[0], &mut rng).unwrap(),
            );
        });
        let sig = ring_sign(b"a route exists", &ring, 0, &keys[0], &mut rng).unwrap();
        let t_verify = median_secs(3, || {
            ring_verify(b"a route exists", &ring, &sig).unwrap();
        });
        let bytes = sig.v.len() * (1 + sig.xs.len());
        writeln!(out, "{:>6} {:>12} {:>12} {:>12}", k, fmt_time(t_sign), fmt_time(t_verify), bytes)
            .unwrap();
    }
    writeln!(out, "(expected: sign ≈ 1 private op + k-1 public ops; verify k public ops;").unwrap();
    writeln!(out, " size linear in k)").unwrap();
    out
}

/// E10 — §2: the promise ladder; static implementation and
/// minimum-access checks for every promise type.
pub fn e10_promise_ladder() -> String {
    let mut out = String::new();
    writeln!(out, "E10: promise ladder static checks (§2)").unwrap();
    writeln!(
        out,
        "{:<34} {:>12} {:>12} {:>12}",
        "promise", "fig1 graph", "fig2 graph", "verifiable"
    )
    .unwrap();
    let bed1 = Figure1Bed::build(&[2, 3, 4], 10);
    let bed2 = Figure1Bed::build_figure2(&[2, 3, 4], 10);
    let everyone: Vec<Asn> = bed1.ns.iter().copied().chain([bed1.b]).collect();
    let alpha1 = AccessPolicy::paper_example(&bed1.graph, &everyone);
    let subset: BTreeSet<Asn> = bed1.ns.iter().copied().collect();
    let promises: Vec<(&str, Promise)> = vec![
        ("1: shortest overall", Promise::ShortestOverall),
        ("2: shortest of subset", Promise::ShortestOfSubset { subset: subset.clone() }),
        ("3: within ε=2 of best", Promise::WithinHopsOfBest { epsilon: 2 }),
        ("4: no longer than others", Promise::NoLongerThanOthers),
        ("exists (§3.2)", Promise::Existential { subset: subset.clone() }),
        (
            "fig2: prefer unless shorter",
            Promise::PreferUnlessShorter {
                fallback: bed1.ns[0],
                preferred: bed1.ns[1..].iter().copied().collect(),
            },
        ),
    ];
    for (name, p) in promises {
        writeln!(
            out,
            "{:<34} {:>12} {:>12} {:>12}",
            name,
            p.implemented_by(&bed1.graph, bed1.b),
            p.implemented_by(&bed2.graph, bed2.b),
            p.verifiable_under(&bed1.graph, &alpha1, bed1.b)
        )
        .unwrap();
    }
    writeln!(out, "(expected: the min graph implements 1,2,3,4,∃ — not fig2's promise;").unwrap();
    writeln!(out, " the fig2 graph implements only its own promise)").unwrap();
    out
}

/// E11 — ablations of the repo's design choices: the naive per-route
/// commitment strawman vs the paper's bit vector, and blinded vs
/// unblinded MHT siblings.
pub fn e11_ablations() -> String {
    use pvr_core::compare_naive_vs_paper;
    use pvr_mht::{unblinded_phantom, SiblingBlinding, SparseMht};

    let mut out = String::new();
    writeln!(out, "E11: design-choice ablations").unwrap();

    // Ablation 1: naive per-route commitments leak the length multiset.
    writeln!(out, "\n-- bit vector (paper) vs per-route commitments (naive) --").unwrap();
    writeln!(
        out,
        "{:<8} {:>22} {:>14} {:>14}",
        "k", "naive leak (lengths)", "naive bytes", "paper bytes"
    )
    .unwrap();
    for lens in [vec![2usize, 5], vec![2, 3, 5, 7], vec![2, 3, 4, 5, 6, 7, 8, 9]] {
        let bed = Figure1Bed::build(&lens, 21);
        let report = compare_naive_vs_paper(&bed);
        let leaked: Vec<u32> = report.naive_leak.values().copied().collect();
        writeln!(
            out,
            "{:<8} {:>22} {:>14} {:>14}",
            lens.len(),
            format!("{leaked:?}"),
            report.naive_bytes,
            report.paper_bytes
        )
        .unwrap();
    }
    writeln!(out, "(paper protocol reveals only the minimum — already visible via the route)")
        .unwrap();

    // Ablation 2: blinded vs unblinded phantom siblings.
    writeln!(out, "\n-- blinded (paper) vs unblinded phantom siblings --").unwrap();
    let xs = vec![(Label::Var(0), b"leaf".to_vec())];
    let path = Label::Var(0).to_bits();
    let mut detected = [0usize; 2];
    for (i, mode) in [SiblingBlinding::Unblinded, SiblingBlinding::Blinded].into_iter().enumerate()
    {
        let tree = SparseMht::build_with(&xs, [9; 32], mode);
        let proof = tree.prove(&Label::Var(0)).unwrap();
        for (j, sib) in proof.siblings.iter().enumerate() {
            let depth = path.len() - 1 - j;
            let sib_path = path.prefix(depth).push(!path.bit(depth));
            if *sib == unblinded_phantom(&sib_path) {
                detected[i] += 1;
            }
        }
    }
    writeln!(
        out,
        "unblinded: attacker identifies {}/{} siblings as empty subtrees",
        detected[0],
        path.len()
    )
    .unwrap();
    writeln!(
        out,
        "blinded:   attacker identifies {}/{} (expected 0 — absence is hidden)",
        detected[1],
        path.len()
    )
    .unwrap();

    // Ablation 3: MRAI batching interacts with burst signing (E5).
    writeln!(out, "\n-- MRAI churn damping (substrate, feeds §3.8 batching) --").unwrap();
    {
        use pvr_bgp::{workload, LocalEvent, Topology};
        use pvr_netsim::SimDuration;
        let build = || {
            let mut t = Topology::new();
            let origin = Asn(1);
            let provider = Asn(2);
            let prefix = pvr_bgp::Prefix::parse("10.0.0.0/8").unwrap();
            t.provider_customer(provider, origin);
            t.originate(origin, prefix);
            workload::flap(
                &mut t,
                origin,
                prefix,
                SimDuration::from_millis(50),
                SimDuration::from_millis(1),
                20,
            );
            let _ = LocalEvent::Announce(prefix);
            (t, provider)
        };
        for (label, mrai) in
            [("no MRAI", None), ("MRAI 100 ms", Some(SimDuration::from_millis(100)))]
        {
            let (t, provider) = build();
            let mut net = t.instantiate(InstantiateOptions { mrai, ..Default::default() });
            net.converge(RunLimits::none());
            writeln!(
                out,
                "{:<12} updates delivered to provider: {}",
                label,
                net.router(provider).stats().updates_rx
            )
            .unwrap();
        }
    }
    out
}

/// E12 — adversarial campaigns: the attack catalog (hijacks, leaks,
/// forged chains, bogus promises, Byzantine protocol behaviors) swept
/// over attacker/victim placements on an Internet-like topology, under
/// Plain / Signed / Pvr security, scored for impact and detection, and
/// executed on the deterministic parallel sweep.
pub fn e12_attack_campaigns() -> String {
    use pvr_attack::{Campaign, CampaignConfig, SecurityMode};

    let mut out = String::new();
    writeln!(out, "E12: adversarial campaign matrix (attack × security mode)").unwrap();
    let config = CampaignConfig::quick(12);
    let campaign = Campaign::new(config.clone());
    let p = campaign.placements()[0];
    writeln!(
        out,
        "topology: {:?} seed {}; attacker {} vs victim {} ({}); {} cells",
        config.internet,
        config.seed,
        p.attacker,
        p.victim,
        p.victim_prefix,
        campaign.cell_count()
    )
    .unwrap();
    let report = campaign.run();
    out.push_str(&report.render_matrix());

    // Determinism of the parallel executor, demonstrated on a cheap
    // Plain-only sub-campaign (no keygen): one thread vs many.
    let mini = CampaignConfig {
        modes: vec![SecurityMode::Plain],
        parallelism: 1,
        ..CampaignConfig::quick(12)
    };
    let serial = Campaign::new(mini.clone()).run();
    let parallel = Campaign::new(CampaignConfig { parallelism: 8, ..mini }).run();
    writeln!(
        out,
        "parallel sweep == single-threaded sweep (same seed): {}",
        serial == parallel && serial.render_matrix() == parallel.render_matrix()
    )
    .unwrap();
    writeln!(out, "(expected: plain column poisons on every hijack/leak/attestation row").unwrap();
    writeln!(out, " with zero detection; signed blocks hijacks and chain forgeries via").unwrap();
    writeln!(out, " ROV+attestations but misses the leak and every promise/protocol row;").unwrap();
    writeln!(out, " pvr detects all of them; sweep output independent of thread count)").unwrap();
    out
}

/// E13 — the fast-crypto path: Montgomery REDC with windowed
/// exponentiation vs the schoolbook baseline (`modpow`/`sign`/`verify`
/// at RSA-1024/2048), plus the network-wide attestation verification
/// cache (chain verify cold vs warm, and per-`SecurityMode` totals on
/// a converged Internet-like topology). Only the timings vary between
/// runs; every count, hit rate, and verdict is deterministic.
pub fn e13_crypto_perf() -> String {
    use pvr_attack::metrics::verification_stats;
    use pvr_attack::SecurityMode;
    use pvr_bgp::{demo_chain, InstantiateOptions, VerifyCache};
    use pvr_crypto::Ubig;
    use std::hint::black_box;

    let mut out = String::new();
    writeln!(out, "E13: fast-crypto path (Montgomery REDC + windowed exp + verify cache)").unwrap();

    // -- raw crypto: schoolbook vs Montgomery -------------------------
    writeln!(
        out,
        "{:<20} {:>6} {:>12} {:>12} {:>9}",
        "op", "bits", "schoolbook", "montgomery", "speedup"
    )
    .unwrap();
    let msg = b"e13: update-sized message";
    for bits in [1024usize, 2048] {
        let mut rng = HmacDrbg::from_u64_labeled(13, "e13-keys");
        let key = RsaPrivateKey::generate(bits, &mut rng);
        // Full-width-exponent modpow: the core of CRT signing.
        let base = Ubig::random_below(key.public().n(), &mut rng);
        let exp = Ubig::random_bits(bits - 1, &mut rng);
        let n = key.public().n();
        let t_school = median_secs(3, || {
            black_box(base.modpow_schoolbook(&exp, n));
        });
        let t_fast = median_secs(3, || {
            black_box(base.modpow(&exp, n));
        });
        writeln!(
            out,
            "{:<20} {:>6} {:>12} {:>12} {:>8.1}x",
            "modpow (full exp)",
            bits,
            fmt_time(t_school),
            fmt_time(t_fast),
            t_school / t_fast
        )
        .unwrap();
        let t_school = median_secs(3, || {
            black_box(key.sign_schoolbook(msg));
        });
        let t_fast = median_secs(5, || {
            black_box(key.sign(msg));
        });
        writeln!(
            out,
            "{:<20} {:>6} {:>12} {:>12} {:>8.1}x",
            "sign",
            bits,
            fmt_time(t_school),
            fmt_time(t_fast),
            t_school / t_fast
        )
        .unwrap();
        let sig = key.sign(msg);
        let t_school = median_secs(11, || {
            key.public().verify_schoolbook(msg, &sig).unwrap();
        });
        let t_fast = median_secs(11, || {
            key.public().verify(msg, &sig).unwrap();
        });
        writeln!(
            out,
            "{:<20} {:>6} {:>12} {:>12} {:>8.1}x",
            "verify",
            bits,
            fmt_time(t_school),
            fmt_time(t_fast),
            t_school / t_fast
        )
        .unwrap();
    }

    // -- chain verify: cold vs warm shared cache ----------------------
    let hops = 5u32;
    let (chain, keys, receiver) = demo_chain(hops, 1024, b"e13-chain");
    assert!(chain.verify(receiver, &keys).is_ok());
    let t_cold = median_secs(5, || {
        let cache = VerifyCache::new();
        chain.verify_cached(receiver, &keys, Some(&cache)).unwrap();
    });
    let warm = VerifyCache::new();
    chain.verify_cached(receiver, &keys, Some(&warm)).unwrap();
    let t_warm = median_secs(11, || {
        chain.verify_cached(receiver, &keys, Some(&warm)).unwrap();
    });
    writeln!(
        out,
        "chain verify ({hops} hops, RSA-1024): cold {} -> warm {} ({:.0}x; {} of {} checks cached)",
        fmt_time(t_cold),
        fmt_time(t_warm),
        t_cold / t_warm,
        warm.hits(),
        warm.calls()
    )
    .unwrap();

    // -- network-wide totals per security mode ------------------------
    let params = InternetParams {
        tier1: 2,
        tier2: 4,
        stubs: 6,
        t2_peering_prob: 0.3,
        ..InternetParams::default()
    };
    let topology = internet_like(params, 13);
    writeln!(
        out,
        "converged internet-like topology ({} ASes, {} edges), RSA-512:",
        topology.as_count(),
        topology.edge_count()
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:>13} {:>11} {:>9} {:>13}",
        "mode", "verify calls", "cache hits", "hit rate", "verifies/sec"
    )
    .unwrap();
    // The Signed and Pvr substrates are identical on the import path
    // (Pvr adds post-hoc audits, not import-time crypto), so each
    // distinct substrate converges once and the pvr row reuses the
    // signed measurement.
    let mut measured: Vec<(SecurityMode, u64, u64, f64)> = Vec::new();
    for (mode, signed) in [(SecurityMode::Plain, false), (SecurityMode::Signed, true)] {
        let mut net = topology.instantiate(InstantiateOptions {
            seed: 13,
            signed,
            key_bits: 512,
            ..Default::default()
        });
        if signed {
            net.install_origin_table(std::sync::Arc::new(topology.origin_table()));
        }
        let t = Instant::now();
        net.converge(RunLimits::none());
        let wall = t.elapsed().as_secs_f64();
        let (calls, hits) = verification_stats(&net);
        measured.push((mode, calls, hits, wall));
    }
    let signed_row = measured[1];
    measured.push((SecurityMode::Pvr, signed_row.1, signed_row.2, signed_row.3));
    for (mode, calls, hits, wall) in measured {
        let (rate, per_sec) = if calls > 0 {
            (
                format!("{:.1}%", hits as f64 * 100.0 / calls as f64),
                format!("{:.0}", calls as f64 / wall.max(1e-9)),
            )
        } else {
            ("-".to_string(), "-".to_string())
        };
        writeln!(out, "{:<8} {:>13} {:>11} {:>9} {:>13}", mode.label(), calls, hits, rate, per_sec)
            .unwrap();
    }
    writeln!(out, "(expected: modpow/sign well past 3x — windowed REDC beats a division per")
        .unwrap();
    writeln!(out, " bit; verify bounded by the 17-bit public exponent; warm chain verify is")
        .unwrap();
    writeln!(out, " structural checks only; signed modes show a large, deterministic hit rate)")
        .unwrap();
    out
}

/// One measured cell of E14: a (scale, shard-count, security-mode)
/// convergence run.
#[derive(Clone, Debug)]
pub struct E14Cell {
    /// Requested AS-count scale.
    pub scale: usize,
    /// Security mode label (`plain` / `signed` / `pvr`).
    pub mode: &'static str,
    /// Shard count the run used (1 = the serial engine). Every
    /// deterministic field in this cell is identical across shard
    /// counts — the CI determinism gate diffs exactly that.
    pub shards: usize,
    /// Actual AS count of the generated topology.
    pub ases: usize,
    /// Relationship edges.
    pub edges: usize,
    /// Originated /24s.
    pub origins: usize,
    /// Convergence events processed (deterministic).
    pub events: u64,
    /// Wall-clock of the convergence run (timing field).
    pub wall_secs: f64,
    /// `events / wall_secs` (timing field).
    pub events_per_sec: f64,
    /// Network-wide Adj-RIB-In + Loc-RIB entries at quiescence — the
    /// peak, since a converging network only accumulates reachability
    /// (deterministic).
    pub peak_rib_entries: u64,
    /// Sum of payload wire sizes for all sent messages (deterministic).
    pub bytes_on_wire: u64,
    /// Decision runs resolved O(1) by the incremental path
    /// (deterministic).
    pub short_circuits: u64,
    /// Content hash (hex SHA-256) of the converged network-wide
    /// Loc-RIB, from the durability layer's COW snapshot trie.
    /// Deterministic and identical across shard counts — the CI
    /// crash-recovery gate diffs exactly this (deterministic).
    pub final_rib_sha256: String,
}

/// The topology a given E14 scale runs on. At the seed scale (≤56) this
/// is the stock [`InternetParams::default`] with every stub
/// originating; larger scales grow the tier-2 layer with the AS count
/// and cap originations at 256 so RIB growth measures propagation, not
/// workload size. Internet scale (>20 000 ASes) tightens the cap to 64:
/// RIB state grows with ASes × origins, and 80k × 256 would spend the
/// run's memory on workload rather than topology. Scales at or below
/// 20 000 are untouched, so the existing ladder's numbers are stable.
pub fn e14_params(ases: usize) -> InternetParams {
    if ases <= 56 {
        return InternetParams::default();
    }
    let tier1 = 8;
    // Clamped at 900: the generator's tier-2 ASN range (100..) must
    // stay clear of the stub range (1000..).
    let tier2 = (ases / 40).clamp(12, 900);
    InternetParams {
        tier1,
        tier2,
        stubs: ases - tier1 - tier2,
        t2_peering_prob: 0.2,
        originating_stubs: if ases > 20_000 { 64 } else { 256 },
        ..InternetParams::default()
    }
}

/// E14 — internet-scale route propagation: converged `internet_like`
/// runs at a ladder of AS counts (56 → 1 000 → `max_scale`) under
/// `Plain`/`Signed`/`Pvr`, at each requested shard count (1 = the
/// serial engine, >1 = the sharded engine), reporting topology size,
/// convergence events, events/sec, peak RIB entries, bytes on the wire,
/// and the incremental decision path's short-circuit count. Everything
/// except the timing columns is deterministic *and identical across
/// shard counts* — the property the CI determinism gate enforces. The
/// `Signed` and `Pvr` substrates are identical on the import path (PVR
/// adds post-hoc audits, not import-time crypto), so each (scale,
/// shards) converges two substrates and the pvr row reuses the signed
/// measurement, exactly as E13 does.
pub fn e14_scale(max_scale: usize, shard_counts: &[usize]) -> (String, Vec<E14Cell>) {
    use pvr_bgp::BgpRouter;

    let mut scales: Vec<usize> = [56usize, 1000, max_scale]
        .into_iter()
        .filter(|&s| s <= max_scale)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    scales.sort_unstable();
    let mut shard_counts: Vec<usize> =
        if shard_counts.is_empty() { vec![1] } else { shard_counts.to_vec() };
    shard_counts.sort_unstable();
    shard_counts.dedup();

    let mut out = String::new();
    let mut cells = Vec::new();
    writeln!(out, "E14: internet-scale route propagation (max scale {max_scale})").unwrap();
    writeln!(out, "(scales >56 originate one /24 from each of the first min(stubs,256) stubs,")
        .unwrap();
    writeln!(out, " capped at 64 past 20k ASes; signed rows use RSA-512 attestations + ROV;")
        .unwrap();
    writeln!(out, " pvr shares the signed substrate — its import path is identical, audits")
        .unwrap();
    writeln!(out, " are post-hoc; shards=1 is the serial engine, >1 the sharded engine)").unwrap();
    writeln!(
        out,
        "{:>6} {:<7} {:>6} {:>6} {:>7} {:>8} {:>10} {:>10} {:>10} {:>14} {:>11} {:>12}",
        "scale",
        "mode",
        "shards",
        "ases",
        "edges",
        "origins",
        "events",
        "events/s",
        "peak RIB",
        "bytes",
        "O(1) skips",
        "rib sha256"
    )
    .unwrap();
    // (scale, shards) → signed wall-clock, for the speedup footer.
    let mut signed_walls: Vec<(usize, usize, f64)> = Vec::new();
    for &scale in &scales {
        let params = e14_params(scale);
        let topology = internet_like(params, 14);
        let origins: usize = topology.ases().map(|a| topology.originated_by(a).len()).sum();
        for &shards in &shard_counts {
            let mut signed_cell: Option<E14Cell> = None;
            for (mode, signed) in [("plain", false), ("signed", true)] {
                let mut net = topology.instantiate_sharded(
                    InstantiateOptions { seed: 14, signed, key_bits: 512, ..Default::default() },
                    shards,
                );
                if signed {
                    net.install_origin_table(std::sync::Arc::new(topology.origin_table()));
                }
                let t = Instant::now();
                let stop = net.converge(RunLimits::none());
                let wall = t.elapsed().as_secs_f64();
                assert_eq!(
                    stop,
                    pvr_netsim::StopReason::Quiescent,
                    "e14 scale {scale} {mode} shards {shards}"
                );
                let stats = net.sim.stats();
                let mut rib = 0u64;
                let mut shorts = 0u64;
                for asn in net.ases() {
                    let r: &BgpRouter = net.router(asn);
                    let (adj_in, loc) = r.rib_entry_counts();
                    rib += (adj_in + loc) as u64;
                    shorts += r.stats().reselect_short_circuits;
                }
                let cell = E14Cell {
                    scale,
                    mode,
                    shards,
                    ases: topology.as_count(),
                    edges: topology.edge_count(),
                    origins,
                    events: stats.events,
                    wall_secs: wall,
                    events_per_sec: stats.events as f64 / wall.max(1e-9),
                    peak_rib_entries: rib,
                    bytes_on_wire: stats.bytes_sent,
                    short_circuits: shorts,
                    final_rib_sha256: net.rib_fingerprint().to_hex(),
                };
                write_e14_row(&mut out, &cell);
                if signed {
                    signed_walls.push((scale, shards, wall));
                    signed_cell = Some(cell.clone());
                }
                cells.push(cell);
            }
            let pvr = E14Cell { mode: "pvr", ..signed_cell.expect("signed cell measured") };
            write_e14_row(&mut out, &pvr);
            cells.push(pvr);
        }
    }
    writeln!(out, "(expected: events/peak-RIB/bytes identical across modes and shard counts")
        .unwrap();
    writeln!(out, " at each scale — signatures change bytes only, sharding changes timing")
        .unwrap();
    writeln!(out, " only; plain events/s far above signed, which is RSA-bound — see E13;").unwrap();
    writeln!(out, " short-circuits cover a third of decision runs)").unwrap();
    // Speedup footer: only rendered when several shard counts ran in
    // this invocation (the CI determinism gate runs one count per
    // invocation, so its normalized output never contains this block).
    if shard_counts.len() > 1 {
        for &scale in &scales {
            let serial =
                signed_walls.iter().find(|&&(s, sh, _)| s == scale && sh == shard_counts[0]);
            if let Some(&(_, base_shards, base_wall)) = serial {
                for &(s, sh, wall) in &signed_walls {
                    if s == scale && sh != base_shards {
                        writeln!(
                            out,
                            "speedup scale {s} signed: {sh} shards vs {base_shards}: {:.2}x",
                            base_wall / wall.max(1e-9)
                        )
                        .unwrap();
                    }
                }
            }
        }
    }
    (out, cells)
}

/// Renders one E14 table row (the RIB hash column is truncated for
/// width; the JSON record carries the full 64 hex digits).
fn write_e14_row(out: &mut String, c: &E14Cell) {
    writeln!(
        out,
        "{:>6} {:<7} {:>6} {:>6} {:>7} {:>8} {:>10} {:>10.0} {:>10} {:>14} {:>11} {:>12}",
        c.scale,
        c.mode,
        c.shards,
        c.ases,
        c.edges,
        c.origins,
        c.events,
        c.events_per_sec,
        c.peak_rib_entries,
        c.bytes_on_wire,
        c.short_circuits,
        &c.final_rib_sha256[..12]
    )
    .unwrap();
}

/// E15's timeline window width, sim-time milliseconds: half the
/// default 10 ms link latency, so propagation rounds land in distinct
/// windows.
const E15_WINDOW_MS: u64 = 5;
/// E15's per-router event-journal ring capacity (most recent events).
const E15_JOURNAL_CAP: usize = 64;

/// Everything E15 produces beyond the human table: the merged metrics
/// snapshot in both expositions, the signed-run convergence timeline
/// as JSON, and the forensic JSONL trace. The harness embeds the JSON
/// pieces in the `pvr-bench-v1` document and writes the Prometheus and
/// trace artifacts behind `--metrics-out`/`--trace-out`.
#[derive(Clone, Debug)]
pub struct E15Artifacts {
    /// pvr-obs compact-JSON exposition (a JSON array) of the merged
    /// snapshot. Deterministic and engine-independent modulo the
    /// `verify_cache_hit*` series.
    pub metrics_json: String,
    /// The signed-substrate convergence timeline at the largest scale,
    /// as a JSON array of windows (`verify_cache_hits` is the
    /// engine-local field).
    pub timeline_json: String,
    /// Prometheus text exposition of the same snapshot.
    pub prometheus: String,
    /// Per-router event journals merged into one JSONL trace.
    /// Byte-identical across engines: journals record verify *calls*,
    /// never cache hits.
    pub trace_jsonl: String,
}

/// E15 — the observability layer end-to-end: converges the
/// `internet_like` ladder (56 → `max_scale` ASes) under
/// `plain`/`signed` with the telemetry layer on (`pvr` shares the
/// signed substrate, as in E13/E14), prints per-run telemetry
/// summaries and the largest scale's convergence-timeline tables, runs
/// the quick attack campaign to populate the per-strategy
/// detection-latency histograms, and returns the merged artifacts.
/// Every printed number is sim-time-derived and deterministic; across
/// shard counts everything is identical except the verify-cache hit
/// columns/series (the workspace-wide carve-out).
pub fn e15_observability(max_scale: usize, shard_counts: &[usize]) -> (String, E15Artifacts) {
    use pvr_attack::{Campaign, CampaignConfig};
    use pvr_netsim::SimDuration;

    let scales: Vec<usize> = [56usize, max_scale]
        .into_iter()
        .filter(|&s| s <= max_scale)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut shard_counts: Vec<usize> =
        if shard_counts.is_empty() { vec![1] } else { shard_counts.to_vec() };
    shard_counts.sort_unstable();
    shard_counts.dedup();
    let largest = *scales.last().expect("at least one scale");
    let first_shards = shard_counts[0];

    let mut out = String::new();
    writeln!(out, "E15: deterministic telemetry — timelines and metrics (max scale {max_scale})")
        .unwrap();
    writeln!(out, "(every timestamp is simulator virtual time, {E15_WINDOW_MS} ms windows; the")
        .unwrap();
    writeln!(out, " verify-cache hit columns/series are the engine-local carve-out, all other")
        .unwrap();
    writeln!(out, " telemetry is identical at every shard count; pvr shares the signed").unwrap();
    writeln!(out, " substrate — import-path telemetry is the signed run's)").unwrap();
    writeln!(
        out,
        "{:>6} {:<7} {:>6} {:>8} {:>10} {:>10} {:>10} {:>12}",
        "scale", "mode", "shards", "windows", "events", "rib-churn", "verifies", "trace-lines"
    )
    .unwrap();

    let mut combined = pvr_obs::Snapshot::default();
    let mut sel_timeline: Option<pvr_obs::ConvergenceTimeline> = None;
    let mut sel_trace = String::new();
    let mut timeline_tables: Vec<(&'static str, String)> = Vec::new();
    // (scale, signed-run snapshot/timeline at the base shard count) for
    // the cross-engine footer.
    let mut base_telemetry: Vec<(usize, pvr_obs::Snapshot, pvr_obs::ConvergenceTimeline)> =
        Vec::new();
    let mut engine_checks: Vec<String> = Vec::new();
    let hit_series = |name: &str| name.contains("verify_cache_hit");
    for &scale in &scales {
        let params = e14_params(scale);
        let topology = internet_like(params, 14);
        for &shards in &shard_counts {
            for (mode, signed) in [("plain", false), ("signed", true)] {
                let mut net = topology.instantiate_sharded(
                    InstantiateOptions {
                        seed: 14,
                        signed,
                        key_bits: 512,
                        timeline_window: Some(SimDuration::from_millis(E15_WINDOW_MS)),
                        journal_capacity: E15_JOURNAL_CAP,
                        ..Default::default()
                    },
                    shards,
                );
                if signed {
                    net.install_origin_table(std::sync::Arc::new(topology.origin_table()));
                }
                let stop = net.converge(RunLimits::none());
                assert_eq!(
                    stop,
                    pvr_netsim::StopReason::Quiescent,
                    "e15 scale {scale} {mode} shards {shards}"
                );
                let timeline = net.convergence_timeline().expect("timeline enabled");
                let snap = net.metrics_snapshot(mode);
                let trace = net.trace_jsonl();
                let events: u64 = timeline.windows.iter().map(|w| w.events).sum();
                let churn: u64 = timeline.windows.iter().map(|w| w.rib_churn).sum();
                let verifies: u64 = timeline.windows.iter().map(|w| w.verify_calls).sum();
                writeln!(
                    out,
                    "{:>6} {:<7} {:>6} {:>8} {:>10} {:>10} {:>10} {:>12}",
                    scale,
                    mode,
                    shards,
                    timeline.windows.len(),
                    events,
                    churn,
                    verifies,
                    trace.lines().count()
                )
                .unwrap();
                if signed {
                    if shards == first_shards {
                        base_telemetry.push((scale, snap.clone(), timeline.clone()));
                    } else if let Some((_, base_snap, base_tl)) =
                        base_telemetry.iter().find(|(s, _, _)| *s == scale)
                    {
                        let same = snap.without(hit_series) == base_snap.without(hit_series)
                            && timeline.zero_cache_hits() == base_tl.zero_cache_hits();
                        engine_checks.push(format!(
                            "scale {scale} signed: shards {shards} telemetry == shards \
                             {first_shards} (modulo cache-hit carve-out): {same}"
                        ));
                    }
                }
                if scale == largest && shards == first_shards {
                    timeline_tables.push((mode, timeline.render_table()));
                    combined.merge(&snap);
                    if signed {
                        // The pvr row shares the signed substrate: same
                        // counters, re-labelled.
                        combined.merge(&net.metrics_snapshot("pvr"));
                        sel_timeline = Some(timeline);
                        sel_trace = trace;
                    }
                }
            }
        }
    }

    // Per-strategy detection latency, read straight off the campaign's
    // histogram export (sim-time microseconds).
    let report = Campaign::new(CampaignConfig::quick(15)).run();
    let mut detect_reg = pvr_obs::MetricsRegistry::new();
    report.export_detection_latency(&mut detect_reg);
    let detect_snap = detect_reg.snapshot();
    writeln!(out, "\nin-band detection latency (sim-time, from the seed-15 quick campaign):")
        .unwrap();
    for s in &detect_snap.series {
        if let pvr_obs::Value::Histogram(h) = &s.value {
            let labels: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            writeln!(
                out,
                "  {} {{{}}}: n={}, mean={} µs",
                s.name,
                labels.join(","),
                h.count(),
                h.sum() / h.count().max(1)
            )
            .unwrap();
        }
    }
    combined.merge(&detect_snap);

    for (mode, table) in &timeline_tables {
        writeln!(out, "\nconvergence timeline — scale {largest}, {mode}, shards {first_shards}:")
            .unwrap();
        out.push_str(table);
    }
    for line in &engine_checks {
        writeln!(out, "{line}").unwrap();
    }
    writeln!(out, "(expected: signed runs verify on import so their verifies column is busy")
        .unwrap();
    writeln!(out, " while plain stays 0; churn concentrates in the first propagation rounds;")
        .unwrap();
    writeln!(out, " detection latency ≈ one 10 ms hop — the first honest neighbor rejects)")
        .unwrap();

    let timeline = sel_timeline.expect("signed run selected");
    let artifacts = E15Artifacts {
        metrics_json: pvr_obs::expo::to_json(&combined),
        timeline_json: timeline.to_json(),
        prometheus: pvr_obs::expo::to_prometheus(&combined),
        trace_jsonl: sel_trace,
    };
    (out, artifacts)
}

/// E16's timeline window width, sim-time milliseconds (E15's rationale:
/// half the 10 ms link latency, so propagation rounds land in distinct
/// windows).
const E16_WINDOW_MS: u64 = 5;
/// E16's churn spacing: the withdraw/announce halves of each cycle sit
/// `spacing/2` apart, which must comfortably exceed the MRAI interval —
/// otherwise both halves merge inside one batching window and no flap
/// ever crosses the wire.
const E16_CHURN_SPACING_MS: u64 = 30;
/// MRAI interval and jitter bound for the churn runs: jittered batch
/// timers are part of the failure-semantics surface under test, kept
/// well under half the churn spacing (see [`E16_CHURN_SPACING_MS`]).
const E16_MRAI_MS: u64 = 5;
const E16_MRAI_JITTER_MS: u64 = 1;
/// Churn concentrates on this many origination pairs so per-pair flap
/// rates outrun the dampening half-life and suppressions are non-zero
/// (the CI smoke asserts it).
const E16_CHURN_CANDIDATES: usize = 4;
/// When the churn schedule starts: initial convergence is long over.
const E16_CHURN_START_MS: u64 = 1_000;
/// E16 never runs its degradation probes past this many ASes (five
/// deadline-limited converges per invocation).
const E16_DEGRADATION_MAX_SCALE: usize = 1000;
/// E16's partial-deployment sweep scale cap (ten converges: a clean
/// baseline plus an attacked run per fraction).
const E16_DEPLOYMENT_MAX_SCALE: usize = 500;

/// E16's structured results — everything the harness embeds as the
/// `metrics` object of the `e16` JSON record. Every field is sim-time
/// derived and identical at every shard count (plain substrate, so not
/// even the verify-cache carve-out applies); the CI determinism gate
/// diffs the whole object.
#[derive(Clone, Debug)]
pub struct E16Metrics {
    /// AS count of the churn run.
    pub scale: usize,
    /// Churn events measured (withdraw + re-announce cycles).
    pub churn_events: usize,
    /// Median per-event route-settle time, sim-time µs.
    pub settle_p50_us: u64,
    /// 99th-percentile settle time, sim-time µs.
    pub settle_p99_us: u64,
    /// Total withdraw messages routers decided to send (pre-MRAI-merge:
    /// the fan-out of the withdraw storms).
    pub withdraws_sent: u64,
    /// `withdraws_sent / churn_events` — average storm fan-out.
    pub withdraw_fanout: f64,
    /// Announcements parked by RFC 2439-style dampening.
    pub dampening_suppressed: u64,
    /// Session-reset faults the plan applied.
    pub session_resets: u64,
    /// Link-down faults the plan applied.
    pub link_down: u64,
    /// Graceful degradation: (flap %, links flapping, % of baseline
    /// route selections still intact when probed mid-storm).
    pub degradation: Vec<(u32, usize, f64)>,
    /// Partial-deployment curve (see [`pvr_attack::deployment_sweep`]).
    pub deployment: Vec<pvr_attack::DeploymentPoint>,
}

/// The two endpoints of a topology edge, whichever flavor.
fn edge_endpoints(edge: &pvr_bgp::Edge) -> (Asn, Asn) {
    match *edge {
        pvr_bgp::Edge::ProviderCustomer { provider, customer } => (provider, customer),
        pvr_bgp::Edge::Peering(a, b) => (a, b),
        pvr_bgp::Edge::PartialTransit { provider, customer, .. } => (provider, customer),
    }
}

/// E16's seeded fault plan over real topology links: two flapping links
/// (down/up ramps through the churn window) and one session that resets
/// twice. Node ids come from `net`, but both engines assign them
/// identically, so the plan is engine-independent.
fn e16_fault_plan(
    topology: &pvr_bgp::Topology,
    net: &pvr_bgp::BgpNetwork,
    fault_seed: u64,
) -> FaultPlan {
    use pvr_netsim::{Fault, SimTime};
    let edges = topology.edges();
    let mut rng = HmacDrbg::from_u64_labeled(fault_seed, "e16-faults");
    let mut picks: Vec<usize> = Vec::new();
    while picks.len() < 3.min(edges.len()) {
        let i = rng.index(edges.len());
        if !picks.contains(&i) {
            picks.push(i);
        }
    }
    let mut plan = FaultPlan::new();
    for (k, &i) in picks.iter().enumerate() {
        let (a, b) = edge_endpoints(&edges[i]);
        let (na, nb) = (net.node_of(a), net.node_of(b));
        if k < 2 {
            // Three down/up cycles, 100 ms apart: with a 200 ms
            // dampening half-life, per-prefix penalties on the flushed
            // neighbor ratchet past the suppress threshold on the
            // third teardown.
            plan.flap_link(
                na,
                nb,
                SimTime::ZERO + SimDuration::from_millis(1_200 + 150 * k as u64),
                SimDuration::from_millis(40),
                SimDuration::from_millis(100),
                3,
            );
        } else {
            plan.push(
                SimTime::ZERO + SimDuration::from_millis(1_500),
                Fault::SessionReset { a: na, b: nb },
            );
            plan.push(
                SimTime::ZERO + SimDuration::from_millis(1_900),
                Fault::SessionReset { a: na, b: nb },
            );
        }
    }
    plan
}

/// Per-event route-settle times against the churn schedule: for event
/// `k` at `t_k`, the time from `t_k` to the end of the last timeline
/// window carrying RIB churn before the next event starts. An event
/// whose re-announce is parked by dampening settles when the reuse
/// timer releases it — possibly inside a neighboring event's range,
/// the usual attribution blur of windowed telemetry. Events with no
/// churned window (fully suppressed) floor at one window width.
fn settle_times_us(
    schedule: &[(SimDuration, Asn, pvr_bgp::Prefix)],
    timeline: &pvr_obs::ConvergenceTimeline,
) -> Vec<u64> {
    let window = timeline.window_us;
    let mut out = Vec::with_capacity(schedule.len());
    for (k, &(at, _, _)) in schedule.iter().enumerate() {
        let t0 = at.as_micros();
        let t1 = schedule.get(k + 1).map_or(u64::MAX, |&(next, _, _)| next.as_micros());
        let settle = timeline
            .windows
            .iter()
            .filter(|w| w.rib_churn > 0 && w.start_us + window > t0 && w.start_us < t1)
            .map(|w| (w.start_us + window).saturating_sub(t0))
            .next_back()
            .unwrap_or(window);
        out.push(settle);
    }
    out
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[(sorted.len() - 1) * p / 100]
}

/// E16's graceful-degradation table: at each flap fraction, a seeded
/// subset of links flaps continuously and the network is probed
/// mid-storm (sim-time deadline) against a never-faulted baseline's
/// route selections. Serial engine; the numbers are sim-time
/// deterministic, so they are identical however `--shards` is set.
fn e16_degradation(scale: usize, fault_seed: u64) -> Vec<(u32, usize, f64)> {
    use pvr_netsim::SimTime;
    let topology = internet_like(e14_params(scale), 16);
    let options = InstantiateOptions { seed: 16, ..Default::default() };

    let mut baseline_net = topology.instantiate(options);
    assert_eq!(
        baseline_net.converge(RunLimits::none()),
        pvr_netsim::StopReason::Quiescent,
        "e16 degradation baseline"
    );
    let mut baseline: Vec<(Asn, pvr_bgp::Prefix, Vec<Asn>)> = Vec::new();
    for asn in topology.ases() {
        let r = baseline_net.router(asn);
        for p in r.selected_prefixes() {
            let c = r.best_route(p).expect("selected prefix has a best route");
            baseline.push((asn, p, c.route.path.asns().to_vec()));
        }
    }
    drop(baseline_net);

    let mut rows = Vec::new();
    for flap_pct in [0u32, 5, 10, 20] {
        let n = (topology.edge_count() * flap_pct as usize).div_ceil(100);
        let mut rng =
            HmacDrbg::from_u64_labeled(fault_seed, &format!("e16-degradation {flap_pct}"));
        let mut idx: Vec<usize> = (0..topology.edge_count()).collect();
        // Partial Fisher–Yates: only the first `n` slots need settling.
        for i in 0..n {
            let j = i + rng.below((idx.len() - i) as u64) as usize;
            idx.swap(i, j);
        }
        let mut net = topology.instantiate(options);
        let mut plan = FaultPlan::new();
        for (i, &e) in idx[..n].iter().enumerate() {
            let (a, b) = edge_endpoints(&topology.edges()[e]);
            // Staggered so the storm has no global phase: eight cycles
            // covering 1.0–1.9 s, probed at 1.5 s — mid-storm.
            plan.flap_link(
                net.node_of(a),
                net.node_of(b),
                SimTime::ZERO + SimDuration::from_millis(1_000 + 25 * (i as u64 % 4)),
                SimDuration::from_millis(50),
                SimDuration::from_millis(100),
                8,
            );
        }
        net.install_fault_plan(plan);
        net.converge(RunLimits {
            deadline: Some(SimTime::ZERO + SimDuration::from_millis(1_500)),
            max_events: None,
        });
        let intact = baseline
            .iter()
            .filter(|(asn, p, path)| {
                net.router(*asn)
                    .best_route(*p)
                    .map(|c| c.route.path.asns() == path.as_slice())
                    .unwrap_or(false)
            })
            .count();
        rows.push((flap_pct, n, 100.0 * intact as f64 / baseline.len().max(1) as f64));
    }
    rows
}

/// E16 — churn, fault injection, and graceful degradation. Three
/// phases, all plain-substrate (route security under churn is E12/E16's
/// deployment phase; the engines' byte-identity needs no carve-out
/// here):
///
/// 1. **Steady-state churn under faults** — `churn_events` continuous
///    withdraw/re-announce cycles over a converged `internet_like`
///    topology with MRAI batching (jittered timers), RFC 2439 route-
///    flap dampening, and a seeded [`FaultPlan`] (two flapping links,
///    one twice-reset session). Reports per-event route-settle p50/p99
///    off the convergence timeline, withdraw-storm fan-out, and
///    dampening suppressions — per shard count, with full telemetry
///    equality asserted across engines.
/// 2. **Graceful degradation** — fraction of baseline route selections
///    still intact when 0/5/10/20 % of links flap, probed mid-storm.
/// 3. **Partial deployment** — the [`pvr_attack::deployment_sweep`]
///    curve: hijack success vs fraction of ASes validating origins,
///    with the unprotected fringe scored separately.
pub fn e16_churn(
    max_scale: usize,
    shard_counts: &[usize],
    churn_events: usize,
    fault_seed: u64,
) -> (String, E16Metrics) {
    use pvr_attack::{choose_placements, deployment_sweep, DeploymentSweepConfig};
    use pvr_bgp::workload::continuous_churn;
    use pvr_bgp::DampeningPolicy;
    use std::sync::Arc;

    let scale = max_scale.max(56);
    let mut shard_counts: Vec<usize> =
        if shard_counts.is_empty() { vec![1] } else { shard_counts.to_vec() };
    shard_counts.sort_unstable();
    shard_counts.dedup();
    let first_shards = shard_counts[0];

    // The churned topology: steady-state cycles concentrated on a few
    // origination pairs so per-pair flap rates outrun the dampening
    // half-life.
    let mut topology = internet_like(e14_params(scale), 16);
    let candidates: Vec<(Asn, pvr_bgp::Prefix)> = topology
        .ases()
        .flat_map(|a| topology.originated_by(a).iter().map(move |&p| (a, p)))
        .take(E16_CHURN_CANDIDATES)
        .collect();
    assert!(!candidates.is_empty(), "e16 needs originating ASes");
    let schedule = continuous_churn(
        &mut topology,
        &candidates,
        churn_events,
        SimDuration::from_millis(E16_CHURN_START_MS),
        SimDuration::from_millis(E16_CHURN_SPACING_MS),
        fault_seed,
    );

    let options = InstantiateOptions {
        seed: 16,
        mrai: Some(SimDuration::from_millis(E16_MRAI_MS)),
        mrai_jitter: Some(SimDuration::from_millis(E16_MRAI_JITTER_MS)),
        dampening: Some(DampeningPolicy::default()),
        timeline_window: Some(SimDuration::from_millis(E16_WINDOW_MS)),
        ..Default::default()
    };

    let mut out = String::new();
    writeln!(
        out,
        "E16: churn, fault injection, graceful degradation (scale {scale}, {} churn events, \
         fault seed {fault_seed})",
        schedule.len()
    )
    .unwrap();
    writeln!(out, "(plain substrate; MRAI {E16_MRAI_MS} ms +{E16_MRAI_JITTER_MS} ms jitter; RFC")
        .unwrap();
    writeln!(out, " 2439 dampening at default thresholds; fault plan: 2 flapping links + 1")
        .unwrap();
    writeln!(out, " twice-reset session; every number is sim-time-derived and identical at")
        .unwrap();
    writeln!(out, " every shard count — no carve-out applies in plain mode)").unwrap();
    writeln!(
        out,
        "{:>6} {:>6} {:>8} {:>10} {:>10} {:>7} {:>9} {:>12} {:>12}",
        "scale",
        "shards",
        "windows",
        "withdraws",
        "suppressed",
        "resets",
        "link-down",
        "settle-p50",
        "settle-p99"
    )
    .unwrap();

    let mut base: Option<(pvr_obs::Snapshot, pvr_obs::ConvergenceTimeline, pvr_netsim::SimStats)> =
        None;
    let mut engine_checks: Vec<String> = Vec::new();
    let mut metrics: Option<E16Metrics> = None;
    for &shards in &shard_counts {
        let mut net = topology.instantiate_sharded(options, shards);
        net.install_fault_plan(e16_fault_plan(&topology, &net, fault_seed));
        let stop = net.converge(RunLimits::none());
        assert_eq!(
            stop,
            pvr_netsim::StopReason::Quiescent,
            "e16 scale {scale} shards {shards}: churn run must recover to quiescence"
        );
        let timeline = net.convergence_timeline().expect("timeline enabled");
        let snap = net.metrics_snapshot("plain");
        let stats = net.sim.stats().clone();
        let totals = net.router_totals();
        let mut settles = settle_times_us(&schedule, &timeline);
        settles.sort_unstable();
        let (p50, p99) = (percentile(&settles, 50), percentile(&settles, 99));
        writeln!(
            out,
            "{:>6} {:>6} {:>8} {:>10} {:>10} {:>7} {:>9} {:>9} µs {:>9} µs",
            scale,
            shards,
            timeline.windows.len(),
            totals.withdraws_sent,
            totals.dampening_suppressed,
            stats.session_resets,
            stats.link_down,
            p50,
            p99
        )
        .unwrap();
        if shards == first_shards {
            metrics = Some(E16Metrics {
                scale,
                churn_events: schedule.len(),
                settle_p50_us: p50,
                settle_p99_us: p99,
                withdraws_sent: totals.withdraws_sent,
                withdraw_fanout: totals.withdraws_sent as f64 / schedule.len().max(1) as f64,
                dampening_suppressed: totals.dampening_suppressed,
                session_resets: stats.session_resets,
                link_down: stats.link_down,
                degradation: Vec::new(),
                deployment: Vec::new(),
            });
            base = Some((snap, timeline, stats));
        } else if let Some((base_snap, base_tl, base_stats)) = &base {
            let same = snap == *base_snap && timeline == *base_tl && stats == *base_stats;
            assert!(same, "e16 scale {scale}: shards {shards} diverged from shards {first_shards}");
            engine_checks.push(format!(
                "scale {scale}: shards {shards} telemetry == shards {first_shards} \
                               (bit-exact, no carve-out): {same}"
            ));
        }
    }
    let mut metrics = metrics.expect("at least one shard count ran");
    for line in &engine_checks {
        writeln!(out, "{line}").unwrap();
    }

    // Phase 2: graceful degradation.
    let deg_scale = scale.min(E16_DEGRADATION_MAX_SCALE);
    metrics.degradation = e16_degradation(deg_scale, fault_seed);
    writeln!(out, "\ngraceful degradation — {deg_scale} ASes, probed mid-storm at 1.5 s sim-time:")
        .unwrap();
    writeln!(out, "{:>6} {:>15} {:>16}", "flap%", "links-flapping", "routes-correct%").unwrap();
    for &(pct, links, correct) in &metrics.degradation {
        writeln!(out, "{pct:>6} {links:>15} {correct:>15.1}%").unwrap();
    }

    // Phase 3: partial deployment.
    let dep_scale = scale.min(E16_DEPLOYMENT_MAX_SCALE);
    let dep_topology = Arc::new(internet_like(e14_params(dep_scale), 16));
    let placement = choose_placements(&dep_topology, 1, fault_seed)[0];
    let config = DeploymentSweepConfig {
        seed: fault_seed,
        fractions_pct: vec![0, 25, 50, 75, 100],
        parallelism: 0,
    };
    metrics.deployment = deployment_sweep(&dep_topology, placement, &config);
    writeln!(
        out,
        "\npartial deployment — {dep_scale} ASes, AS{} hijacking AS{}'s prefix:",
        placement.attacker.0, placement.victim.0
    )
    .unwrap();
    writeln!(
        out,
        "{:>9} {:>9} {:>15} {:>18} {:>17}",
        "deployed%", "protected", "attack-success%", "fringe-intercept%", "origin-rejections"
    )
    .unwrap();
    for p in &metrics.deployment {
        writeln!(
            out,
            "{:>9} {:>9} {:>14.1}% {:>17.1}% {:>17}",
            p.fraction_pct,
            p.protected,
            p.attack_success_pct,
            p.fringe_interception_pct,
            p.origin_rejections
        )
        .unwrap();
    }
    writeln!(out, "(expected: suppressed > 0 — dampening parks the fastest flappers; settle-p99")
        .unwrap();
    writeln!(out, " well above p50 — fault windows stretch the tail; routes-correct falls as")
        .unwrap();
    writeln!(out, " the flapping fraction grows; attack success falls with deployment while")
        .unwrap();
    writeln!(out, " the unprotected fringe stays at least as exposed as the average)").unwrap();
    (out, metrics)
}

/// One measured row of E17: a (scale, shard-count) pair converged twice
/// on the signed substrate — once plain, once with private verification
/// — so the privacy overhead is a like-for-like ratio on the same
/// engine. Every field except the wall-clock ones is sim-time derived
/// and identical across shard counts (the CI determinism gate diffs
/// exactly that).
#[derive(Clone, Debug)]
pub struct E17Row {
    /// Requested AS-count scale.
    pub scale: usize,
    /// Shard count (1 = the serial engine).
    pub shards: usize,
    /// Batch width the verifier packed requests into (≤ 64 lanes).
    pub lane_cap: usize,
    /// Actual AS count of the generated topology.
    pub ases: usize,
    /// Signed-baseline convergence events (deterministic).
    pub baseline_events: u64,
    /// Signed-baseline sim-time at quiescence, µs (deterministic).
    pub baseline_sim_us: u64,
    /// Signed-baseline wall-clock (timing field).
    pub baseline_wall_secs: f64,
    /// Private-run convergence events — baseline plus the verdict
    /// timers the verifier schedules (deterministic).
    pub private_events: u64,
    /// Private-run sim-time at quiescence, µs: the baseline plus the
    /// modeled SMC latency charged at barriers (deterministic).
    pub private_sim_us: u64,
    /// Private-run wall-clock (timing field).
    pub private_wall_secs: f64,
    /// `private_sim_us / baseline_sim_us` — the privacy overhead in
    /// sim-time (deterministic).
    pub sim_time_overhead: f64,
    /// `private_wall_secs / baseline_wall_secs` (timing field).
    pub wall_overhead: f64,
    /// `lanes_occupied / lane_slots`, percent (deterministic).
    pub occupancy_pct: f64,
    /// The verifier's full SMC accounting (deterministic).
    pub smc: pvr_bgp::SmcBatchStats,
}

/// E17 — private verification as a first-class network mode. The
/// `internet_like` ladder (1000 → `max_scale` ASes) converges on the
/// signed substrate twice per shard count: once bare, once with the
/// batched-GMW [`pvr_bgp::PrivateVerifier`] enabled, which runs every
/// contested route selection (≥ 2 candidates in the winning
/// LOCAL_PREF tier) through bit-sliced min + majority circuits at
/// calendar-queue barriers and charges the FairplayMP-calibrated
/// latency back into sim-time. Reports the privacy overhead as
/// multipliers against the signed baseline — sim-time convergence,
/// events/sec — plus the SMC bill itself: bits broadcast, AND rounds,
/// batch occupancy, and the verdict tally (all passes on honest
/// topologies). Everything except wall-clock is deterministic and
/// byte-identical across shard counts; the run asserts that itself and
/// the CI determinism gate re-checks it from the JSON.
pub fn e17_private_path(
    max_scale: usize,
    shard_counts: &[usize],
    lane_cap: usize,
) -> (String, Vec<E17Row>) {
    let scales: Vec<usize> = [1000usize, max_scale]
        .into_iter()
        .filter(|&s| s <= max_scale)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let scales = if scales.is_empty() { vec![max_scale] } else { scales };
    let mut shard_counts: Vec<usize> =
        if shard_counts.is_empty() { vec![1] } else { shard_counts.to_vec() };
    shard_counts.sort_unstable();
    shard_counts.dedup();
    let first_shards = shard_counts[0];

    let mut out = String::new();
    let mut rows = Vec::new();
    writeln!(
        out,
        "E17: private verification as a network mode (max scale {max_scale}, lane cap {lane_cap})"
    )
    .unwrap();
    writeln!(out, "(signed substrate ± batched-GMW verification of contested selections; min +")
        .unwrap();
    writeln!(out, " majority circuits run bit-sliced at calendar barriers, latency charged from")
        .unwrap();
    writeln!(out, " the FairplayMP-calibrated model; all non-timing columns are sim-time").unwrap();
    writeln!(out, " deterministic and identical at every shard count)").unwrap();
    writeln!(
        out,
        "{:>6} {:<8} {:>6} {:>9} {:>10} {:>10} {:>9} {:>8} {:>6} {:>13} {:>9}",
        "scale",
        "mode",
        "shards",
        "events",
        "events/s",
        "sim-ms",
        "requests",
        "batches",
        "occ%",
        "bits-bcast",
        "verdicts"
    )
    .unwrap();

    // The base shard count's private-run fingerprint per scale, for the
    // cross-engine assertion.
    let mut base_runs: Vec<(usize, pvr_bgp::SmcBatchStats, pvr_obs::TimelineRecorder, u64, u64)> =
        Vec::new();
    for &scale in &scales {
        let params = e14_params(scale);
        let topology = internet_like(params, 17);
        let origin_table = std::sync::Arc::new(topology.origin_table());
        for &shards in &shard_counts {
            let mut measured: Vec<(bool, u64, u64, f64)> = Vec::new();
            for private in [false, true] {
                let mut net = topology.instantiate_sharded(
                    InstantiateOptions {
                        seed: 17,
                        signed: true,
                        key_bits: 512,
                        private_verification: private,
                        smc_lane_cap: lane_cap,
                        ..Default::default()
                    },
                    shards,
                );
                net.install_origin_table(std::sync::Arc::clone(&origin_table));
                let t = Instant::now();
                let stop = net.converge(RunLimits::none());
                let wall = t.elapsed().as_secs_f64();
                assert_eq!(
                    stop,
                    pvr_netsim::StopReason::Quiescent,
                    "e17 scale {scale} shards {shards} private={private}"
                );
                let events = net.sim.stats().events;
                let sim_us = net.sim.now().as_micros();
                measured.push((private, events, sim_us, wall));
                let (requests, batches, occ, bits, verdicts) = if private {
                    let verifier = net.private_verifier().expect("private verifier wired");
                    let s = verifier.stats();
                    assert_eq!(s.verdict_fail, 0, "honest selections must all verify");
                    assert_eq!(s.verdicts_delivered, s.requests, "all verdicts delivered");
                    let occ = 100.0 * s.lanes_occupied as f64 / s.lane_slots.max(1) as f64;
                    if shards == first_shards {
                        base_runs.push((scale, s.clone(), verifier.timeline(), events, sim_us));
                    } else {
                        let (_, base_stats, base_tl, base_events, base_sim) = base_runs
                            .iter()
                            .find(|(sc, ..)| *sc == scale)
                            .expect("base shard count ran first");
                        assert_eq!(&s, base_stats, "e17 scale {scale}: SMC stats diverged");
                        assert_eq!(
                            &verifier.timeline(),
                            base_tl,
                            "e17 scale {scale}: SMC timeline diverged"
                        );
                        assert_eq!(events, *base_events, "e17 scale {scale}: events diverged");
                        assert_eq!(sim_us, *base_sim, "e17 scale {scale}: sim-time diverged");
                    }
                    (
                        s.requests.to_string(),
                        s.batches.to_string(),
                        format!("{occ:.1}"),
                        s.bits_broadcast.to_string(),
                        format!("{}+{}", s.verdict_pass, s.verdict_fail),
                    )
                } else {
                    let dash = || "-".to_string();
                    (dash(), dash(), dash(), dash(), dash())
                };
                writeln!(
                    out,
                    "{:>6} {:<8} {:>6} {:>9} {:>10.0} {:>10.1} {:>9} {:>8} {:>6} {:>13} {:>9}",
                    scale,
                    if private { "private" } else { "signed" },
                    shards,
                    events,
                    events as f64 / wall.max(1e-9),
                    sim_us as f64 / 1e3,
                    requests,
                    batches,
                    occ,
                    bits,
                    verdicts
                )
                .unwrap();
            }
            let (_, base_events, base_sim, base_wall) = measured[0];
            let (_, priv_events, priv_sim, priv_wall) = measured[1];
            let (_, s, _, _, _) =
                base_runs.iter().find(|(sc, ..)| *sc == scale).expect("private run recorded");
            let row = E17Row {
                scale,
                shards,
                lane_cap,
                ases: topology.as_count(),
                baseline_events: base_events,
                baseline_sim_us: base_sim,
                baseline_wall_secs: base_wall,
                private_events: priv_events,
                private_sim_us: priv_sim,
                private_wall_secs: priv_wall,
                sim_time_overhead: priv_sim as f64 / base_sim.max(1) as f64,
                wall_overhead: priv_wall / base_wall.max(1e-9),
                occupancy_pct: 100.0 * s.lanes_occupied as f64 / s.lane_slots.max(1) as f64,
                smc: s.clone(),
            };
            writeln!(
                out,
                "       overhead vs signed: sim-time {:.2}x, events {:.2}x, wall {:.2}x \
                 (modeled SMC {:.1} s over {} rounds)",
                row.sim_time_overhead,
                priv_events as f64 / base_events.max(1) as f64,
                row.wall_overhead,
                s.modeled_micros as f64 / 1e6,
                s.rounds_charged
            )
            .unwrap();
            rows.push(row);
        }
    }
    writeln!(out, "(expected: every verdict passes — honest routers always pick a tier-minimal")
        .unwrap();
    writeln!(out, " path; occupancy rises with topology contention; sim-time overhead is the")
        .unwrap();
    writeln!(out, " paper's trade made concrete — full SMC on every contested selection costs")
        .unwrap();
    writeln!(out, " seconds of modeled WAN latency where PVR's commitments cost milliseconds)")
        .unwrap();
    (out, rows)
}

/// Sanity used by tests: E1 claims must hold programmatically.
pub fn e1_invariants_hold() -> bool {
    let bed = Figure1Bed::build(&[2, 3, 5], 42);
    let honest = run_min_round(&bed, None);
    let cheat = run_min_round(&bed, Some(Misbehavior::ExportLonger));
    honest.clean() && cheat.detected() && cheat.convicted()
}

/// Quick numeric check for E4 used by tests: PVR beats modeled SMC by
/// at least 100× on the k=5 task.
pub fn e4_speedup() -> f64 {
    let bed = Figure1Bed::build(&[2, 3, 4, 5, 6], 4);
    let t_pvr = median_secs(3, || {
        let _ = run_min_round(&bed, None);
    });
    let circuit = min_circuit(5, 8);
    let inputs: Vec<Vec<bool>> = [2u64, 3, 4, 5, 6].iter().map(|&v| to_bits(v, 8)).collect();
    let mut rng = HmacDrbg::from_u64_labeled(4, "e4-check");
    let stats = run_gmw(&circuit, &inputs, &mut rng).stats;
    SmcCostModel::fairplay_calibrated().estimate_seconds(&stats) / t_pvr
}

/// Verifies one provider/receiver pair quickly (used by bench warmups).
pub fn verify_round_once(bed: &Figure1Bed) {
    let c = bed.honest_committer();
    let d = c.disclosure_for_provider(bed.ns[0]);
    let o =
        verify_as_provider(bed.a, &bed.round, &bed.params, &bed.inputs[&bed.ns[0]], &d, &bed.keys);
    assert!(o.is_accept());
    let d = c.disclosure_for_receiver(bed.b);
    let o = verify_as_receiver(bed.b, bed.a, &bed.round, &bed.params, &d, &bed.keys);
    assert!(o.is_accept());
}

/// The committed minimum for a bed (used in bench assertions).
pub fn committed_min(bed: &Figure1Bed) -> Option<usize> {
    let c = bed.honest_committer();
    let bits: Vec<bool> = (1..=bed.params.max_path_len as u32)
        .map(|i| c.reveal_bit(i).unwrap().bit().unwrap())
        .collect();
    claimed_min(&bits)
}

/// E18's default checkpoint cadence, sim-time milliseconds
/// (`--checkpoint-every` overrides via the harness).
pub const E18_DEFAULT_EVERY_MS: u64 = 10;

/// One measured shard-count row of E18: an uninterrupted baseline, a
/// checkpoint-every-boundary run, and a kill-and-recover cycle from the
/// middle checkpoint. The wall-clock fields and the checkpoint byte
/// size are engine-local (the file encodes per-engine scheduler state);
/// everything else is deterministic and identical across shard counts.
#[derive(Clone, Debug)]
pub struct E18Row {
    /// Shard count (1 = the serial engine). Run parameter.
    pub shards: usize,
    /// Convergence events of the uninterrupted run (deterministic).
    pub events: u64,
    /// Wall-clock of the uninterrupted baseline (timing).
    pub baseline_wall_secs: f64,
    /// Wall-clock of the checkpoint-every-boundary run (timing).
    pub checkpointed_wall_secs: f64,
    /// `(checkpointed - baseline) / baseline`, percent (timing).
    pub snapshot_overhead_pct: f64,
    /// COW RIB snapshots retained at quiescence (deterministic).
    pub snapshots_retained: usize,
    /// Checkpoint files the sliced run wrote (deterministic).
    pub checkpoints_written: usize,
    /// Size of the final checkpoint file (engine-local: the ENGINE
    /// section encodes per-shard scheduler state).
    pub last_checkpoint_bytes: u64,
    /// Wall-clock of one explicit `checkpoint()` call (timing).
    pub checkpoint_write_secs: f64,
    /// Checkpoint serialization + write throughput (timing).
    pub write_mb_per_sec: f64,
    /// Restore-from-middle-checkpoint + replay-to-quiescence wall
    /// clock (timing).
    pub recovery_wall_secs: f64,
    /// Events replayed between the kill point and quiescence
    /// (deterministic).
    pub replay_events: u64,
    /// Recovered run's RIB fingerprint and simulator stats equal the
    /// uninterrupted run's — the crash-consistency contract
    /// (deterministic, must be true).
    pub recovered_identical: bool,
    /// Hex SHA-256 of the converged Loc-RIB (deterministic).
    pub final_rib_sha256: String,
}

/// E18's forensic row: the snapshot bisect over a hijack run's COW
/// history (serial engine; all fields sim-time deterministic).
#[derive(Clone, Debug)]
pub struct E18Forensic {
    /// Snapshots the hijack run retained.
    pub snapshots: usize,
    /// Snapshots the binary search probed (≈ log₂ of the history).
    pub probes: usize,
    /// Capture time of the first poisoned snapshot, sim ms.
    pub first_poisoned_ms: u64,
    /// Honest ASes routing through the attacker at that instant.
    pub poisoned_ases: usize,
}

/// Everything E18 returns beyond the human table — the harness embeds
/// it as the record's `metrics` object.
#[derive(Clone, Debug)]
pub struct E18Metrics {
    /// Requested AS-count scale.
    pub scale: usize,
    /// Actual AS count of the generated topology.
    pub ases: usize,
    /// Checkpoint cadence, sim-time milliseconds.
    pub checkpoint_every_ms: u64,
    /// One row per shard count.
    pub rows: Vec<E18Row>,
    /// The hijack-bisect forensic row.
    pub forensic: E18Forensic,
}

/// E18 — durability: crash-consistent checkpoint/restore and
/// deterministic replay recovery (ISSUE 10's tentpole, measured). Per
/// shard count: converge an `internet_like` run (signed substrate,
/// MRAI + dampening, a scheduled flap) uninterrupted, then again
/// writing a checkpoint at every `every_ms` slice boundary; then
/// simulate a crash by restoring the *middle* checkpoint and replaying
/// to quiescence, asserting the recovered RIB fingerprint and
/// simulator stats equal the uninterrupted run's. The forensic section
/// runs a delayed prefix hijack under COW snapshots and bisects the
/// history for the first poisoned instant (`pvr_attack::forensic`).
///
/// `checkpoint_dir` keeps the checkpoint files (per-shard-count
/// subdirectories `s<N>/`); by default they go to a temp directory
/// that is removed afterwards. `restore` adds an operator drill: the
/// given checkpoint file is restored (on the engine and shard count it
/// names) and replayed to quiescence, reported in the table only. A
/// file that does not restore is the drill's only error.
pub fn e18_durability(
    max_scale: usize,
    shard_counts: &[usize],
    every_ms: u64,
    checkpoint_dir: Option<&std::path::Path>,
    restore: Option<&std::path::Path>,
) -> Result<(String, E18Metrics), pvr_bgp::CheckpointError> {
    use pvr_netsim::StopReason;

    let scale = max_scale;
    let every = SimDuration::from_millis(every_ms.max(1));
    let mut shard_counts: Vec<usize> =
        if shard_counts.is_empty() { vec![1] } else { shard_counts.to_vec() };
    shard_counts.sort_unstable();
    shard_counts.dedup();

    // The same dynamic-state surface the crash-recovery property tests
    // cover: signed substrate, MRAI + jitter, dampening, and a
    // scheduled flap so the kill point crosses pending local events.
    let mut topology = internet_like(e14_params(scale), 18);
    let ases: Vec<Asn> = topology.ases().collect();
    let flapper = ases[ases.len() / 2];
    let flap_prefix = pvr_bgp::Prefix::parse("203.0.113.0/24").expect("parse");
    topology.originate(flapper, flap_prefix);
    topology.schedule(
        flapper,
        SimDuration::from_millis(40),
        pvr_bgp::LocalEvent::Withdraw(flap_prefix),
    );
    topology.schedule(
        flapper,
        SimDuration::from_millis(90),
        pvr_bgp::LocalEvent::Announce(flap_prefix),
    );
    let options = InstantiateOptions {
        seed: 18,
        signed: true,
        key_bits: 512,
        mrai: Some(SimDuration::from_millis(5)),
        mrai_jitter: Some(SimDuration::from_millis(1)),
        dampening: Some(pvr_bgp::DampeningPolicy::default()),
        ..Default::default()
    };
    let origin_table = std::sync::Arc::new(topology.origin_table());

    let temp_base = std::env::temp_dir().join(format!("pvr-e18-{}", std::process::id()));
    let keep_files = checkpoint_dir.is_some();
    let base_dir = checkpoint_dir.map(|d| d.to_path_buf()).unwrap_or_else(|| temp_base.clone());

    let mut out = String::new();
    writeln!(
        out,
        "E18: durability — COW snapshots, checkpoint/restore, replay recovery \
         (scale {scale}, checkpoint every {every_ms} ms)"
    )
    .unwrap();
    writeln!(out, "(signed substrate + MRAI + dampening + a scheduled flap; per row: baseline")
        .unwrap();
    writeln!(out, " vs checkpoint-at-every-boundary run, then kill at the middle checkpoint,")
        .unwrap();
    writeln!(out, " restore, replay; `identical` = RIB fingerprint + SimStats equality with")
        .unwrap();
    writeln!(out, " the never-crashed run — the crash-consistency contract)").unwrap();
    writeln!(
        out,
        "{:>6} {:>9} {:>6} {:>6} {:>11} {:>6} {:>10} {:>11} {:>9} {:>9} {:>12}",
        "shards",
        "events",
        "snaps",
        "ckpts",
        "last-ckpt-B",
        "ovh%",
        "write-MB/s",
        "recovery-ms",
        "replayed",
        "identical",
        "rib sha256"
    )
    .unwrap();

    let mut rows = Vec::new();
    let mut ases_actual = topology.as_count();
    for &shards in &shard_counts {
        // Uninterrupted baseline.
        let mut baseline = topology.instantiate_sharded(options, shards);
        baseline.install_origin_table(std::sync::Arc::clone(&origin_table));
        let t = Instant::now();
        let stop = baseline.converge(RunLimits::none());
        let baseline_wall_secs = t.elapsed().as_secs_f64();
        assert_eq!(stop, StopReason::Quiescent, "e18 baseline shards {shards}");
        let base_stats = baseline.sim.stats().clone();
        let final_rib_sha256 = baseline.rib_fingerprint().to_hex();
        ases_actual = topology.as_count();

        // The same run, checkpointed at every slice boundary.
        let dir = base_dir.join(format!("s{shards}"));
        let mut ck = topology.instantiate_sharded(options, shards);
        ck.install_origin_table(std::sync::Arc::clone(&origin_table));
        let t = Instant::now();
        let (stop, _last) = ck
            .converge_checkpointed(RunLimits::none(), every, &dir)
            .expect("e18 checkpointed converge");
        let checkpointed_wall_secs = t.elapsed().as_secs_f64();
        assert_eq!(stop, StopReason::Quiescent, "e18 checkpointed shards {shards}");
        assert_eq!(ck.sim.stats().events, base_stats.events, "e18 slicing changed the run");
        let snapshots_retained = ck.snapshot_times().len();

        // One explicit checkpoint, timed in isolation for throughput.
        let final_path = dir.join("final.pvr");
        let t = Instant::now();
        let final_bytes = ck.checkpoint(&final_path).expect("e18 final checkpoint");
        let checkpoint_write_secs = t.elapsed().as_secs_f64();

        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
            .expect("e18 checkpoint dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.extension().is_some_and(|x| x == "pvr")
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("ckpt-"))
            })
            .collect();
        files.sort();
        let checkpoints_written = files.len();
        let kill_point = &files[files.len() / 2];
        let last_checkpoint_bytes = std::fs::metadata(files.last().expect("e18 wrote checkpoints"))
            .expect("e18 checkpoint metadata")
            .len();

        // The crash: restore the middle checkpoint, replay, compare.
        let t = Instant::now();
        let mut recovered = pvr_bgp::BgpNetwork::restore(kill_point).expect("e18 restore");
        let events_at_kill = recovered.sim.stats().events;
        let stop = recovered.converge(RunLimits::none());
        let recovery_wall_secs = t.elapsed().as_secs_f64();
        assert_eq!(stop, StopReason::Quiescent, "e18 recovery shards {shards}");
        let recovered_identical = recovered.rib_fingerprint().to_hex() == final_rib_sha256
            && *recovered.sim.stats() == base_stats;
        let replay_events = recovered.sim.stats().events - events_at_kill;

        let row = E18Row {
            shards,
            events: base_stats.events,
            baseline_wall_secs,
            checkpointed_wall_secs,
            snapshot_overhead_pct: (checkpointed_wall_secs - baseline_wall_secs)
                / baseline_wall_secs.max(1e-9)
                * 100.0,
            snapshots_retained,
            checkpoints_written,
            last_checkpoint_bytes,
            checkpoint_write_secs,
            write_mb_per_sec: final_bytes as f64 / 1e6 / checkpoint_write_secs.max(1e-9),
            recovery_wall_secs,
            replay_events,
            recovered_identical,
            final_rib_sha256,
        };
        writeln!(
            out,
            "{:>6} {:>9} {:>6} {:>6} {:>11} {:>6.1} {:>10.1} {:>11.1} {:>9} {:>9} {:>12}",
            row.shards,
            row.events,
            row.snapshots_retained,
            row.checkpoints_written,
            row.last_checkpoint_bytes,
            row.snapshot_overhead_pct,
            row.write_mb_per_sec,
            row.recovery_wall_secs * 1e3,
            row.replay_events,
            if row.recovered_identical { "yes" } else { "NO" },
            &row.final_rib_sha256[..12]
        )
        .unwrap();
        assert!(row.recovered_identical, "e18 shards {shards}: recovered run diverged");
        rows.push(row);
        if !keep_files {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    if !keep_files {
        let _ = std::fs::remove_dir_all(&temp_base);
    }

    // Forensic bisect: a delayed hijack under COW snapshots, then
    // binary-search the history for the first poisoned instant. Plain
    // substrate (no origin validation — the hijack must land) on the
    // serial engine.
    let mut hijack_top = internet_like(e14_params(scale), 18);
    let victim_prefix = hijack_top
        .ases()
        .collect::<Vec<_>>()
        .iter()
        .find_map(|&a| hijack_top.originated_by(a).first().copied())
        .expect("e18 forensic: an originated prefix");
    let transit = hijack_top.ases().next().expect("e18 forensic: a transit");
    let attacker = Asn(65_001);
    hijack_top.provider_customer(transit, attacker);
    hijack_top.schedule(
        attacker,
        SimDuration::from_millis(60),
        pvr_bgp::LocalEvent::Announce(victim_prefix),
    );
    let mut hijacked =
        hijack_top.instantiate(InstantiateOptions { seed: 18, ..Default::default() });
    let stop = hijacked.converge_with_snapshots(RunLimits::none(), every);
    assert_eq!(stop, StopReason::Quiescent, "e18 forensic run");
    let hit = pvr_attack::bisect_first_poisoned(&hijacked, attacker, victim_prefix)
        .expect("e18 forensic: hijack must appear in the history");
    let forensic = E18Forensic {
        snapshots: hijacked.snapshot_times().len(),
        probes: hit.probes,
        first_poisoned_ms: hit.first_poisoned_at.as_micros() / 1000,
        poisoned_ases: hit.poisoned.len(),
    };
    writeln!(
        out,
        "forensic bisect: hijack first visible at {} ms ({} of {} snapshots probed; \
         {} ASes poisoned)",
        forensic.first_poisoned_ms, forensic.probes, forensic.snapshots, forensic.poisoned_ases
    )
    .unwrap();

    // Operator drill (`--restore`): bring an arbitrary checkpoint file
    // back and replay it to quiescence. Reported in the table only —
    // it parameterizes the run, so it stays out of the metrics record.
    if let Some(path) = restore {
        let t = Instant::now();
        let mut net = pvr_bgp::BgpNetwork::restore(path)?;
        let before = net.sim.stats().events;
        let stop = net.converge(RunLimits::none());
        writeln!(
            out,
            "restore drill: {}: replayed {} events to {:?} in {:.1} ms, rib sha256={}",
            path.display(),
            net.sim.stats().events - before,
            stop,
            t.elapsed().as_secs_f64() * 1e3,
            &net.rib_fingerprint().to_hex()[..12]
        )
        .unwrap();
    }

    writeln!(out, "(expected: every row identical=yes — restore+replay is byte-equal to the")
        .unwrap();
    writeln!(out, " uninterrupted run; events/snaps/ckpts/replayed/sha identical across shard")
        .unwrap();
    writeln!(out, " counts; checkpoint bytes and all wall-clock columns are engine-local)")
        .unwrap();
    let metrics = E18Metrics {
        scale,
        ases: ases_actual,
        checkpoint_every_ms: every_ms.max(1),
        rows,
        forensic,
    };
    Ok((out, metrics))
}

/// All experiments in order, as (id, output) pairs.
pub fn all_experiments() -> Vec<(&'static str, String)> {
    vec![
        ("e1", e1_detection_matrix()),
        ("e2", e2_graph_navigation()),
        ("e3", e3_crypto_costs()),
        ("e4", e4_strawman_comparison()),
        ("e5", e5_batching()),
        ("e6", e6_mht_scaling()),
        ("e7", e7_confidentiality()),
        ("e8", e8_internet_overhead()),
        ("e9", e9_ring_scaling()),
        ("e10", e10_promise_ladder()),
        ("e11", e11_ablations()),
        ("e12", e12_attack_campaigns()),
        ("e13", e13_crypto_perf()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_properties() {
        assert!(e1_invariants_hold());
    }

    #[test]
    fn e4_speedup_is_large() {
        assert!(e4_speedup() > 100.0, "PVR must beat modeled SMC by ≥100×");
    }

    #[test]
    fn quick_experiments_produce_tables() {
        for (id, table) in
            [("e7", e7_confidentiality()), ("e10", e10_promise_ladder()), ("e11", e11_ablations())]
        {
            assert!(table.lines().count() >= 4, "{id} table too small:\n{table}");
        }
    }
}
