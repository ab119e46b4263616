//! Deterministic outputs recorded at each workload's default seed and
//! scale. A run at those settings must reproduce them exactly; a change
//! that moves one changes the modeled protocol or the RIB, and must
//! update the entry and say why.

/// One recorded run.
#[derive(Clone, Debug)]
pub struct Expected {
    pub workload: &'static str,
    pub seed: u64,
    pub ases: usize,
    pub events: u64,
    pub bytes_sent: u64,
    pub sim_converge_us: u64,
    pub rib_sha256: &'static str,
    /// Total bytes of every checkpoint file (`checkpoint-recover`).
    pub checkpoint_bytes: u64,
}

pub const EXPECTED: &[Expected] = &[
    Expected {
        workload: "converge-plain",
        seed: 14,
        ases: 2000,
        events: 834_064,
        bytes_sent: 41_542_588,
        sim_converge_us: 50_000,
        rib_sha256: "3de3c239a88307b07e6fe8478dfca1bc430629939b7d424c9f5e6d5f81803d79",
        checkpoint_bytes: 0,
    },
    Expected {
        workload: "converge-pvr",
        seed: 14,
        ases: 500,
        events: 207_923,
        bytes_sent: 87_160_528,
        sim_converge_us: 968_026_809,
        rib_sha256: "f18588b383ecc98a49d1c7861e39ca49ca56b5e7942217c3f53829edd08eed5c",
        checkpoint_bytes: 0,
    },
    Expected {
        workload: "checkpoint-recover",
        seed: 18,
        ases: 300,
        events: 3_991,
        bytes_sent: 46_651_200,
        sim_converge_us: 165_041,
        rib_sha256: "59bf0fcd05da9128bb9ee45f4cb54776cd0a5829069149f66e05d4551127d281",
        checkpoint_bytes: 887_443_985,
    },
];
