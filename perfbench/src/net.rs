//! One handle over the serial and the sharded network, so each
//! workload is written once whatever engine it runs on.

use pvr_bgp::{
    BgpNetwork, BgpRouter, CheckpointError, InstantiateOptions, OriginTable, PrivateVerifier,
    RouterStats, ShardedBgpNetwork, SmcBatchStats, Topology,
};
use pvr_netsim::{RunLimits, SimDuration, SimStats, StopReason};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A network on the serial engine (`shards == 1`) or the sharded one.
pub enum Net {
    Serial(BgpNetwork),
    Sharded(ShardedBgpNetwork),
}

macro_rules! each {
    ($net:expr, $n:ident => $body:expr) => {
        match $net {
            Net::Serial($n) => $body,
            Net::Sharded($n) => $body,
        }
    };
}

impl Net {
    /// `Topology::instantiate` at one shard, `instantiate_sharded` above.
    pub fn instantiate(topology: &Topology, options: InstantiateOptions, shards: usize) -> Net {
        if shards <= 1 {
            Net::Serial(topology.instantiate(options))
        } else {
            Net::Sharded(topology.instantiate_sharded(options, shards))
        }
    }

    /// Restores a checkpoint onto the engine that wrote it.
    pub fn restore(shards: usize, path: &Path) -> Result<Net, CheckpointError> {
        if shards <= 1 {
            BgpNetwork::restore(path).map(Net::Serial)
        } else {
            ShardedBgpNetwork::restore(path).map(Net::Sharded)
        }
    }

    pub fn install_origin_table(&mut self, table: Arc<OriginTable>) {
        each!(self, n => n.install_origin_table(table))
    }

    pub fn converge(&mut self, limits: RunLimits) -> StopReason {
        each!(self, n => n.converge(limits))
    }

    pub fn converge_checkpointed(
        &mut self,
        every: SimDuration,
        dir: &Path,
    ) -> Result<(StopReason, PathBuf), CheckpointError> {
        each!(self, n => n.converge_checkpointed(RunLimits::none(), every, dir))
    }

    pub fn checkpoint(&mut self, path: &Path) -> Result<u64, CheckpointError> {
        each!(self, n => n.checkpoint(path))
    }

    pub fn rib_fingerprint_hex(&self) -> String {
        each!(self, n => n.rib_fingerprint().to_hex())
    }

    pub fn sim_stats(&self) -> SimStats {
        each!(self, n => n.sim.stats().clone())
    }

    pub fn now_us(&self) -> u64 {
        each!(self, n => n.sim.now().as_micros())
    }

    pub fn router_totals(&self) -> RouterStats {
        each!(self, n => n.router_totals())
    }

    /// Network-wide `(adj_rib_in, loc_rib)` entry counts.
    pub fn rib_entries(&self) -> (u64, u64) {
        each!(self, n => n.ases().fold((0, 0), |(adj, loc), asn| {
            let (a, l) = n.router(asn).rib_entry_counts();
            (adj + a as u64, loc + l as u64)
        }))
    }

    pub fn smc_stats(&self) -> Option<SmcBatchStats> {
        let verifier: Option<&Arc<PrivateVerifier>> = each!(self, n => n.private_verifier());
        verifier.map(|v| v.stats())
    }

    /// Calls `f` on every router, ascending by ASN.
    pub fn for_each_router(&self, mut f: impl FnMut(&BgpRouter)) {
        each!(self, n => n.ases().for_each(|asn| f(n.router(asn))))
    }
}
