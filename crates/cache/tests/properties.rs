//! Property tests: invariants that must hold for every caching policy on
//! every trace.

use now_cache::{simulate, CacheConfig, Policy};
use now_probe::Probe;
use now_sim::SimTime;
use now_trace::fs::{AccessKind, BlockId, FileId, FsAccess, FsTrace};
use proptest::prelude::*;

/// Builds an arbitrary (but valid) trace from op tuples.
fn trace_from(ops: &[(u32, u32, u32, bool)], clients: u32) -> FsTrace {
    let mut accesses: Vec<FsAccess> = ops
        .iter()
        .enumerate()
        .map(|(i, &(client, file, block, write))| FsAccess {
            time: SimTime::from_millis(i as u64),
            client: client % clients,
            block: BlockId {
                file: FileId(file % 8),
                block: block % 16,
            },
            kind: if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        })
        .collect();
    accesses.sort_by_key(|a| a.time);
    FsTrace {
        accesses,
        file_blocks: vec![16; 8],
        clients,
    }
}

fn policies() -> Vec<Policy> {
    vec![
        Policy::ClientServer,
        Policy::GreedyForwarding,
        Policy::NChance { n: 2 },
        Policy::Centralized {
            local_fraction: 0.25,
        },
    ]
}

proptest! {
    /// Conservation: every read is served from exactly one place, and
    /// reads+writes cover the trace.
    #[test]
    fn every_access_classified_once(
        ops in prop::collection::vec((0u32..6, 0u32..8, 0u32..16, any::<bool>()), 1..300)
    ) {
        let trace = trace_from(&ops, 6);
        for policy in policies() {
            let r = simulate(&trace, &CacheConfig::small(policy), &Probe::disabled());
            prop_assert_eq!(r.reads + r.writes, trace.accesses.len() as u64, "{:?}", policy);
            prop_assert_eq!(
                r.local_hits + r.remote_client_hits + r.server_hits + r.disk_reads,
                r.reads,
                "{:?}", policy
            );
        }
    }

    /// The first read of any block always goes to disk (nothing can be
    /// cached before it exists), for every policy.
    #[test]
    fn cold_reads_hit_disk(
        ops in prop::collection::vec((0u32..6, 0u32..8, 0u32..16), 1..100)
    ) {
        // All-reads trace with every block distinct on first touch.
        let reads: Vec<(u32, u32, u32, bool)> =
            ops.iter().map(|&(c, f, b)| (c, f, b, false)).collect();
        let trace = trace_from(&reads, 6);
        let distinct_blocks: std::collections::HashSet<_> =
            trace.accesses.iter().map(|a| a.block).collect();
        for policy in policies() {
            let r = simulate(&trace, &CacheConfig::small(policy), &Probe::disabled());
            prop_assert!(
                r.disk_reads >= distinct_blocks.len() as u64,
                "{:?}: {} disk reads for {} distinct blocks",
                policy, r.disk_reads, distinct_blocks.len()
            );
        }
    }

    /// Cooperation never *increases* disk reads relative to the baseline
    /// on the same trace (client caches behave identically; forwarding
    /// only adds ways to avoid the disk).
    #[test]
    fn forwarding_never_hurts_disk_traffic(
        ops in prop::collection::vec((0u32..6, 0u32..8, 0u32..16, any::<bool>()), 1..300)
    ) {
        let trace = trace_from(&ops, 6);
        let base = simulate(&trace, &CacheConfig::small(Policy::ClientServer), &Probe::disabled());
        let greedy = simulate(&trace, &CacheConfig::small(Policy::GreedyForwarding), &Probe::disabled());
        prop_assert!(greedy.disk_reads <= base.disk_reads);
    }

    /// Determinism across policies: same trace, same config, same result.
    #[test]
    fn deterministic(
        ops in prop::collection::vec((0u32..6, 0u32..8, 0u32..16, any::<bool>()), 1..150)
    ) {
        let trace = trace_from(&ops, 6);
        for policy in policies() {
            let a = simulate(&trace, &CacheConfig::small(policy), &Probe::disabled());
            let b = simulate(&trace, &CacheConfig::small(policy), &Probe::disabled());
            prop_assert_eq!(a, b);
        }
    }

    /// Response time is consistent with the mix: total read time equals
    /// the weighted sum of the service classes.
    #[test]
    fn read_time_adds_up(
        ops in prop::collection::vec((0u32..6, 0u32..8, 0u32..16, any::<bool>()), 1..200)
    ) {
        let trace = trace_from(&ops, 6);
        for policy in policies() {
            let config = CacheConfig::small(policy);
            let r = simulate(&trace, &config, &Probe::disabled());
            let expect = config.costs.local_mem * r.local_hits
                + config.costs.remote_mem * (r.remote_client_hits + r.server_hits)
                + config.costs.disk * r.disk_reads;
            prop_assert_eq!(r.read_time, expect, "{:?}", policy);
        }
    }
}
