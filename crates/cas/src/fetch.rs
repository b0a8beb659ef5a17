//! Image distribution as an engine component.
//!
//! A set of fetcher nodes cold-start container images whose manifests
//! they already hold (the [`PartialCache`] keeps hierarchies resident);
//! the missing block *data* must come over the fabric. One
//! [`FetchComponent`] runs either of two competing [`FetchStrategy`]s:
//!
//! * [`FetchStrategy::Registry`] — every node pulls every missing block
//!   from the registry, whose handful of NICs serialize under load. This
//!   is the classic `docker pull` stampede: cold-start time grows with
//!   the node count once the registry links saturate.
//! * [`FetchStrategy::Cooperative`] — nodes first ask the registry's
//!   tracker which peer already holds a block and fetch it peer-to-peer,
//!   falling back to the registry for blocks nobody has yet. Data legs
//!   spread over the per-node links, so cold-start time flattens as nodes
//!   are added.
//!
//! Every leg reserves real occupancy on the engine's shared interconnect
//! (a [`now_sim::CostModel::Fabric`] engine is required; a fixed-cost
//! engine panics on the first leg), so the crossover between the
//! strategies *emerges* from contention. Time on the critical path is
//! blamed to [`category::CAS_REGISTRY`], [`category::CAS_PEER`] and
//! [`category::CAS_DISK`], so the blame table partitions the cold-start
//! makespan by *cause*.

use std::collections::{BTreeMap, BTreeSet};

use now_probe::causal::category;
use now_probe::{Gauge, Probe};
use now_sim::{Component, Ctx, EventCast, SimDuration, SimRng, SimTime};

use crate::cache::PartialCache;
use crate::image::ImageCatalog;
use crate::manifest::ImageManifest;
use crate::store::{BlockHash, BlockStore};

/// Events of the distribution scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasEvent {
    /// Kick-off: every fetcher starts its download plan at once (the
    /// synchronized cold start — a cluster-wide rollout).
    Start,
    /// One fetcher finished its previous step and fetches its next block.
    NodeStep {
        /// Fetcher index in `0..fetchers`.
        node: u32,
    },
}

/// Which distribution strategy a component runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchStrategy {
    /// All block data comes from the registry NICs.
    Registry,
    /// Peers first, registry fallback.
    Cooperative,
}

impl FetchStrategy {
    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            FetchStrategy::Registry => "registry",
            FetchStrategy::Cooperative => "cooperative",
        }
    }
}

/// Shape of one distribution run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FetchConfig {
    /// Fetcher nodes, on fabric nodes `0..fetchers`.
    pub fetchers: u32,
    /// Registry NICs, on fabric nodes `fetchers..fetchers + registry_nics`.
    /// Requests round-robin over them; each NIC's link serializes.
    pub registry_nics: u32,
    /// Per-node block-data budget in bytes (the partial cache's limit).
    pub cache_budget: u64,
    /// Size of a block request message.
    pub request_bytes: u64,
    /// Size of a tracker lookup request (cooperative only).
    pub lookup_bytes: u64,
    /// Size of a tracker lookup reply (cooperative only).
    pub lookup_reply_bytes: u64,
    /// Registry disk service per cold (first-touch) block; later touches
    /// hit the registry's page cache.
    pub disk_read: SimDuration,
    /// CPU time a peer spends serving one block from its cache.
    pub peer_service: SimDuration,
    /// Seed for the per-node download-order shuffle.
    pub seed: u64,
}

impl FetchConfig {
    /// A config with the workload knobs set and the cost constants at
    /// their defaults (128 B requests, 96/32 B lookups, 2 ms cold disk
    /// reads, 50 µs peer service).
    pub fn new(fetchers: u32, registry_nics: u32, cache_budget: u64, seed: u64) -> Self {
        assert!(fetchers > 0, "need at least one fetcher");
        assert!(registry_nics > 0, "the registry needs at least one NIC");
        FetchConfig {
            fetchers,
            registry_nics,
            cache_budget,
            request_bytes: 128,
            lookup_bytes: 96,
            lookup_reply_bytes: 32,
            disk_read: SimDuration::from_millis(2),
            peer_service: SimDuration::from_micros(50),
            seed,
        }
    }
}

/// Counters of one distribution run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchStats {
    /// Blocks delivered to fetchers (every node counts its own).
    pub delivered_blocks: u64,
    /// Blocks served off the registry NICs.
    pub registry_blocks: u64,
    /// Payload bytes served off the registry NICs.
    pub registry_bytes: u64,
    /// Blocks served peer-to-peer.
    pub peer_blocks: u64,
    /// Payload bytes served peer-to-peer.
    pub peer_bytes: u64,
    /// Cold first-touch registry disk reads.
    pub disk_reads: u64,
    /// Tracker lookups issued (cooperative only).
    pub lookups: u64,
    /// Tracker lookups that found a peer holding the block.
    pub lookup_hits: u64,
    /// Blocks evicted from partial caches under the byte budget.
    pub evictions: u64,
    /// Delivered blocks whose bytes did not re-hash to the manifest's
    /// hash — always zero unless the simulation corrupts data.
    pub verify_failures: u64,
}

/// The distribution run as an engine [`Component`]: per-node plans, the
/// partial caches, holder tracking, and the cost/blame accounting. The
/// strategy only decides where each block's data leg comes from.
pub struct FetchComponent {
    strategy: FetchStrategy,
    config: FetchConfig,
    store: BlockStore,
    manifests: Vec<ImageManifest>,
    /// Per node: the image it boots (index into `manifests`).
    images: Vec<usize>,
    /// Per node: its download order (unique blocks, shuffled per node so
    /// simultaneous cold starts don't convoy on the same first block).
    plans: Vec<Vec<BlockHash>>,
    /// Per node: position in its plan.
    pos: Vec<usize>,
    caches: Vec<PartialCache>,
    /// Resident block bytes summed over `caches`, kept current on every
    /// insert and eviction.
    cached_bytes: u64,
    /// Which fetchers currently hold each block resident (maintained
    /// through evictions) — the tracker's state.
    holders: BTreeMap<BlockHash, BTreeSet<u32>>,
    /// Blocks already read off the registry disk (its page cache).
    warmed: BTreeSet<BlockHash>,
    /// Per node: manifest hash → recomputed hash of the bytes received.
    delivered: Vec<BTreeMap<BlockHash, BlockHash>>,
    /// Round-robin cursors: registry NIC per request, peer per hit.
    rr_nic: u64,
    rr_peer: u64,
    /// Nodes still downloading.
    remaining: u32,
    /// Per node: completion time.
    completions: Vec<SimTime>,
    makespan: SimTime,
    stats: FetchStats,
    delivered_gauge: Gauge,
    registry_bytes_gauge: Gauge,
    peer_bytes_gauge: Gauge,
    disk_reads_gauge: Gauge,
    cached_bytes_gauge: Gauge,
    probe: Probe,
}

impl FetchComponent {
    /// A distribution of `catalog` under `config`, run with `strategy`.
    ///
    /// # Panics
    ///
    /// Panics if the catalog holds no image.
    pub fn new(catalog: ImageCatalog, strategy: FetchStrategy, config: FetchConfig) -> Self {
        assert!(
            !catalog.manifests.is_empty(),
            "catalog needs at least one image"
        );
        let mut rng = SimRng::new(config.seed);
        let n = config.fetchers as usize;
        let images: Vec<usize> = (0..n).map(|i| i % catalog.manifests.len()).collect();
        let plans: Vec<Vec<BlockHash>> = images
            .iter()
            .map(|&img| {
                let mut plan = catalog.manifests[img].unique_blocks();
                let mut fork = rng.fork();
                fork.shuffle(&mut plan);
                plan
            })
            .collect();
        let caches = images
            .iter()
            .map(|&img| PartialCache::new(catalog.manifests[img].clone(), config.cache_budget))
            .collect();
        FetchComponent {
            strategy,
            config,
            store: catalog.store,
            manifests: catalog.manifests,
            images,
            plans,
            pos: vec![0; n],
            caches,
            cached_bytes: 0,
            holders: BTreeMap::new(),
            warmed: BTreeSet::new(),
            delivered: vec![BTreeMap::new(); n],
            rr_nic: 0,
            rr_peer: 0,
            remaining: config.fetchers,
            completions: vec![SimTime::ZERO; n],
            makespan: SimTime::ZERO,
            stats: FetchStats::default(),
            delivered_gauge: Gauge::default(),
            registry_bytes_gauge: Gauge::default(),
            peer_bytes_gauge: Gauge::default(),
            disk_reads_gauge: Gauge::default(),
            cached_bytes_gauge: Gauge::default(),
            probe: Probe::disabled(),
        }
    }

    /// Attaches the `cas.*` gauges the flight recorder samples, plus the
    /// `cas.disk` utilization ledger (registry disk busy time on cold
    /// first-touch reads).
    pub fn set_probe(&mut self, probe: &Probe) {
        self.delivered_gauge = probe.gauge("cas.delivered_blocks");
        self.registry_bytes_gauge = probe.gauge("cas.registry_bytes");
        self.peer_bytes_gauge = probe.gauge("cas.peer_bytes");
        self.disk_reads_gauge = probe.gauge("cas.disk_reads");
        self.cached_bytes_gauge = probe.gauge("cas.cached_bytes");
        self.probe = probe.clone();
    }

    /// The strategy this component runs.
    pub fn strategy(&self) -> FetchStrategy {
        self.strategy
    }

    /// The run's configuration.
    pub fn config(&self) -> &FetchConfig {
        &self.config
    }

    /// The registry's block store (dedup stats live here).
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// The image manifests being distributed.
    pub fn manifests(&self) -> &[ImageManifest] {
        &self.manifests
    }

    /// The partial caches, one per fetcher.
    pub fn caches(&self) -> &[PartialCache] {
        &self.caches
    }

    /// Counters so far.
    pub fn stats(&self) -> FetchStats {
        self.stats
    }

    /// Per-node completion times (zero until a node finishes).
    pub fn completions(&self) -> &[SimTime] {
        &self.completions
    }

    /// When the last fetcher finished — the cold-start makespan.
    pub fn makespan(&self) -> SimTime {
        self.makespan
    }

    /// Whether every fetcher has finished its plan.
    pub fn complete(&self) -> bool {
        self.remaining == 0
    }

    /// A digest over the *bytes each node actually received*: for every
    /// node, the recomputed hashes of its delivered blocks are folded in
    /// the manifest's unique-block order. Arrival order, strategy, and
    /// later evictions cannot change it — only the content can — so a
    /// registry run and a cooperative run of the same catalog must digest
    /// equal.
    pub fn content_digest(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for node in 0..self.config.fetchers as usize {
            let manifest = &self.manifests[self.images[node]];
            for hash in manifest.unique_blocks() {
                let got = self.delivered[node].get(&hash).copied().unwrap_or_default();
                for &b in &got.0.to_le_bytes() {
                    h ^= u64::from(b);
                    h = h.wrapping_mul(PRIME);
                }
            }
        }
        h
    }

    /// Approximate resident footprint: store, caches, plans, tracker.
    pub fn approx_bytes(&self) -> usize {
        let caches: usize = self.caches.iter().map(PartialCache::approx_bytes).sum();
        let plans: usize = self.plans.iter().map(|p| p.len() * 8).sum();
        self.store.approx_bytes() + caches + plans + self.holders.len() * 64
    }

    /// Fabric node of fetcher `node` (identity placement).
    fn fetcher_fabric(&self, node: u32) -> u32 {
        node
    }

    /// Next registry NIC, round-robin per request.
    fn next_nic(&mut self) -> u32 {
        let nic =
            self.config.fetchers + (self.rr_nic % u64::from(self.config.registry_nics)) as u32;
        self.rr_nic += 1;
        nic
    }

    /// A peer (not `node`) holding `hash`, round-robin over the holder
    /// set so serving load spreads; `None` if nobody else has it.
    fn pick_peer(&mut self, node: u32, hash: BlockHash) -> Option<u32> {
        let holders = self.holders.get(&hash)?;
        let others = holders.len() - usize::from(holders.contains(&node));
        if others == 0 {
            return None;
        }
        let nth = (self.rr_peer % others as u64) as usize;
        let peer = holders.iter().copied().filter(|&h| h != node).nth(nth);
        self.rr_peer += 1;
        peer
    }

    /// Accepts a delivered block at `node`: verify the bytes against the
    /// manifest hash, cache them, and update the tracker through any
    /// evictions the insert forced.
    ///
    /// Verification goes through [`BlockStore::verify`]: a delivery of
    /// the registry's own buffer (every registry and peer leg hands one
    /// on) is vouched for by the hash the store computed at insertion,
    /// and any other buffer is re-hashed in full.
    fn accept(&mut self, node: u32, hash: BlockHash, bytes: bytes::Bytes) {
        let recomputed = self.store.verify(hash, &bytes);
        if recomputed != hash {
            self.stats.verify_failures += 1;
        }
        self.delivered[node as usize].insert(hash, recomputed);
        self.stats.delivered_blocks += 1;
        let cache = &mut self.caches[node as usize];
        let used_before = cache.used_bytes();
        let victims = cache.insert(hash, bytes);
        self.cached_bytes = self.cached_bytes - used_before + cache.used_bytes();
        for victim in victims {
            self.stats.evictions += 1;
            if let Some(set) = self.holders.get_mut(&victim) {
                set.remove(&node);
                if set.is_empty() {
                    self.holders.remove(&victim);
                }
            }
        }
        if self.caches[node as usize].contains(hash) {
            self.holders.entry(hash).or_default().insert(node);
        }
    }

    fn publish_gauges(&self) {
        self.delivered_gauge.set(self.stats.delivered_blocks as f64);
        self.registry_bytes_gauge
            .set(self.stats.registry_bytes as f64);
        self.peer_bytes_gauge.set(self.stats.peer_bytes as f64);
        self.disk_reads_gauge.set(self.stats.disk_reads as f64);
        self.cached_bytes_gauge.set(self.cached_bytes as f64);
    }

    /// Kick-off: one step event per fetcher, all at `now` (synchronized
    /// cold start). Children of the root, so one trace covers the run.
    fn on_start<M: EventCast<CasEvent>>(&mut self, ctx: &mut Ctx<'_, M>) {
        let now = ctx.now();
        for node in 0..self.config.fetchers {
            ctx.schedule_at(now, M::upcast(CasEvent::NodeStep { node }));
        }
    }

    /// One fetch step: price the next block of `node`'s plan, blame the
    /// legs, and schedule the node's next step at the delivery time.
    fn on_node_step<M: EventCast<CasEvent>>(&mut self, ctx: &mut Ctx<'_, M>, node: u32) {
        let idx = node as usize;
        if self.pos[idx] >= self.plans[idx].len() {
            // Plan exhausted: the edge into this event was the last
            // block's delivery, so `now` is this node's completion.
            self.completions[idx] = ctx.now();
            self.remaining -= 1;
            if self.remaining == 0 {
                self.makespan = ctx.now();
                ctx.mark("distribute.complete", ctx.now());
            }
            self.publish_gauges();
            return;
        }
        let hash = self.plans[idx][self.pos[idx]];
        self.pos[idx] += 1;
        let delivered_at = match self.strategy {
            FetchStrategy::Registry => self.fetch_registry(ctx, node, hash, false),
            FetchStrategy::Cooperative => self.fetch_cooperative(ctx, node, hash),
        };
        ctx.schedule_at(delivered_at, M::upcast(CasEvent::NodeStep { node }));
    }

    /// Pulls `hash` from a registry NIC: request leg, first-touch disk,
    /// data leg. With `looked_up` the request already travelled as a
    /// tracker lookup (cooperative fallback), so only disk + data are
    /// priced here. Returns the delivery time and leaves the blame for
    /// the caller's schedule to drain.
    fn fetch_registry<M: EventCast<CasEvent>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        node: u32,
        hash: BlockHash,
        looked_up: bool,
    ) -> SimTime {
        let bytes = self.store.get(hash).expect("registry holds the catalog");
        let len = bytes.len() as u64;
        let cold = self.warmed.insert(hash);
        let disk = if cold {
            self.stats.disk_reads += 1;
            ctx.blame(category::CAS_DISK, self.config.disk_read);
            self.config.disk_read
        } else {
            SimDuration::ZERO
        };
        let src = self.fetcher_fabric(node);
        let nic = self.next_nic();
        let disk_starts = if looked_up {
            ctx.now()
        } else {
            let req = ctx.transfer_detailed(src, nic, self.config.request_bytes);
            ctx.blame(category::CAS_REGISTRY, req.total());
            req.delivered
        };
        let data = ctx.transfer_detailed_at(nic, src, len, disk_starts + disk);
        ctx.blame(category::CAS_REGISTRY, data.total());
        if cold {
            // The registry disk seeks exactly once per block; feed the
            // read into its utilization ledger.
            self.probe.busy("cas.disk", disk_starts, disk_starts + disk);
        }
        self.stats.registry_blocks += 1;
        self.stats.registry_bytes += len;
        self.accept(node, hash, bytes);
        self.publish_gauges();
        data.delivered
    }

    /// Asks the tracker who holds `hash`, then fetches from a peer's
    /// cache or falls back to the registry.
    fn fetch_cooperative<M: EventCast<CasEvent>>(
        &mut self,
        ctx: &mut Ctx<'_, M>,
        node: u32,
        hash: BlockHash,
    ) -> SimTime {
        self.stats.lookups += 1;
        let src = self.fetcher_fabric(node);
        // The lookup travels to a registry NIC in both outcomes; on a
        // miss it doubles as the block request.
        let nic = self.next_nic();
        let lookup = ctx.rpc_detailed(
            src,
            nic,
            self.config.lookup_bytes,
            self.config.lookup_reply_bytes,
        );
        ctx.blame(category::CAS_REGISTRY, lookup.total());
        let lookup_done = lookup.delivered;
        match self.pick_peer(node, hash) {
            Some(peer) => {
                self.stats.lookup_hits += 1;
                let bytes = self.caches[peer as usize]
                    .get(hash)
                    .expect("tracker only lists resident holders");
                let len = bytes.len() as u64;
                let departs = lookup_done + self.config.peer_service;
                let data = ctx.transfer_detailed_at(self.fetcher_fabric(peer), src, len, departs);
                ctx.blame(category::CAS_PEER, self.config.peer_service + data.total());
                self.stats.peer_blocks += 1;
                self.stats.peer_bytes += len;
                self.accept(node, hash, bytes);
                self.publish_gauges();
                data.delivered
            }
            None => self.fetch_registry(ctx, node, hash, true),
        }
    }
}

impl<M: EventCast<CasEvent> + 'static> Component<M> for FetchComponent {
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, event: M) {
        match event.downcast() {
            CasEvent::Start => self.on_start(ctx),
            CasEvent::NodeStep { node } => self.on_node_step(ctx, node),
        }
    }
}

impl std::fmt::Debug for FetchComponent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FetchComponent")
            .field("strategy", &self.strategy)
            .field("fetchers", &self.config.fetchers)
            .field("remaining", &self.remaining)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::ImageCatalogSpec;
    use now_am::FabricTransport;
    use now_net::presets;
    use now_sim::Engine;

    const REGISTRY_NICS: u32 = 2;

    /// An engine pricing every leg on an AM-over-ATM fabric with room for
    /// `fetchers` plus the registry NICs.
    fn fabric_engine(fetchers: u32) -> Engine<CasEvent> {
        let net = presets::am_atm(fetchers + REGISTRY_NICS);
        Engine::with_transport(Box::new(FabricTransport::new(net)))
    }

    fn run(strategy: FetchStrategy, fetchers: u32, budget: u64) -> (FetchStats, SimTime, u64) {
        let catalog = ImageCatalog::generate(&ImageCatalogSpec::smoke(42));
        let config = FetchConfig::new(fetchers, REGISTRY_NICS, budget, 7);
        let mut engine = fabric_engine(fetchers);
        let id = engine.register(FetchComponent::new(catalog, strategy, config));
        engine.schedule_at(id, SimTime::ZERO, CasEvent::Start);
        engine.run();
        let c = engine.component::<FetchComponent>(id);
        assert!(c.complete(), "every fetcher must drain its plan");
        let resident: u64 = c.caches().iter().map(PartialCache::used_bytes).sum();
        assert_eq!(c.cached_bytes, resident, "running total drifted");
        (c.stats(), c.makespan(), c.content_digest())
    }

    #[test]
    fn registry_delivers_and_verifies_every_block() {
        let (stats, makespan, _) = run(FetchStrategy::Registry, 4, u64::MAX);
        assert!(stats.delivered_blocks > 0);
        assert_eq!(stats.registry_blocks, stats.delivered_blocks);
        assert_eq!(stats.peer_blocks, 0);
        assert_eq!(stats.lookups, 0);
        assert_eq!(stats.verify_failures, 0);
        assert!(makespan > SimTime::ZERO);
    }

    #[test]
    fn cooperative_offloads_the_registry() {
        let (stats, _, _) = run(FetchStrategy::Cooperative, 8, u64::MAX);
        assert_eq!(stats.lookups, stats.delivered_blocks);
        assert_eq!(
            stats.peer_blocks + stats.registry_blocks,
            stats.delivered_blocks
        );
        assert!(
            stats.peer_blocks > stats.registry_blocks,
            "with 8 nodes sharing 4 images most blocks should come from \
             peers: {stats:?}"
        );
        assert_eq!(stats.verify_failures, 0);
    }

    #[test]
    fn both_strategies_deliver_identical_content() {
        let (_, _, registry) = run(FetchStrategy::Registry, 6, u64::MAX);
        let (_, _, cooperative) = run(FetchStrategy::Cooperative, 6, u64::MAX);
        assert_eq!(
            registry, cooperative,
            "the bytes a node boots from must not depend on the strategy"
        );
    }

    #[test]
    fn tight_budgets_evict_but_still_deliver() {
        // Budget of 3 chunks per node: far below any image.
        let (stats, _, digest) = run(FetchStrategy::Cooperative, 6, 3 * 16 * 1024);
        assert!(stats.evictions > 0, "budget must force evictions");
        assert_eq!(stats.verify_failures, 0);
        let (_, _, full) = run(FetchStrategy::Cooperative, 6, u64::MAX);
        assert_eq!(digest, full, "evictions must not change delivered bytes");
    }

    #[test]
    fn corrupted_deliveries_fail_verification() {
        let component = || {
            let catalog = ImageCatalog::generate(&ImageCatalogSpec::smoke(42));
            let config = FetchConfig::new(2, REGISTRY_NICS, u64::MAX, 7);
            FetchComponent::new(catalog, FetchStrategy::Registry, config)
        };
        let mut clean = component();
        let mut corrupt = component();
        let hash = clean.plans[0][0];
        let good = clean.store.get(hash).expect("registry holds the catalog");
        let mut bad = good.to_vec();
        bad[0] ^= 0xff;
        clean.accept(0, hash, good);
        corrupt.accept(0, hash, bytes::Bytes::from(bad));
        assert_eq!(clean.stats().verify_failures, 0);
        assert_eq!(corrupt.stats().verify_failures, 1);
        assert_eq!(corrupt.stats().delivered_blocks, 1);
        assert_ne!(
            clean.content_digest(),
            corrupt.content_digest(),
            "the digest folds the hash of the bytes received"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run(FetchStrategy::Cooperative, 8, 64 * 1024);
        let b = run(FetchStrategy::Cooperative, 8, 64 * 1024);
        assert_eq!(a, b);
    }

    #[test]
    fn cold_registry_reads_feed_the_disk_ledger() {
        let catalog = ImageCatalog::generate(&ImageCatalogSpec::smoke(42));
        let config = FetchConfig::new(4, REGISTRY_NICS, u64::MAX, 7);
        let registry = now_probe::Registry::new();
        let mut engine = fabric_engine(4);
        let mut fetch = FetchComponent::new(catalog, FetchStrategy::Registry, config);
        fetch.set_probe(&registry.probe());
        let id = engine.register(fetch);
        engine.schedule_at(id, SimTime::ZERO, CasEvent::Start);
        engine.run();
        let disk_reads = engine.component::<FetchComponent>(id).stats().disk_reads;
        assert!(disk_reads > 0);
        let snap = registry.snapshot();
        let util = snap.util("cas.disk").expect("cas.disk ledger");
        // One interval per cold read; concurrent fetchers overlap in sim
        // time, so clipping may trim, but busy never exceeds wall.
        assert_eq!(util.intervals, disk_reads);
        assert!(util.busy_ns > 0);
        assert_eq!(util.busy_ns + util.idle_ns(), util.wall_ns);
        assert!(util.busy_ns <= util.wall_ns);
    }

    #[test]
    #[should_panic(expected = "CostModel::Fixed")]
    fn fixed_cost_engine_is_rejected() {
        let catalog = ImageCatalog::generate(&ImageCatalogSpec::smoke(42));
        let config = FetchConfig::new(4, REGISTRY_NICS, u64::MAX, 7);
        let mut engine: Engine<CasEvent> = Engine::new();
        let fetch = FetchComponent::new(catalog, FetchStrategy::Cooperative, config);
        let id = engine.register(fetch);
        engine.schedule_at(id, SimTime::ZERO, CasEvent::Start);
        engine.run();
    }
}
