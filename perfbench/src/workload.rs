//! The four workloads: how each is built from a seed, run, traced,
//! digested, and checked.
//!
//! Every simulated quantity a run produces (makespans, hit counts, block
//! counts, blame rows) goes into the outcome digest and the correctness
//! checks only; none of it is ever reported as a performance metric.

use std::sync::Arc;

use now_cache::{AccessCosts, ServeConfig, ThinkTime};
use now_cas::ImageCatalog;
use now_core::{
    DistributeOutcome, DistributeSpec, FetchStrategy, ImageCatalogSpec, NowCluster,
    ScenarioObservations, ScenarioObserver, ScenarioOutcome, ScenarioSpec, ServeOutcome, ServeSpec,
    DEFAULT_CHUNK_BYTES,
};
use now_probe::causal::CausalLog;
use now_probe::{Probe, Registry, Snapshot};
use now_sim::{HostProfile, SimDuration, SimTime};

/// The seed `repro` runs every workload with; the golden digests below
/// are recorded at it.
pub const DEFAULT_SEED: u64 = 42;

/// Background-flow points of the contention sweep.
const FLOWS: [u32; 5] = [0, 2, 4, 8, 16];
/// The smoke sweep (quick mode).
const FLOWS_QUICK: [u32; 3] = [0, 4, 8];
/// Nodes of the building-scale contention workload: 32 cells of 32.
const CELLS_NODES: u32 = 1024;
/// Nodes of the quick-mode cells workload: 2 cells.
const CELLS_NODES_QUICK: u32 = 64;
/// Serving populations of the full sweep.
const POPULATIONS: [u64; 5] = [20_000, 100_000, 1_000_000, 5_000_000, 20_000_000];
/// The smoke populations (quick mode).
const POPULATIONS_QUICK: [u64; 3] = [20_000, 100_000, 1_000_000];
/// Arrival horizon of every serving run.
pub const SERVE_HORIZON: SimTime = SimTime::from_millis(500);
/// Registry NICs in every distribution run.
const REGISTRY_NICS: u32 = 4;
/// Per-fetcher block budget of the distribution runs.
const CACHE_BUDGET: u64 = 8 * 1024 * 1024;
/// Flight-recorder cadence of the observed workload.
const RECORDER_EVERY: SimDuration = SimDuration::from_millis(50);

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The contention sweep at 1024 nodes, partitioned over every core.
    ContentionCells,
    /// The `repro serve` population sweep.
    ServePopulation,
    /// The `repro distribute` sweep, both strategies.
    DistributeCold,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [
        Kind::ContentionCells,
        Kind::ServePopulation,
        Kind::DistributeCold,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Kind::ContentionCells => "contention_cells",
            Kind::ServePopulation => "serve_population",
            Kind::DistributeCold => "distribute_cold",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The outcome digest of the full-size workload at [`DEFAULT_SEED`].
    /// A change to any simulated result at that seed changes it.
    pub fn golden_digest(self) -> u64 {
        match self {
            Kind::ContentionCells => 0x8b87_d269_fb09_0d96,
            Kind::ServePopulation => 0x5d9e_286d_0f18_c06d,
            Kind::DistributeCold => 0x72fb_0603_6ed0_5d71,
        }
    }
}

/// What one run produced: the simulated outcomes, which feed only the
/// digest and the checks.
pub enum Outcomes {
    /// One outcome per contention sweep point.
    Scenario(Vec<ScenarioOutcome>),
    /// One outcome per serving population.
    Serve(Vec<ServeOutcome>),
    /// Registry then cooperative outcome, per fetcher count.
    Distribute(Vec<DistributeOutcome>),
    /// Outcome and observations per sweep point, plus the shared
    /// registry's final snapshot.
    Observed {
        /// Per sweep point.
        runs: Vec<(ScenarioOutcome, ScenarioObservations)>,
        /// The probe registry every point wrote to.
        snapshot: Snapshot,
    },
}

/// The verdict on one run: its outcome digest and every check it failed.
pub struct Checked {
    /// FNV-1a digest over the run's simulated results.
    pub digest: u64,
    /// One line per failed check; empty when the run is correct.
    pub problems: Vec<String>,
}

/// A workload built from its seed: the cluster, the specs, and the
/// generated inputs. Building one is what `setup_s` times.
pub struct Workload {
    /// Which workload this is.
    pub kind: Kind,
    /// Engine partitions the timed runs use (threads); 1 except for
    /// `contention_cells`.
    pub threads: u32,
    cluster: NowCluster,
    plan: Plan,
}

enum Plan {
    Cells {
        /// The 1024-node sweep the workload times.
        specs: Vec<ScenarioSpec>,
        /// The same sweep on one 32-node cell, which the observation
        /// cost is measured on.
        single: Vec<ScenarioSpec>,
    },
    Serve(Vec<ServeSpec>),
    Distribute {
        specs: Vec<DistributeSpec>,
        /// The content digest a correct cold start delivers, per spec,
        /// computed from the generated catalog.
        expected: Vec<u64>,
        catalog: ImageCatalog,
    },
}

impl Workload {
    /// Builds `kind` from `seed`. `threads` is the partition count the
    /// partitioned workload runs at; `quick` shrinks every sweep to its
    /// smoke size (for the self-test).
    pub fn setup(kind: Kind, seed: u64, threads: u32, quick: bool) -> Workload {
        let contention = |nodes: u32, partitions: u32| -> Vec<ScenarioSpec> {
            let flows: &[u32] = if quick { &FLOWS_QUICK } else { &FLOWS };
            flows
                .iter()
                .map(|&n| ScenarioSpec {
                    background_flows: n,
                    seed,
                    cells: nodes / 32,
                    partitions,
                    ..ScenarioSpec::contention_default()
                })
                .collect()
        };
        let cluster_of = |nodes: u32| NowCluster::builder().nodes(nodes).seed(seed).build();
        let (threads, cluster, plan) = match kind {
            Kind::ContentionCells => {
                let nodes = if quick {
                    CELLS_NODES_QUICK
                } else {
                    CELLS_NODES
                };
                let plan = Plan::Cells {
                    specs: contention(nodes, threads),
                    single: contention(32, 1),
                };
                (threads, cluster_of(32), plan)
            }
            Kind::ServePopulation => {
                let pops: &[u64] = if quick {
                    &POPULATIONS_QUICK
                } else {
                    &POPULATIONS
                };
                let specs = pops.iter().map(|&p| serve_spec(p, seed)).collect();
                (1, cluster_of(32), Plan::Serve(specs))
            }
            Kind::DistributeCold => {
                let catalog_spec = distribute_catalog(seed, quick);
                let sweep = distribute_sweep(quick);
                let max = *sweep.last().expect("the sweep is never empty");
                let catalog = ImageCatalog::generate(&catalog_spec);
                let mut specs = Vec::new();
                let mut expected = Vec::new();
                for &fetchers in &sweep {
                    for strategy in [FetchStrategy::Registry, FetchStrategy::Cooperative] {
                        specs.push(DistributeSpec {
                            catalog: catalog_spec,
                            fetchers,
                            registry_nics: REGISTRY_NICS,
                            cache_budget: CACHE_BUDGET,
                            strategy,
                            seed,
                            horizon: SimTime::from_secs(1),
                            partitions: 1,
                            am_batch: now_am::BatchConfig::disabled(),
                        });
                        expected.push(expected_content_digest(&catalog, fetchers));
                    }
                }
                (
                    1,
                    cluster_of(max + REGISTRY_NICS),
                    Plan::Distribute {
                        specs,
                        expected,
                        catalog,
                    },
                )
            }
        };
        Workload {
            kind,
            threads,
            cluster,
            plan,
        }
    }

    /// One untraced run. `partitions` overrides the partition count of
    /// the partitioned workload; the others are serial at any value.
    pub fn run(&self, partitions: u32) -> Outcomes {
        let cluster = &self.cluster;
        match &self.plan {
            Plan::Cells { specs, .. } => Outcomes::Scenario(
                specs
                    .iter()
                    .map(|s| {
                        cluster.run_scenario(&ScenarioSpec {
                            partitions,
                            ..s.clone()
                        })
                    })
                    .collect(),
            ),
            Plan::Serve(specs) => {
                Outcomes::Serve(specs.iter().map(|s| cluster.run_serve(s)).collect())
            }
            Plan::Distribute { specs, .. } => {
                Outcomes::Distribute(specs.iter().map(|s| cluster.run_distribute(s)).collect())
            }
        }
    }

    /// One traced run: the same work with the engine's host profiler on,
    /// merged over every engine the workload ran. The profiler skips
    /// multi-cell runs, so the partitioned workload is traced as each of
    /// its cells run alone (cell `c` at seed `seed + c`), serially. With
    /// `profile` false the same runs go untraced (and the profile comes
    /// back empty): the base the tracing overhead is measured against.
    pub fn run_traced(&self, profile: bool) -> HostProfile {
        let traced = ScenarioObserver {
            profile,
            ..ScenarioObserver::disabled()
        };
        let mut merged = HostProfile::default();
        let mut merge = |p: Option<HostProfile>| {
            if profile {
                merged.merge(&p.expect("a serial traced run returns its profile"));
            }
        };
        match &self.plan {
            Plan::Cells { specs, .. } => {
                for spec in specs {
                    for c in 0..spec.cells {
                        let cell = ScenarioSpec {
                            seed: spec.seed + u64::from(c),
                            cells: 1,
                            partitions: 1,
                            ..spec.clone()
                        };
                        merge(self.cluster.run_scenario_observed(&cell, &traced).1.profile);
                    }
                }
            }
            Plan::Serve(specs) => {
                for spec in specs {
                    merge(self.cluster.run_serve_observed(spec, &traced).1.profile);
                }
            }
            Plan::Distribute { specs, .. } => {
                for spec in specs {
                    merge(
                        self.cluster
                            .run_distribute_observed(spec, &traced)
                            .1
                            .profile,
                    );
                }
            }
        }
        merged
    }

    /// The contention workload's sweep on one cell, with full observation
    /// when `observe` is set: one shared enabled probe (whose utilization
    /// ledgers fill as the fabric works), and per point a causal log and a
    /// flight recorder. Unobserved, it is the base of `probe.overhead_x`.
    /// `profile` adds the host profiler, merged over the points.
    ///
    /// # Panics
    ///
    /// Panics on a workload other than `contention_cells`.
    pub fn run_observation(&self, observe: bool, profile: bool) -> (Outcomes, HostProfile) {
        let Plan::Cells { single, .. } = &self.plan else {
            panic!("only the contention workload measures observation cost");
        };
        let registry = Registry::new();
        let probe = if observe {
            registry.probe()
        } else {
            Probe::disabled()
        };
        let mut runs = Vec::with_capacity(single.len());
        let mut merged = HostProfile::default();
        for spec in single {
            let observer = ScenarioObserver {
                probe: probe.clone(),
                causal: observe.then(|| Arc::new(CausalLog::new())),
                sample_every: observe.then_some(RECORDER_EVERY),
                profile,
                ..ScenarioObserver::disabled()
            };
            let (out, mut obs) = self.cluster.run_scenario_observed(spec, &observer);
            if let Some(p) = obs.profile.take() {
                merged.merge(&p);
            }
            runs.push((out, obs));
        }
        let outcomes = if observe {
            Outcomes::Observed {
                runs,
                snapshot: registry.snapshot(),
            }
        } else {
            Outcomes::Scenario(runs.into_iter().map(|(out, _)| out).collect())
        };
        (outcomes, merged)
    }

    /// The generated image catalog (distribution workload only).
    pub fn catalog(&self) -> Option<&ImageCatalog> {
        match &self.plan {
            Plan::Distribute { catalog, .. } => Some(catalog),
            _ => None,
        }
    }

    /// The contention sweep's specs (empty for the other workloads).
    pub fn scenario_specs(&self) -> &[ScenarioSpec] {
        match &self.plan {
            Plan::Cells { specs, .. } => specs,
            _ => &[],
        }
    }

    /// Digests `out` and checks the workload's seed-independent
    /// invariants on it.
    pub fn check(&self, out: &Outcomes) -> Checked {
        let mut h = Fnv::new();
        let mut problems = Vec::new();
        match out {
            Outcomes::Scenario(outs) => outs.iter().for_each(|o| digest_scenario(&mut h, o)),
            Outcomes::Serve(outs) => {
                for (o, spec) in outs.iter().zip(self.serve_specs()) {
                    digest_serve(&mut h, o);
                    if o.completed != o.requests {
                        problems.push(format!(
                            "serve population {}: {} of {} requests completed",
                            spec.config.population, o.completed, o.requests
                        ));
                    }
                }
            }
            Outcomes::Distribute(outs) => {
                let expected = match &self.plan {
                    Plan::Distribute { expected, .. } => expected.as_slice(),
                    _ => &[],
                };
                for (o, want) in outs.iter().zip(expected) {
                    digest_distribute(&mut h, o);
                    if o.verify_failures != 0 {
                        problems.push(format!(
                            "distribute {} fetchers: {} blocks failed verification",
                            o.fetchers, o.verify_failures
                        ));
                    }
                    if o.content_digest != *want {
                        problems.push(format!(
                            "distribute {} fetchers: content digest {:#x}, catalog says {want:#x}",
                            o.fetchers, o.content_digest
                        ));
                    }
                }
                for pair in outs.chunks(2) {
                    if let [registry, cooperative] = pair {
                        if registry.content_digest != cooperative.content_digest {
                            problems.push(format!(
                                "distribute {} fetchers: registry and cooperative delivered \
                                 different content",
                                registry.fetchers
                            ));
                        }
                    }
                }
            }
            Outcomes::Observed { runs, snapshot } => {
                for (o, obs) in runs {
                    digest_scenario(&mut h, o);
                    for (tag, table) in &obs.blame {
                        h.str(tag);
                        h.u64(table.total.as_nanos());
                        for row in &table.rows {
                            h.str(&row.component);
                            h.str(row.category);
                            h.u64(row.time.as_nanos());
                        }
                    }
                    h.u64(obs.timeseries.rows.len() as u64);
                    if let Some(p) = blame_problem(o, obs) {
                        problems.push(p);
                    }
                }
                for (name, value) in &snapshot.counters {
                    h.str(name);
                    h.u64(*value);
                }
            }
        }
        Checked {
            digest: h.finish(),
            problems,
        }
    }

    fn serve_specs(&self) -> &[ServeSpec] {
        match &self.plan {
            Plan::Serve(specs) => specs,
            _ => &[],
        }
    }
}

/// The job's blame table must telescope: its rows sum to its total, and
/// its total lands within 1% of the job makespan.
fn blame_problem(out: &ScenarioOutcome, obs: &ScenarioObservations) -> Option<String> {
    let Some((_, job)) = obs.blame.iter().find(|(tag, _)| *tag == "job") else {
        return Some("observed run produced no job blame table".to_string());
    };
    let rows: u64 = job.rows.iter().map(|r| r.time.as_nanos()).sum();
    let makespan = out.job_makespan.as_nanos() as f64;
    let total = job.total.as_nanos() as f64;
    if job.truncated || rows != job.total.as_nanos() || (total - makespan).abs() > 0.01 * makespan {
        return Some(format!(
            "job blame does not telescope: rows {rows} ns, total {total} ns, makespan \
             {makespan} ns, truncated {}",
            job.truncated
        ));
    }
    None
}

/// The serving spec `repro serve` sweeps, at population `population`.
fn serve_spec(population: u64, seed: u64) -> ServeSpec {
    ServeSpec {
        config: ServeConfig {
            population,
            think: ThinkTime::Exponential { mean_ms: 10_000.0 },
            catalog_objects: 4_096,
            zipf_theta: 0.9,
            client_blocks: 256,
            server_blocks: 1_024,
            object_bytes: 8_192,
            costs: AccessCosts::paper_defaults(),
            horizon: SERVE_HORIZON,
            seed,
            retain_exact: false,
        },
        front_ends: 8,
        partitions: 1,
        am_batch: now_am::BatchConfig::disabled(),
    }
}

/// The catalog `repro distribute` publishes (the smoke one in quick mode).
fn distribute_catalog(seed: u64, quick: bool) -> ImageCatalogSpec {
    if quick {
        ImageCatalogSpec::smoke(seed)
    } else {
        ImageCatalogSpec {
            images: 8,
            base_files: 24,
            app_files: 8,
            file_bytes: 64 * 1024,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            seed,
        }
    }
}

/// Fetcher counts: powers of two up to 32 (ends and midpoint in quick
/// mode).
fn distribute_sweep(quick: bool) -> Vec<u32> {
    if quick {
        vec![2, 8, 32]
    } else {
        vec![2, 4, 8, 16, 32]
    }
}

/// The content digest of a correct cold start of `fetchers` nodes: node
/// `i` holds image `i % images`, and the digest folds the hash of every
/// unique block of its manifest, in manifest order.
fn expected_content_digest(catalog: &ImageCatalog, fetchers: u32) -> u64 {
    let mut h = Fnv::new();
    for node in 0..fetchers as usize {
        let manifest = &catalog.manifests[node % catalog.manifests.len()];
        for hash in manifest.unique_blocks() {
            h.bytes(&hash.0.to_le_bytes());
        }
    }
    h.finish()
}

fn digest_scenario(h: &mut Fnv, o: &ScenarioOutcome) {
    h.u64(o.job_makespan.as_nanos());
    h.opt_f64(o.mean_netram_fetch_us);
    h.u64(o.paging.compute.as_nanos());
    h.u64(o.paging.stall.as_nanos());
    h.u64(o.paging.total.as_nanos());
    let p = &o.paging.pager;
    for v in [
        p.accesses,
        p.hits,
        p.soft_faults,
        p.netram_faults,
        p.disk_faults,
        p.writebacks,
    ] {
        h.u64(v);
    }
    let c = &o.cache;
    for v in [
        c.reads,
        c.writes,
        c.local_hits,
        c.remote_client_hits,
        c.server_hits,
        c.disk_reads,
        c.read_time.as_nanos(),
        c.forwards,
    ] {
        h.u64(v);
    }
    h.u64(o.background_frames);
    h.opt_f64(o.mean_background_latency_us);
    h.u64(o.faults.injected);
    h.u64(o.faults.detected);
}

fn digest_serve(h: &mut Fnv, o: &ServeOutcome) {
    for v in [
        o.requests,
        o.completed,
        o.local_hits,
        o.server_hits,
        o.disk_reads,
    ] {
        h.u64(v);
    }
    for q in [0.5, 0.99, 0.999] {
        h.opt_f64(o.latency_ms(q));
    }
    h.opt_f64(o.mean_ms());
}

fn digest_distribute(h: &mut Fnv, o: &DistributeOutcome) {
    for v in [
        u64::from(o.fetchers),
        o.images as u64,
        o.unique_blocks as u64,
        o.logical_bytes,
        o.unique_bytes,
        o.makespan.as_nanos(),
        o.registry_blocks,
        o.registry_bytes,
        o.peer_blocks,
        o.peer_bytes,
        o.disk_reads,
        o.lookups,
        o.lookup_hits,
        o.evictions,
        o.verify_failures,
        o.content_digest,
    ] {
        h.u64(v);
    }
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        self.u64(v.map_or(u64::MAX, f64::to_bits));
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}
