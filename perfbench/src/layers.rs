//! Timed calls into single layers' public functions, on inputs shaped
//! like the workload that exercises each layer and generated from the
//! workload seed. Each timing is the median of [`BATCHES`] batches, so one
//! preempted batch cannot move it.

use std::hint::black_box;
use std::time::Instant;

use now_cas::ImageCatalog;
use now_core::{ScenarioSpec, ServeOutcome};
use now_mem::multigrid::{MemoryConfig, MultigridConfig, PAGE_BYTES};
use now_mem::{PageId, RemoteAccessCost};
use now_net::{Network, NodeId};
use now_probe::{Probe, Registry, Snapshot};
use now_sim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::stats::median;

/// Batches per timing.
const BATCHES: usize = 7;

/// Times `batch` [`BATCHES`] times and returns the median nanoseconds per
/// operation, `ops` operations per batch. `prepare` builds each batch's
/// fresh input outside the timed region.
fn per_op_ns<T>(ops: usize, mut prepare: impl FnMut() -> T, mut batch: impl FnMut(T)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let input = prepare();
            let start = Instant::now();
            batch(input);
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// The serving workload's mean pending-event depth, by Little's law: each
/// in-flight request holds one pending event, so a population point keeps
/// `requests x mean latency / run length` events queued on average, where
/// the run lasts the arrival horizon plus the slowest tail. Points are
/// weighted by their request counts, as dispatch time is.
pub fn serve_pending_depth(outs: &[ServeOutcome], horizon: SimTime) -> usize {
    let mut weighted = 0.0;
    let mut requests = 0.0;
    for o in outs {
        let (Some(mean), Some(tail)) = (o.mean_ms(), o.latency_ms(0.999)) else {
            continue;
        };
        let run_ms = horizon.as_secs_f64() * 1e3 + tail;
        let depth = o.requests as f64 * mean / run_ms;
        weighted += depth * o.requests as f64;
        requests += o.requests as f64;
    }
    ((weighted / requests.max(1.0)) as usize).max(1)
}

/// `EventQueue` hold model: a queue kept at `depth` pending events pops
/// the earliest and schedules a successor a random delay later, as every
/// serving event does. Nanoseconds per schedule+pop pair.
pub fn queue_ns_per_op(seed: u64, depth: usize) -> f64 {
    const OPS: usize = 400_000;
    let mut rng = SimRng::new(seed);
    // Delays spread over the depth, so new events land throughout the queue.
    let spread = depth as u64 * 1_000 + 1;
    let delays: Vec<u64> = (0..OPS).map(|_| rng.gen_range(1..spread)).collect();
    let prefill: Vec<u64> = (0..depth).map(|_| rng.gen_range(0..spread)).collect();
    per_op_ns(
        OPS,
        || {
            let mut q = EventQueue::new();
            for (i, &t) in prefill.iter().enumerate() {
                q.schedule_at(SimTime::from_nanos(t), i as u64);
            }
            q
        },
        |mut q| {
            for &d in &delays {
                let (now, payload) = q.pop().expect("the queue holds `depth` events");
                q.schedule_at(now + SimDuration::from_nanos(d), black_box(payload));
            }
            black_box(q.len());
        },
    )
}

/// `Network::transfer` on the cluster fabric under the contention mix:
/// 8-KB sends along the scenario's paths (the BSP ring among the
/// workers, paging between the pager and the network-RAM hosts,
/// background flows from the hosts into the workers, and cache traffic
/// between the workers and the file server), requested at the cadence of
/// the sweep's 8-flow point. Nanoseconds per transfer.
pub fn transfer_ns(seed: u64, network: &Network, spec: &ScenarioSpec) -> f64 {
    const OPS: usize = 200_000;
    let k = spec.job_workers;
    let h = spec.netram_hosts;
    let pager = k;
    let server = network.nodes() - 1;
    let mut paths: Vec<(u32, u32)> = Vec::new();
    for w in 0..k {
        paths.push((w, (w + 1) % k));
        paths.push((w, server));
        paths.push((server, w));
    }
    for i in 0..h {
        let host = k + 1 + i;
        paths.push((pager, host));
        paths.push((host, pager));
        paths.push((host, i % k));
    }
    let mut rng = SimRng::new(seed);
    let gap_ns = spec.background_interval.as_nanos() as f64 / 8.0;
    let mut now = 0.0;
    let sends: Vec<(NodeId, NodeId, SimTime)> = (0..OPS)
        .map(|_| {
            now += rng.exponential(gap_ns);
            let &(src, dst) = rng.pick(&paths);
            (NodeId(src), NodeId(dst), SimTime::from_nanos(now as u64))
        })
        .collect();
    per_op_ns(
        OPS,
        || network.clone(),
        |mut net| {
            for &(src, dst, at) in &sends {
                black_box(net.transfer(src, dst, spec.job_message_bytes, at));
            }
        },
    )
}

/// `Pager::access` with network RAM, over the contention scenario's
/// paging process: its local DRAM and donor pool, sweeping the problem's
/// pages in order `paging_sweeps` times with the multigrid compute
/// between accesses. The sweep has no random input. Nanoseconds per
/// access.
pub fn pager_access_ns(spec: &ScenarioSpec) -> f64 {
    let pages = spec.paging_problem_mb * 1024 * 1024 / PAGE_BYTES;
    let accesses = pages * u64::from(spec.paging_sweeps);
    let memory = MemoryConfig::LocalWithNetRam {
        mb: spec.paging_local_mb,
        hosts: spec.netram_hosts,
        mb_per_host: spec.netram_mb_per_host,
        cost: RemoteAccessCost::table2_atm(),
    };
    let compute = MultigridConfig {
        sweeps: spec.paging_sweeps,
        ..MultigridConfig::paper_defaults()
    }
    .compute_per_page();
    per_op_ns(
        accesses as usize,
        || memory.build_pager(),
        |mut pager| {
            for i in 0..accesses {
                black_box(pager.access(PageId(i % pages), true, compute));
            }
        },
    )
}

/// `BlockStore::hash_of` over every unique block of the workload's
/// generated catalog. Nanoseconds per KB hashed, and whether every block
/// re-hashed to its address.
pub fn hash_ns_per_kb(catalog: &ImageCatalog) -> (f64, bool) {
    let store = &catalog.store;
    let blocks: Vec<_> = store
        .hashes()
        .map(|h| (h, store.get(h).expect("every listed block is stored")))
        .collect();
    let bytes: usize = blocks.iter().map(|(_, b)| b.len()).sum();
    let intact = blocks.iter().all(|(h, b)| store.hash_of(b) == *h);
    let ns_per_byte = per_op_ns(
        bytes,
        || (),
        |()| {
            for (_, b) in &blocks {
                black_box(store.hash_of(black_box(b)));
            }
        },
    );
    (ns_per_byte * 1024.0, intact)
}

/// By-name `Probe::count` and `Probe::busy` on an enabled registry
/// holding the instruments the observed workload created (taken from its
/// final snapshot), called in a seed-random order; then the same mixed
/// calls on `Probe::disabled()`. Nanoseconds per call:
/// `(count, busy, disabled)`.
pub fn probe_ns(seed: u64, shape: &Snapshot) -> (f64, f64, f64) {
    const OPS: usize = 200_000;
    let counters: Vec<&str> = shape.counters.iter().map(|(n, _)| n.as_str()).collect();
    let utils: Vec<&str> = shape.utils.iter().map(|(n, _)| n.as_str()).collect();
    let mut rng = SimRng::new(seed);
    let count_calls: Vec<&str> = (0..OPS).map(|_| *rng.pick(&counters)).collect();
    let mut t = 0;
    let busy_calls: Vec<(&str, SimTime, SimTime)> = (0..OPS)
        .map(|_| {
            t += rng.gen_range(1_000..50_000);
            let start = SimTime::from_nanos(t);
            (
                *rng.pick(&utils),
                start,
                start + SimDuration::from_micros(20),
            )
        })
        .collect();
    let registry = Registry::new();
    let enabled = registry.probe();
    for name in &counters {
        enabled.count(name, 0);
    }
    for name in &utils {
        enabled.busy(name, SimTime::ZERO, SimTime::ZERO);
    }
    let count = |probe: &Probe| {
        for name in &count_calls {
            probe.count(black_box(name), 1);
        }
    };
    let busy = |probe: &Probe| {
        for &(name, start, end) in &busy_calls {
            probe.busy(black_box(name), start, end);
        }
    };
    let count_ns = per_op_ns(OPS, || (), |()| count(&enabled));
    let busy_ns = per_op_ns(OPS, || (), |()| busy(&enabled));
    let disabled = Probe::disabled();
    let disabled_ns = per_op_ns(
        2 * OPS,
        || (),
        |()| {
            count(&disabled);
            busy(&disabled);
        },
    );
    (count_ns, busy_ns, disabled_ns)
}
