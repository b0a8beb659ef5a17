//! A/B benches for the telemetry layer's core claim: a disabled
//! [`now_probe::Probe`] adds no measurable cost to the hot paths it taps.
//!
//! Each workload runs three ways — no probe touched (the pre-telemetry
//! baseline shape), an explicitly disabled probe, and a live
//! [`now_probe::Registry`] probe — so `cargo bench` puts the disabled and
//! baseline numbers side by side.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use now_net::{presets, Network, NodeId};
use now_probe::{Probe, Registry};
use now_sim::SimTime;

const TRANSFERS: u64 = 4_096;

fn drive(net: &mut Network) -> u64 {
    let mut occupied = 0;
    for i in 0..TRANSFERS {
        let src = NodeId((i % 7) as u32);
        let dst = NodeId(7);
        let out = net.transfer(src, dst, 1_024 + (i % 5) * 512, SimTime::from_micros(i * 3));
        occupied += out.delivered_at.as_nanos();
    }
    occupied
}

fn bench_network_transfer(c: &mut Criterion) {
    let mut g = c.benchmark_group("probe_overhead/net_transfer");
    g.throughput(Throughput::Elements(TRANSFERS));
    g.bench_function("baseline_untouched", |b| {
        b.iter(|| {
            let mut net = presets::am_atm(8);
            black_box(drive(&mut net))
        })
    });
    g.bench_function("probe_disabled", |b| {
        b.iter(|| {
            let mut net = presets::am_atm(8);
            net.set_probe(Probe::disabled());
            black_box(drive(&mut net))
        })
    });
    g.bench_function("probe_enabled", |b| {
        let registry = Registry::new();
        b.iter(|| {
            let mut net = presets::am_atm(8);
            net.set_probe(registry.probe());
            black_box(drive(&mut net))
        })
    });
    g.finish();
}

fn bench_multigrid(c: &mut Criterion) {
    use now_mem::multigrid::{run, MemoryConfig};
    let mut g = c.benchmark_group("probe_overhead/multigrid_48mb");
    g.sample_size(20);
    g.bench_function("probe_disabled", |b| {
        b.iter(|| black_box(run(48, MemoryConfig::local32_netram(), &Probe::disabled())))
    });
    g.bench_function("probe_enabled", |b| {
        let registry = Registry::new();
        b.iter(|| black_box(run(48, MemoryConfig::local32_netram(), &registry.probe())))
    });
    g.finish();
}

fn bench_scenario_causal(c: &mut Criterion) {
    use now_core::{NowCluster, ScenarioObserver, ScenarioSpec};
    use now_probe::causal::CausalLog;
    use now_sim::SimDuration;
    use std::sync::Arc;

    // The availability experiment's trimmed coupled scenario: enough
    // events to exercise every provenance hook, small enough to iterate.
    let spec = ScenarioSpec {
        job_rounds: 50,
        paging_problem_mb: 16,
        paging_local_mb: 8,
        netram_mb_per_host: 2,
        horizon: SimDuration::from_secs(1),
        ..ScenarioSpec::contention_default()
    };
    let cluster = NowCluster::builder().nodes(32).seed(42).build();

    let mut g = c.benchmark_group("probe_overhead/scenario_causal");
    g.sample_size(20);
    // The headline claim: the two disabled paths must stay within 5% of
    // each other — provenance hooks cost nothing until a log is attached.
    g.bench_function("baseline_untouched", |b| {
        b.iter(|| black_box(cluster.run_scenario(&spec)))
    });
    g.bench_function("causal_disabled", |b| {
        let observer = ScenarioObserver::disabled();
        b.iter(|| black_box(cluster.run_scenario_observed(&spec, &observer)))
    });
    g.bench_function("causal_enabled", |b| {
        b.iter(|| {
            let observer = ScenarioObserver {
                probe: Probe::disabled(),
                causal: Some(Arc::new(CausalLog::new())),
                ..ScenarioObserver::disabled()
            };
            black_box(cluster.run_scenario_observed(&spec, &observer))
        })
    });
    g.finish();
}

fn bench_scenario_profile(c: &mut Criterion) {
    use now_core::{NowCluster, ScenarioObserver, ScenarioSpec};
    use now_sim::SimDuration;

    // Same trimmed coupled scenario as the causal group, now gating the
    // host-time profiler: the disabled dispatch path must stay within 5%
    // of the untouched engine, and even the enabled path only pays two
    // clock reads per event.
    let spec = ScenarioSpec {
        job_rounds: 50,
        paging_problem_mb: 16,
        paging_local_mb: 8,
        netram_mb_per_host: 2,
        horizon: SimDuration::from_secs(1),
        ..ScenarioSpec::contention_default()
    };
    let cluster = NowCluster::builder().nodes(32).seed(42).build();

    let mut g = c.benchmark_group("probe_overhead/scenario_profile");
    g.sample_size(20);
    g.bench_function("baseline_untouched", |b| {
        b.iter(|| black_box(cluster.run_scenario(&spec)))
    });
    g.bench_function("profile_disabled", |b| {
        let observer = ScenarioObserver::disabled();
        b.iter(|| black_box(cluster.run_scenario_observed(&spec, &observer)))
    });
    g.bench_function("profile_enabled", |b| {
        let observer = ScenarioObserver {
            profile: true,
            ..ScenarioObserver::disabled()
        };
        b.iter(|| black_box(cluster.run_scenario_observed(&spec, &observer)))
    });
    g.finish();
}

criterion_group!(
    probe_overhead,
    bench_network_transfer,
    bench_multigrid,
    bench_scenario_causal,
    bench_scenario_profile
);
criterion_main!(probe_overhead);
