//! Integration test: the Table 3 experiment at reduced trace length.
//!
//! The full two-day configuration (run by `repro --table3` and recorded in
//! `EXPERIMENTS.md`) reproduces the paper's 16 → 8 percent miss-rate
//! halving; this test runs the same pipeline on a 12-hour trace so it stays
//! fast in debug builds, and asserts the qualitative shape with widened
//! bands.

use now_cache::{simulate, CacheConfig, Policy};
use now_probe::Probe;
use now_sim::SimDuration;
use now_trace::fs::{FsTrace, FsTraceConfig};

fn twelve_hour_trace() -> &'static FsTrace {
    use std::sync::OnceLock;
    static TRACE: OnceLock<FsTrace> = OnceLock::new();
    TRACE.get_or_init(|| {
        let mut cfg = FsTraceConfig::paper_defaults();
        cfg.duration = SimDuration::from_secs(12 * 3600);
        FsTrace::generate(&cfg, 42)
    })
}

#[test]
fn table3_shape_holds() {
    let trace = twelve_hour_trace();
    let base = simulate(
        trace,
        &CacheConfig::table3(Policy::ClientServer),
        &Probe::disabled(),
    );
    let coop = simulate(
        trace,
        &CacheConfig::table3(Policy::GreedyForwarding),
        &Probe::disabled(),
    );
    let nchance = simulate(
        trace,
        &CacheConfig::table3(Policy::NChance { n: 2 }),
        &Probe::disabled(),
    );

    // Baseline miss rate in the neighbourhood of the paper's 16 percent.
    let base_miss = base.disk_read_rate();
    assert!(
        (0.12..=0.26).contains(&base_miss),
        "baseline miss rate {base_miss}"
    );

    // Cooperative caching substantially reduces disk reads...
    let coop_miss = coop.disk_read_rate();
    assert!(
        coop_miss < base_miss * 0.75,
        "cooperative caching should cut disk reads: {base_miss} -> {coop_miss}"
    );
    // ...and N-Chance does at least as well as greedy forwarding.
    assert!(nchance.disk_read_rate() <= coop_miss * 1.05);

    // Read response time improves by a large factor (paper: 80 percent,
    // i.e. 1.75x).
    let speedup =
        base.avg_read_response().as_micros_f64() / coop.avg_read_response().as_micros_f64();
    assert!(
        (1.25..=2.5).contains(&speedup),
        "response-time improvement {speedup}"
    );
}

#[test]
fn cooperative_caching_shifts_hits_from_disk_to_remote_memory() {
    let trace = twelve_hour_trace();
    let base = simulate(
        trace,
        &CacheConfig::table3(Policy::ClientServer),
        &Probe::disabled(),
    );
    let coop = simulate(
        trace,
        &CacheConfig::table3(Policy::GreedyForwarding),
        &Probe::disabled(),
    );

    // The same reads happen; the forwarding policy converts disk reads and
    // server-cache pressure into remote-client hits.
    assert_eq!(base.reads, coop.reads);
    assert_eq!(base.remote_client_hits, 0);
    assert!(coop.remote_client_hits > 0);
    let moved = base.disk_reads - coop.disk_reads;
    assert!(
        coop.remote_client_hits as f64 > moved as f64,
        "remote hits ({}) should cover the disk reads avoided ({moved})",
        coop.remote_client_hits
    );
}

#[test]
fn idle_clients_absorb_singlets_under_nchance() {
    let trace = twelve_hour_trace();
    let nchance = simulate(
        trace,
        &CacheConfig::table3(Policy::NChance { n: 2 }),
        &Probe::disabled(),
    );
    assert!(
        nchance.forwards > 0,
        "n-chance must actually forward blocks between clients"
    );
}
