use now_cache::{simulate, CacheConfig, Policy};
use now_probe::Probe;
use now_trace::fs::{FsTrace, FsTraceConfig};

fn main() {
    let cfg = FsTraceConfig::paper_defaults();
    let trace = FsTrace::generate(&cfg, 42);
    println!(
        "trace: {} accesses, {} unique blocks, shared {:.3}",
        trace.len(),
        trace.unique_blocks(),
        trace.shared_block_fraction()
    );
    for (name, policy) in [
        ("client-server", Policy::ClientServer),
        ("greedy", Policy::GreedyForwarding),
        ("n-chance(2)", Policy::NChance { n: 2 }),
    ] {
        let r = simulate(&trace, &CacheConfig::table3(policy), &Probe::disabled());
        println!(
            "{name:>14}: miss {:.1}%  resp {:.2} ms  local {:.1}%  server {:.1}%  remote {:.1}%",
            r.disk_read_rate() * 100.0,
            r.avg_read_response().as_millis_f64(),
            r.local_hit_rate() * 100.0,
            r.server_hits as f64 / r.reads as f64 * 100.0,
            r.remote_client_hits as f64 / r.reads as f64 * 100.0,
        );
    }
}
