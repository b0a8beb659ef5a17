//! The Active Messages telemetry taps: protocol counters balance, the RTT
//! histogram measures first-launch-to-reply, and bulk transfers count
//! their fragments.

use now_am::{bulk_put, ActiveMessages, AmConfig, FRAGMENT_BYTES};
use now_net::{presets, NodeId};
use now_probe::Registry;
use now_sim::SimTime;

#[test]
fn lossless_run_counts_requests_and_replies() {
    let registry = Registry::new();
    let mut am = ActiveMessages::new(presets::am_atm(8), AmConfig::default(), 1);
    am.set_probe(registry.probe());
    for i in 0..40u64 {
        am.request_at(
            SimTime::from_micros(i * 5),
            NodeId((i % 7) as u32),
            NodeId(7),
            256,
        );
    }
    am.run_to_completion();
    let s = registry.snapshot();
    assert_eq!(s.counter("am.requests"), Some(40));
    assert_eq!(s.counter("am.delivered"), Some(40));
    assert_eq!(s.counter("am.replies"), Some(40));
    assert_eq!(s.counter("am.retransmits"), None, "no loss, no retries");
    let rtt = s.histogram("am.rtt.ns").unwrap();
    assert_eq!(rtt.count, 40, "one RTT sample per matched reply");
    assert!(rtt.min.unwrap() > 0);
}

#[test]
fn lossy_run_counts_losses_and_retransmits() {
    let registry = Registry::new();
    let config = AmConfig {
        loss_probability: 0.3,
        ..AmConfig::default()
    };
    let mut am = ActiveMessages::new(presets::am_atm(4), config, 7);
    am.set_probe(registry.probe());
    for i in 0..60u64 {
        am.request_at(SimTime::from_micros(i * 40), NodeId(0), NodeId(3), 128);
    }
    am.run_to_completion();
    let s = registry.snapshot();
    let losses = s.counter("am.wire_losses").unwrap_or(0);
    let retries = s.counter("am.retransmits").unwrap_or(0);
    assert!(losses > 0, "30% loss must drop something over 60 requests");
    assert!(retries > 0, "losses must force retransmission");
    // Exactly-once: every request is eventually delivered exactly once.
    assert_eq!(s.counter("am.delivered"), Some(60));
    // RTT is measured from the *first* launch, so a retried request's RTT
    // spans at least one timeout; the histogram max shows that.
    let rtt = s.histogram("am.rtt.ns").unwrap();
    assert_eq!(rtt.count, 60);
    assert!(rtt.max.unwrap() > rtt.min.unwrap());
}

#[test]
fn bulk_put_counts_fragments() {
    let registry = Registry::new();
    let mut net = presets::am_atm(4);
    let bytes = 3 * FRAGMENT_BYTES + 100;
    let out = bulk_put(
        &mut net,
        NodeId(0),
        NodeId(2),
        bytes,
        SimTime::ZERO,
        &registry.probe(),
    );
    assert!(out.completed_at > SimTime::ZERO);
    let s = registry.snapshot();
    assert_eq!(s.counter("am.bulk.puts"), Some(1));
    assert_eq!(s.counter("am.bulk.fragments"), Some(4));
    assert_eq!(s.counter("am.bulk.bytes"), Some(bytes));
    assert_eq!(s.histogram("am.bulk.put.ns").unwrap().count, 1);
}
