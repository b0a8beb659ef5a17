//! The telemetry taps in `Network` fire iff a registry is attached, and
//! never change what the simulation computes.

use now_net::{presets, NodeId};
use now_probe::{Probe, Registry};
use now_sim::SimTime;

#[test]
fn network_transfer_counts_messages_and_bytes() {
    let registry = Registry::new();
    let mut net = presets::am_atm(8);
    net.set_probe(registry.probe());
    for i in 0..10u64 {
        net.transfer(
            NodeId(0),
            NodeId(1 + (i % 7) as u32),
            1_000,
            SimTime::from_micros(i),
        );
    }
    let s = registry.snapshot();
    assert_eq!(s.counter("net.transfers"), Some(10));
    assert_eq!(s.counter("net.bytes"), Some(10_000));
    assert_eq!(s.histogram("net.wire.ns").unwrap().count, 10);
    assert_eq!(s.histogram("net.queue_wait.ns").unwrap().count, 10);
}

#[test]
fn probed_transfer_matches_unprobed() {
    let registry = Registry::new();
    let mut probed = presets::tcp_ethernet(4);
    probed.set_probe(registry.probe());
    let mut plain = presets::tcp_ethernet(4);
    for i in 0..50u64 {
        let at = SimTime::from_micros(i * 11);
        let a = probed.transfer(NodeId(0), NodeId(2), 4_096, at);
        let b = plain.transfer(NodeId(0), NodeId(2), 4_096, at);
        assert_eq!(a, b, "telemetry changed transfer {i}");
    }
}

#[test]
fn measurement_helpers_do_not_pollute_telemetry() {
    let registry = Registry::new();
    let mut net = presets::am_atm(4);
    net.set_probe(registry.probe());
    let _ = net.one_way_small_message_us();
    let _ = net.bandwidth_at_mbps(8_192, 16);
    assert_eq!(registry.snapshot().counter("net.transfers"), None);
}

#[test]
fn disabled_probe_records_nothing() {
    let mut net = presets::am_atm(4);
    net.set_probe(Probe::disabled());
    net.transfer(NodeId(0), NodeId(1), 64, SimTime::ZERO);
    // Nothing to assert against — the point is the call compiles and runs
    // through the disabled path; determinism of outputs is covered above.
}
