//! Bulk transfer and collective operations over Active Messages.
//!
//! Active Messages proper carries a handful of words; larger payloads go
//! as *bulk puts* — the payload is fragmented onto the wire and the
//! receiver's handler fires once, when the last fragment lands. The
//! paper's communication layer (and Split-C's `store`/`get` on top of it)
//! works exactly this way. Collectives — barrier and broadcast — are then
//! trees of small request/replies, as in the LogP analyses the Berkeley
//! group published.

use now_net::{Network, NodeId};
use now_probe::Probe;
use now_sim::{SimDuration, SimTime};

/// Maximum payload carried per fragment (an ATM-friendly unit well under
/// common MTUs once headers are added).
pub const FRAGMENT_BYTES: u64 = 4_096;

/// Outcome of a bulk put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BulkOutcome {
    /// Fragments sent.
    pub fragments: u64,
    /// When the destination handler for the completed transfer ran.
    pub completed_at: SimTime,
    /// Sender CPU time consumed across all fragments.
    pub send_cpu: SimDuration,
}

/// Transfers `bytes` from `src` to `dst` starting at `start`, fragmenting
/// at [`FRAGMENT_BYTES`]. Fragments pipeline on the wire: the sender
/// injects the next fragment as soon as its CPU frees, and completion is
/// the delivery of the last fragment.
///
/// Bumps `am.bulk.puts` / `am.bulk.fragments` / `am.bulk.bytes` on
/// `probe` and records the whole put's duration in the `am.bulk.put.ns`
/// histogram. The per-fragment wire telemetry comes from whatever probe
/// is attached to `net` itself.
///
/// # Panics
///
/// Panics if `src == dst` or `bytes` is zero.
pub fn bulk_put(
    net: &mut Network,
    src: NodeId,
    dst: NodeId,
    bytes: u64,
    start: SimTime,
    probe: &Probe,
) -> BulkOutcome {
    assert_ne!(src, dst, "bulk puts are remote");
    assert!(bytes > 0, "empty puts are not a thing");
    let mut remaining = bytes;
    let mut now = start;
    let mut fragments = 0;
    let mut send_cpu = SimDuration::ZERO;
    let mut completed_at = start;
    while remaining > 0 {
        let chunk = remaining.min(FRAGMENT_BYTES);
        let out = net.transfer(src, dst, chunk, now);
        fragments += 1;
        send_cpu += out.send_cpu;
        completed_at = out.delivered_at;
        now = out.sender_free_at;
        remaining -= chunk;
    }
    if probe.is_enabled() {
        probe.count("am.bulk.puts", 1);
        probe.count("am.bulk.fragments", fragments);
        probe.count("am.bulk.bytes", bytes);
        probe.record("am.bulk.put.ns", completed_at.saturating_since(start));
    }
    BulkOutcome {
        fragments,
        completed_at,
        send_cpu,
    }
}

/// Runs a dissemination barrier among nodes `0..n` starting at `start`:
/// in round `k`, node `i` signals node `(i + 2^k) mod n`; after
/// `ceil(log2 n)` rounds everyone has transitively heard from everyone.
/// Returns the time the last node leaves the barrier.
///
/// # Panics
///
/// Panics if `n` is 0 or exceeds the network size.
pub fn barrier(net: &mut Network, n: u32, start: SimTime) -> SimTime {
    assert!(n >= 1 && n <= net.nodes(), "barrier span out of range");
    if n == 1 {
        return start;
    }
    // Per-node time at which the node has finished the previous round.
    let mut ready: Vec<SimTime> = vec![start; n as usize];
    let mut shift = 1u32;
    while shift < n {
        let mut next: Vec<SimTime> = ready.clone();
        for i in 0..n {
            let peer = (i + shift) % n;
            let out = net.transfer(NodeId(i), NodeId(peer), 16, ready[i as usize]);
            // The peer can proceed only once it has both finished its own
            // round and heard the signal.
            let p = &mut next[peer as usize];
            *p = (*p).max(out.delivered_at);
            // The sender is busy until its send completes.
            let s = &mut next[i as usize];
            *s = (*s).max(out.sender_free_at);
        }
        ready = next;
        shift *= 2;
    }
    ready.into_iter().max().expect("n >= 1")
}

/// Broadcasts a small message from node 0 to nodes `1..n` along a binomial
/// tree. Returns when the last node has it.
///
/// # Panics
///
/// Panics if `n` is 0 or exceeds the network size.
pub fn broadcast(net: &mut Network, n: u32, start: SimTime) -> SimTime {
    assert!(n >= 1 && n <= net.nodes(), "broadcast span out of range");
    let mut has_it: Vec<Option<SimTime>> = vec![None; n as usize];
    has_it[0] = Some(start);
    let mut shift = 1u32;
    let mut latest = start;
    while shift < n {
        // Snapshot who is informed before this round: newly-informed nodes
        // first send in the *next* round (that is what makes it a tree).
        let informed: Vec<Option<SimTime>> = has_it.clone();
        for i in 0..n {
            let target = i + shift;
            if target >= n {
                continue;
            }
            if let Some(t) = informed[i as usize] {
                if informed[target as usize].is_none() {
                    let out = net.transfer(NodeId(i), NodeId(target), 16, t);
                    has_it[target as usize] = Some(out.delivered_at);
                    has_it[i as usize] = Some(out.sender_free_at);
                    latest = latest.max(out.delivered_at);
                }
            }
        }
        shift *= 2;
    }
    latest
}

#[cfg(test)]
mod tests {
    use super::*;
    use now_net::presets;

    #[test]
    fn bulk_put_fragments_correctly() {
        let mut net = presets::am_atm(2);
        let out = bulk_put(
            &mut net,
            NodeId(0),
            NodeId(1),
            10_000,
            SimTime::ZERO,
            &Probe::disabled(),
        );
        assert_eq!(out.fragments, 3); // 4096 + 4096 + 1808
        assert!(out.completed_at > SimTime::ZERO);
    }

    #[test]
    fn bulk_put_single_fragment_for_small_payloads() {
        let mut net = presets::am_atm(2);
        let out = bulk_put(
            &mut net,
            NodeId(0),
            NodeId(1),
            100,
            SimTime::ZERO,
            &Probe::disabled(),
        );
        assert_eq!(out.fragments, 1);
    }

    #[test]
    fn bulk_put_approaches_wire_bandwidth() {
        // A 1-MB put over AM/ATM should achieve most of 155 Mbps.
        let mut net = presets::am_atm(2);
        let bytes = 1 << 20;
        let out = bulk_put(
            &mut net,
            NodeId(0),
            NodeId(1),
            bytes,
            SimTime::ZERO,
            &Probe::disabled(),
        );
        let secs = out
            .completed_at
            .saturating_since(SimTime::ZERO)
            .as_secs_f64();
        let mbps = bytes as f64 * 8.0 / secs / 1e6;
        assert!(mbps > 120.0, "achieved {mbps} Mbps");
    }

    #[test]
    fn bulk_put_pipelines_rather_than_stop_and_wait() {
        // Pipelined: total time ≈ wire time of the whole payload, not
        // fragments x RTT.
        let mut net = presets::am_atm(2);
        let bytes = 64 * FRAGMENT_BYTES;
        let out = bulk_put(
            &mut net,
            NodeId(0),
            NodeId(1),
            bytes,
            SimTime::ZERO,
            &Probe::disabled(),
        );
        let total = out.completed_at.saturating_since(SimTime::ZERO);
        let single = {
            let mut fresh = presets::am_atm(2);
            let o = fresh.transfer(NodeId(0), NodeId(1), FRAGMENT_BYTES, SimTime::ZERO);
            o.delivered_at.saturating_since(SimTime::ZERO)
        };
        assert!(
            total < single * 64,
            "pipelining must beat stop-and-wait: {total} vs {}",
            single * 64
        );
    }

    #[test]
    fn barrier_completes_in_logarithmic_rounds() {
        let mut net = presets::am_myrinet(64);
        let t64 = barrier(&mut net, 64, SimTime::ZERO).saturating_since(SimTime::ZERO);
        let mut net2 = presets::am_myrinet(64);
        let t8 = barrier(&mut net2, 8, SimTime::ZERO).saturating_since(SimTime::ZERO);
        // 64 nodes need 6 rounds, 8 nodes need 3: about 2x, nowhere near 8x.
        let ratio = t64.as_micros_f64() / t8.as_micros_f64();
        assert!((1.5..=3.5).contains(&ratio), "barrier scaling {ratio}");
    }

    #[test]
    fn trivial_collectives() {
        let mut net = presets::am_atm(4);
        assert_eq!(
            barrier(&mut net, 1, SimTime::from_micros(5)),
            SimTime::from_micros(5)
        );
        assert_eq!(
            broadcast(&mut net, 1, SimTime::from_micros(5)),
            SimTime::from_micros(5)
        );
    }

    #[test]
    fn broadcast_beats_linear_send() {
        // At 100 nodes the tree's log-depth beats even a perfectly
        // pipelined linear send. (At small n with 4-µs AM overhead, linear
        // pipelining is genuinely competitive — which is itself a LogP
        // lesson.)
        let n = 100;
        let mut net = presets::am_atm(n);
        let tree = broadcast(&mut net, n, SimTime::ZERO).saturating_since(SimTime::ZERO);
        // Linear: node 0 sends to each other node back-to-back.
        let mut net2 = presets::am_atm(n);
        let mut t = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        for i in 1..n {
            let out = net2.transfer(NodeId(0), NodeId(i), 16, t);
            t = out.sender_free_at;
            last = last.max(out.delivered_at);
        }
        let linear = last.saturating_since(SimTime::ZERO);
        assert!(
            tree.as_micros_f64() < linear.as_micros_f64() * 0.7,
            "tree {tree} vs linear {linear}"
        );
    }

    #[test]
    fn barrier_on_now_meets_sub_millisecond_scale() {
        // 100 nodes with AM over ATM: a barrier should cost well under a
        // millisecond — the enabling number for gang-scheduled fine-grained
        // parallelism on a NOW.
        let mut net = presets::am_atm(100);
        let t = barrier(&mut net, 100, SimTime::ZERO).saturating_since(SimTime::ZERO);
        assert!(t < SimDuration::from_millis(1), "100-node barrier took {t}");
    }
}
