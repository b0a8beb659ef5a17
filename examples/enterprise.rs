//! Enterprise scale: a multi-floor building on a two-level switch
//! hierarchy, plus the sensitivity sweeps that show how much headroom the
//! paper's conclusions have.
//!
//! ```sh
//! cargo run --release --example enterprise
//! ```

use now_am::{barrier, broadcast, bulk_put};
use now_models::sensitivity::{
    gator_vs_overhead, netram_breakeven_mbps, netram_speedup_vs_bandwidth, overhead_crossover_us,
};
use now_net::{Fabric, HierarchicalFabric, Network, NicAttachment, NodeId, SoftwareCosts};
use now_probe::Probe;
use now_sim::SimTime;

fn main() {
    // --- a 100-node building: 4 floors x 25 workstations ---
    let mut floor_fabric = HierarchicalFabric::atm_building(4, 25);
    let same_floor = floor_fabric
        .transfer(NodeId(0), NodeId(1), 8_192, SimTime::ZERO)
        .rx_done
        .as_micros_f64();
    let cross_floor = floor_fabric
        .transfer(NodeId(2), NodeId(99), 8_192, SimTime::ZERO)
        .rx_done
        .as_micros_f64();
    println!("== the building as one machine ==");
    println!("8-KB page, same floor:  {same_floor:.0} µs");
    println!("8-KB page, cross floor: {cross_floor:.0} µs  (both beat the 14,800-µs disk)");

    // Collectives across the whole building with Active Messages.
    let mut net = Network::switched(
        now_net::SwitchedFabric::atm_155(100),
        SoftwareCosts::am_hpam(),
        NicAttachment::GraphicsBus,
    );
    let b = barrier(&mut net, 100, SimTime::ZERO).saturating_since(SimTime::ZERO);
    let bc = broadcast(&mut net, 100, SimTime::ZERO).saturating_since(SimTime::ZERO);
    let put = bulk_put(
        &mut net,
        NodeId(0),
        NodeId(99),
        1 << 20,
        SimTime::ZERO,
        &Probe::disabled(),
    );
    println!("100-node barrier:   {b}");
    println!("100-node broadcast: {bc}");
    println!(
        "1-MB bulk put:      {} ({} fragments, wire-rate pipelined)",
        put.completed_at.saturating_since(SimTime::ZERO),
        put.fragments
    );

    // --- sensitivity: how robust is the paper? ---
    println!("\n== sensitivity of the conclusions ==");
    println!("Gator total vs per-message overhead (256-node ATM NOW):");
    for p in gator_vs_overhead(&[1.0, 10.0, 100.0, 1_000.0]) {
        println!("  {:>6.0} µs  ->  {:>7.0} s", p.x, p.y);
    }
    let crossover = overhead_crossover_us(35.0, 1.0, 1_000.0);
    println!("  the NOW matches the C-90 while overhead stays under {crossover:.0} µs");
    println!(
        "network RAM breaks even with the local disk at only {:.1} Mbps;",
        netram_breakeven_mbps()
    );
    let at_atm = netram_speedup_vs_bandwidth(&[155.0])[0].y;
    println!("  at ATM's 155 Mbps the advantage is already {at_atm:.1}x.");
    println!(
        "\nthe conclusions survive big constant errors: the paper's case is\n\
         about orders of magnitude, and the crossovers sit far from the edge."
    );
}
