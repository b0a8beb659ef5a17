//! # now-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate for every simulator in the NOW reproduction.
//! The paper's evidence (network RAM, cooperative caching, mixed
//! parallel/interactive workloads, coscheduling) is trace-driven simulation;
//! this kernel provides the pieces those simulators share:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time as
//!   distinct newtypes, so instants and spans cannot be confused.
//! * [`EventQueue`] — a priority queue of timestamped events with
//!   *deterministic* tie-breaking (FIFO among equal timestamps) and
//!   cancellation, so a simulation with a fixed seed replays identically.
//! * [`Engine`] / [`Component`] — a routed event bus over the queue:
//!   subsystems register as components, exchange typed events with
//!   deterministic delivery order, and charge remote traffic either at
//!   constant cost ([`CostModel::Fixed`]) or against one shared
//!   [`Transport`] fabric ([`CostModel::Fabric`]), so coupled simulations
//!   model cross-subsystem contention.
//! * [`PartitionedEngine`] — parallel execution of one run whose
//!   components form event-closed groups: N partitions, each run to
//!   completion on its own scoped thread with no synchronisation, so the
//!   partitioned run reproduces the serial history exactly.
//! * [`SimRng`] — a seeded random source with the distributions the workload
//!   generators need (uniform, exponential, Zipf, Pareto, normal) implemented
//!   locally so results do not drift with external crate versions.
//! * [`report`] — plain-text table formatting used by the experiment harness
//!   to print paper-style tables and figure series.
//!
//! # Example
//!
//! A tiny simulation: schedule arrivals, process them in order.
//!
//! ```
//! use now_sim::{EventQueue, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Arrive(u32), Depart(u32) }
//!
//! let mut q = EventQueue::new();
//! q.schedule_after(SimDuration::from_micros(10), Ev::Arrive(1));
//! q.schedule_after(SimDuration::from_micros(10), Ev::Arrive(2)); // same time: FIFO
//! q.schedule_after(SimDuration::from_micros(25), Ev::Depart(1));
//!
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(t, SimTime::from_micros(10));
//! assert_eq!(ev, Ev::Arrive(1));
//! assert_eq!(q.pop().unwrap().1, Ev::Arrive(2));
//! assert_eq!(q.pop().unwrap().1, Ev::Depart(1));
//! assert!(q.pop().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod partition;
mod profile;
mod queue;
mod rng;
mod time;

pub mod parallel;
pub mod report;

pub use engine::{
    CausalRecord, CausalSink, Component, ComponentId, CostMode, CostModel, Ctx, Engine, EventCast,
    TransferCost, Transport,
};
pub use partition::PartitionedEngine;
pub use profile::{ComponentProfile, HostProfile};
pub use queue::{EventId, EventQueue};
pub use rng::{SimRng, ZipfSampler};
pub use time::{SimDuration, SimTime};
