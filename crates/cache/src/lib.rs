//! # now-cache — cooperative file caching (Table 3)
//!
//! In a building-wide NOW the aggregate DRAM of the clients dwarfs anything
//! a file server can hold. Cooperative caching manages the client caches as
//! one: a miss in your own 16 MB can be served from another client's memory
//! in ~1 ms instead of from the server's disk in ~16 ms. The paper reports
//! (from a two-day, 42-workstation Berkeley trace) that a practical
//! implementation halves the disk-read rate — 16 percent to 8 percent — and
//! improves read response time by 80 percent (2.8 ms to 1.6 ms).
//!
//! This crate implements three policies from the underlying study (Dahlin
//! et al., OSDI 1994) and drives them with the synthetic trace from
//! [`now_trace::fs`]:
//!
//! * [`Policy::ClientServer`] — the baseline: private client LRU caches in
//!   front of a server LRU cache in front of the server disk.
//! * [`Policy::GreedyForwarding`] — the server remembers which clients hold
//!   which blocks and forwards misses to a caching client before going to
//!   disk; clients still manage their caches selfishly.
//! * [`Policy::NChance`] — additionally, a client evicting the *last*
//!   cached copy of a block (a "singlet") forwards it to a random peer
//!   instead of dropping it, up to `n` recirculations: idle clients end up
//!   holding the overflow of active ones.
//!
//! # Example
//!
//! ```
//! use now_cache::{simulate, CacheConfig, Policy};
//! use now_probe::Probe;
//! use now_trace::fs::{FsTrace, FsTraceConfig};
//!
//! let trace = FsTrace::generate(&FsTraceConfig::small(), 1);
//! let off = Probe::disabled();
//! let base = simulate(&trace, &CacheConfig::table3(Policy::ClientServer), &off);
//! let coop = simulate(&trace, &CacheConfig::table3(Policy::NChance { n: 2 }), &off);
//! assert!(coop.disk_read_rate() <= base.disk_read_rate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod serve;
mod sim;

pub use serve::{ServeComponent, ServeConfig, ServeEvent, ThinkTime};
pub use sim::{
    simulate, sweep_client_cache, sweep_nchance, AccessCosts, CacheComponent, CacheConfig,
    CacheEvent, Policy, SimResult,
};
