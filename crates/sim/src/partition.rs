//! Partitioned execution: one run of event-closed cells sharded across
//! cores.
//!
//! A [`PartitionedEngine`] runs N [`Engine`]s — one per partition, each
//! owning a disjoint set of component ids with its own event queue and
//! cost model. The partition map must be *event-closed*: no component
//! ever sends an event to a component homed in another partition (the
//! scenario layer's replicated cells, which share nothing but the causal
//! log). The partitions therefore never synchronise: [`PartitionedEngine::run`]
//! runs each partition's [`Engine::run`] to completion on its own scoped
//! thread and joins them.
//!
//! Determinism: a component's history depends only on the events
//! addressed to it, and under a closed map all of those are scheduled
//! by components of its own partition. Within one queue, events fire in
//! `(time, seq)` order and seqs follow scheduling order, so each
//! partition replays exactly the sub-history a serial engine holding
//! every component would deliver to those components — whatever the
//! partition count or thread timing.
//!
//! A send across the map is a partitioning bug. It lands in the
//! sender's own queue, addressed to an id that is a gap there, and
//! dispatch panics on it. An event cancelled before it fires never
//! touches history, so catching the send at dispatch loses no safety.

use std::sync::Arc;

use crate::engine::{Component, CostModel};
use crate::{CausalSink, ComponentId, Engine, EventId, SimTime};

/// N partition engines over an event-closed component map (see the
/// module docs for the contract and its determinism argument).
///
/// Component ids are global: every partition's engine shares one id
/// space, with gaps where a component is homed elsewhere, so components
/// address each other exactly as they would on a serial [`Engine`] and
/// need no logic changes. With one partition the run is the serial
/// engine's — no threads are spawned — which is the baseline the
/// speedup harness times against.
pub struct PartitionedEngine<M> {
    parts: Vec<Engine<M>>,
    /// `home[c]` = partition owning component `c`.
    home: Vec<u32>,
}

impl<M: Send + 'static> PartitionedEngine<M> {
    /// One engine per cost model. Each partition prices its own traffic
    /// on its own cost model; a fabric shared *across* partitions cannot
    /// be priced deterministically in parallel, so partition maps must
    /// cut along cost-model seams.
    ///
    /// # Panics
    ///
    /// Panics on an empty cost-model list.
    pub fn new(cost_models: Vec<CostModel>) -> Self {
        assert!(!cost_models.is_empty(), "need at least one partition");
        PartitionedEngine {
            parts: cost_models
                .into_iter()
                .map(Engine::with_cost_model)
                .collect(),
            home: Vec::new(),
        }
    }

    /// `partitions` engines in [`CostModel::Fixed`] mode — the shape unit
    /// and property tests use.
    pub fn with_fixed(partitions: usize) -> Self {
        PartitionedEngine::new((0..partitions).map(|_| CostModel::Fixed).collect())
    }

    /// Registers `component` homed in `partition` and returns its global
    /// routing id. Every other partition records a gap so the id spaces
    /// stay congruent.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is out of range.
    pub fn register<C: Component<M>>(&mut self, partition: u32, component: C) -> ComponentId {
        assert!(
            (partition as usize) < self.parts.len(),
            "partition {partition} out of range ({} partitions)",
            self.parts.len()
        );
        let id = self.parts[partition as usize].register(component);
        for (p, engine) in self.parts.iter_mut().enumerate() {
            if p != partition as usize {
                let gap = engine.register_gap();
                debug_assert_eq!(gap, id, "partition id spaces diverged");
            }
        }
        self.home.push(partition);
        debug_assert_eq!(self.home.len() - 1, id.0);
        id
    }

    /// Seeds an event for `dst` at absolute time `time` into `dst`'s home
    /// partition, rooting a fresh trace exactly like
    /// [`Engine::schedule_at`].
    pub fn schedule_at(&mut self, dst: ComponentId, time: SimTime, event: M) -> EventId {
        self.parts[self.home[dst.0] as usize].schedule_at(dst, time, event)
    }

    /// Enables causal tracing on every partition, sharing one sink, with
    /// 1-in-N trace sampling (see [`Engine::set_causal_sink_sampled`]).
    /// Each partition writes seqs and trace ids offset by `p << 44` so the
    /// shared log never collides. Sampling applies to the per-partition
    /// offset trace ids, so rates other than 1 sample *different* chains
    /// than a serial run would — the byte-diffed scenario paths use 1.
    pub fn set_causal_sink_sampled(&mut self, sink: Arc<dyn CausalSink>, sample_every: u64) {
        for (p, engine) in self.parts.iter_mut().enumerate() {
            engine.set_causal_sink_sampled(sink.clone(), sample_every);
            engine.set_causal_seq_offset((p as u64) << 44);
        }
    }

    /// Runs every partition to completion, each on its own scoped thread
    /// (inline, with no thread, when there is only one).
    ///
    /// # Panics
    ///
    /// Panics if an event crosses the partition map (the map was not
    /// event-closed), if an event addresses an unregistered component, or
    /// if a worker thread panics otherwise (the panic is propagated).
    pub fn run(&mut self) {
        if let [engine] = self.parts.as_mut_slice() {
            engine.run();
            return;
        }
        std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .parts
                .iter_mut()
                .map(|engine| scope.spawn(move || engine.run()))
                .collect();
            for worker in workers {
                if let Err(payload) = worker.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }

    /// Borrows a component as its concrete type from its home partition
    /// (see [`Engine::component`]).
    pub fn component<C: Component<M>>(&self, id: ComponentId) -> &C {
        self.parts[self.home[id.0] as usize].component(id)
    }

    /// Pending events across all partitions.
    pub fn pending(&self) -> usize {
        self.parts.iter().map(Engine::pending).sum()
    }
}

impl<M> std::fmt::Debug for PartitionedEngine<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedEngine")
            .field("partitions", &self.parts.len())
            .field("components", &self.home.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ctx, SimDuration};

    /// Forwards each received value around a ring with a fixed delay,
    /// recording (time, value).
    struct RingHop {
        next: ComponentId,
        delay: SimDuration,
        hops_left: u32,
        seen: Vec<(u64, u64)>,
    }

    impl Component<u64> for RingHop {
        fn on_event(&mut self, ctx: &mut Ctx<'_, u64>, v: u64) {
            self.seen.push((ctx.now().as_nanos(), v));
            if self.hops_left > 0 {
                self.hops_left -= 1;
                ctx.send_to_at(self.next, ctx.now() + self.delay, v + 1);
            }
        }
    }

    #[test]
    fn closed_partitions_drain_in_one_window() {
        // Two disjoint rings, one per partition: a closed map.
        let delay = SimDuration::from_micros(10);
        let mut engine = PartitionedEngine::with_fixed(2);
        let mut ids = Vec::new();
        for p in 0..2u32 {
            let base = ids.len();
            for i in 0..3usize {
                ids.push(engine.register(
                    p,
                    RingHop {
                        next: ComponentId(base + (i + 1) % 3),
                        delay,
                        hops_left: 9,
                        seen: Vec::new(),
                    },
                ));
            }
        }
        engine.schedule_at(ids[0], SimTime::ZERO, 0);
        engine.schedule_at(ids[3], SimTime::ZERO, 100);
        engine.run();
        // Each of the 3 ring members forwards 9 times, so the chain makes
        // 27 hops after the seed; member 2 is visited on every third hop.
        assert_eq!(engine.component::<RingHop>(ids[2]).seen.len(), 9);
        assert_eq!(engine.component::<RingHop>(ids[5]).seen.len(), 9);
        assert_eq!(engine.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "closed partitioning")]
    fn remote_send_under_closed_map_panics() {
        let mut engine = PartitionedEngine::with_fixed(2);
        let b = ComponentId(1);
        let a = engine.register(
            0,
            RingHop {
                next: b,
                delay: SimDuration::from_micros(1),
                hops_left: 1,
                seen: Vec::new(),
            },
        );
        engine.register(
            1,
            RingHop {
                next: a,
                delay: SimDuration::from_micros(1),
                hops_left: 1,
                seen: Vec::new(),
            },
        );
        engine.schedule_at(a, SimTime::ZERO, 0);
        engine.run();
    }

    #[test]
    fn single_partition_matches_the_serial_engine() {
        let delay = SimDuration::from_micros(5);
        let run_serial = || {
            let mut engine = Engine::new();
            let b = ComponentId(1);
            let a = engine.register(RingHop {
                next: b,
                delay,
                hops_left: 20,
                seen: Vec::new(),
            });
            engine.register(RingHop {
                next: a,
                delay,
                hops_left: 20,
                seen: Vec::new(),
            });
            engine.schedule_at(a, SimTime::ZERO, 0);
            engine.run();
            (
                engine.component::<RingHop>(a).seen.clone(),
                engine.component::<RingHop>(b).seen.clone(),
            )
        };
        let mut engine = PartitionedEngine::with_fixed(1);
        let b = ComponentId(1);
        let a = engine.register(
            0,
            RingHop {
                next: b,
                delay,
                hops_left: 20,
                seen: Vec::new(),
            },
        );
        engine.register(
            0,
            RingHop {
                next: a,
                delay,
                hops_left: 20,
                seen: Vec::new(),
            },
        );
        engine.schedule_at(a, SimTime::ZERO, 0);
        engine.run();
        assert_eq!(
            run_serial(),
            (
                engine.component::<RingHop>(a).seen.clone(),
                engine.component::<RingHop>(b).seen.clone(),
            )
        );
    }
}
