//! The plumbing every workload runner shares: where a run's components
//! live, and how a [`ScenarioObserver`] is wired into the run.
//!
//! A runner builds its engine, calls [`ScenarioObserver::attach`],
//! registers and seeds its components through [`Host`], lets the
//! returned [`Watch`] add the flight recorder last, and finally calls
//! [`Watch::run`], which runs the engine and collects everything the
//! observer asked for. The same calls work on a serial [`Engine`] and on
//! a [`PartitionedEngine`], so the coupled scenario's single-cell and
//! multi-cell paths build their cells with one function.

use std::sync::Arc;

use now_am::BatchConfig;
use now_probe::causal::critical_path;
use now_probe::recorder::{TimeSeries, WindowedSeries};
use now_probe::Probe;
use now_sim::{
    CausalSink, Component, ComponentId, Engine, EventCast, HostProfile, PartitionedEngine, SimTime,
};

use crate::scenario::{
    gauges_with_batch, RecorderComponent, RecorderEvent, ScenarioObservations, ScenarioObserver,
};

/// Somewhere a run registers and seeds its components: a serial
/// [`Engine`] (whose only partition is 0) or a [`PartitionedEngine`].
pub(crate) trait Host<M> {
    /// Registers `component` homed in `partition`.
    fn add<C: Component<M>>(&mut self, partition: u32, component: C) -> ComponentId;
    /// Seeds an event for `dst` at absolute time `at`.
    fn seed(&mut self, dst: ComponentId, at: SimTime, event: M);
    /// The registered component `id`.
    fn get<C: Component<M>>(&self, id: ComponentId) -> &C;
    /// Records every event's provenance into `sink`, one chain in
    /// `sample_every`.
    fn attach_causal(&mut self, sink: Arc<dyn CausalSink>, sample_every: u64);
    /// Runs to completion, attributing host time per component under
    /// `labels` when given (serial engines only; partitions interleave on
    /// threads, where per-component wall time has no single meaning).
    fn run_profiled(&mut self, labels: Option<&[&str]>) -> Option<HostProfile>;
}

impl<M: 'static> Host<M> for Engine<M> {
    fn add<C: Component<M>>(&mut self, _partition: u32, component: C) -> ComponentId {
        self.register(component)
    }

    fn seed(&mut self, dst: ComponentId, at: SimTime, event: M) {
        self.schedule_at(dst, at, event);
    }

    fn get<C: Component<M>>(&self, id: ComponentId) -> &C {
        self.component(id)
    }

    fn attach_causal(&mut self, sink: Arc<dyn CausalSink>, sample_every: u64) {
        self.set_causal_sink_sampled(sink, sample_every);
    }

    fn run_profiled(&mut self, labels: Option<&[&str]>) -> Option<HostProfile> {
        if let Some(labels) = labels {
            self.enable_profiler(labels);
        }
        self.run();
        self.take_profile()
    }
}

impl<M: Send + 'static> Host<M> for PartitionedEngine<M> {
    fn add<C: Component<M>>(&mut self, partition: u32, component: C) -> ComponentId {
        self.register(partition, component)
    }

    fn seed(&mut self, dst: ComponentId, at: SimTime, event: M) {
        self.schedule_at(dst, at, event);
    }

    fn get<C: Component<M>>(&self, id: ComponentId) -> &C {
        self.component(id)
    }

    fn attach_causal(&mut self, sink: Arc<dyn CausalSink>, sample_every: u64) {
        self.set_causal_sink_sampled(sink, sample_every);
    }

    fn run_profiled(&mut self, _labels: Option<&[&str]>) -> Option<HostProfile> {
        self.run();
        None
    }
}

/// What observing a run cost in memory, for the serving and distribution
/// outcomes' self-accounting.
pub(crate) struct Footprint {
    /// Causal records retained (0 without a causal log).
    pub(crate) causal_records: usize,
    /// Causal records dropped at the log's capacity bound.
    pub(crate) causal_dropped: u64,
    /// Approximate bytes held by the causal log and the recorded series.
    pub(crate) bytes: usize,
}

impl ScenarioObserver {
    /// Starts watching a run on `host`: opens a new utilization epoch
    /// (resource ledgers shared across a sweep close the previous run's
    /// wall and start idle) and attaches the causal log, if any.
    pub(crate) fn attach<M, H: Host<M>>(&self, host: &mut H) -> Watch<'_> {
        self.probe.util_epoch();
        if let Some(log) = &self.causal {
            host.attach_causal(
                Arc::clone(log) as Arc<dyn CausalSink>,
                self.trace_sample_every.max(1),
            );
        }
        Watch {
            observer: self,
            recorder: None,
        }
    }
}

/// One run's observer wiring, from [`ScenarioObserver::attach`] to
/// [`Watch::run`].
pub(crate) struct Watch<'a> {
    observer: &'a ScenarioObserver,
    recorder: Option<ComponentId>,
}

impl Watch<'_> {
    /// Registers the flight recorder in partition 0 and seeds its first
    /// sample at time zero, when the observer asked for one. Call it after
    /// every other component is registered and seeded: the recorder's id
    /// and events then come last, so its presence never renumbers the
    /// run's components or reorders their events. `gauges` gains
    /// `net.batch_occupancy` when `batch` is on.
    pub(crate) fn record<M, H>(
        &mut self,
        host: &mut H,
        probe: &Probe,
        gauges: &'static [&'static str],
        batch: BatchConfig,
        horizon: SimTime,
    ) where
        M: EventCast<RecorderEvent> + 'static,
        H: Host<M>,
    {
        let Some(every) = self.observer.sample_every else {
            return;
        };
        let id = host.add(
            0,
            RecorderComponent::with_gauges(
                probe,
                &gauges_with_batch(gauges, batch),
                every,
                horizon,
                self.observer.window_budget,
            ),
        );
        host.seed(id, SimTime::ZERO, M::upcast(RecorderEvent::Sample));
        self.recorder = Some(id);
    }

    /// Runs `host` to completion and collects what the observer saw: the
    /// host-time profile (labelled by `names`, the component names in
    /// registration order), the recorder's series, one blame table per
    /// `(tag, completion mark)` in `marks` whose chain completed, and the
    /// observation footprint.
    pub(crate) fn run<M, H: Host<M>>(
        self,
        host: &mut H,
        names: &[&str],
        marks: &[(&'static str, &str)],
    ) -> (ScenarioObservations, Footprint)
    where
        M: EventCast<RecorderEvent> + 'static,
    {
        let profile = host.run_profiled(self.observer.profile.then_some(names));
        let (timeseries, windowed, recorder_bytes) = match self.recorder {
            Some(id) => {
                let recorder = host.get::<RecorderComponent>(id);
                (
                    recorder.timeseries(),
                    recorder.windowed(),
                    recorder.approx_bytes(),
                )
            }
            None => (TimeSeries::new(Vec::new()), WindowedSeries::default(), 0),
        };
        let (blame, footprint) = match &self.observer.causal {
            Some(log) => (
                marks
                    .iter()
                    .filter_map(|&(tag, label)| {
                        critical_path(log, label, names).map(|table| (tag, table))
                    })
                    .collect(),
                Footprint {
                    causal_records: log.len(),
                    causal_dropped: log.dropped(),
                    bytes: log.approx_bytes() + recorder_bytes,
                },
            ),
            None => (
                Vec::new(),
                Footprint {
                    causal_records: 0,
                    causal_dropped: 0,
                    bytes: recorder_bytes,
                },
            ),
        };
        (
            ScenarioObservations {
                blame,
                timeseries,
                windowed,
                profile,
            },
            footprint,
        )
    }
}
