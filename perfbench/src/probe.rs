//! Decorators that observe a layer through the interfaces the engine
//! already accepts, without perturbing the simulation.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use dfs::mapreduce::sched::{Heartbeat, MapScheduler};
use dfs::obs::event::SimEvent;
use dfs::obs::sink::EventSink;
use dfs::simkit::time::SimTime;

/// What the scheduler decorator saw.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SchedStats {
    /// `assign_maps` calls.
    pub calls: u64,
    /// Calls that claimed at least one task.
    pub useful_calls: u64,
    /// Map tasks claimed (map slots consumed) across all calls.
    pub tasks_assigned: u64,
    /// Time spent inside the wrapped policy.
    pub self_time: Duration,
}

/// A [`MapScheduler`] decorator timing and counting every decision of
/// the wrapped policy. The engine consumes the boxed scheduler, so the
/// statistics live behind a shared handle.
pub struct SchedProbe {
    inner: Box<dyn MapScheduler>,
    stats: Rc<RefCell<SchedStats>>,
}

impl SchedProbe {
    /// Wraps `inner`; read the statistics through the returned handle
    /// after the run.
    pub fn wrap(inner: Box<dyn MapScheduler>) -> (Box<dyn MapScheduler>, Rc<RefCell<SchedStats>>) {
        let stats = Rc::new(RefCell::new(SchedStats::default()));
        let probe = SchedProbe {
            inner,
            stats: Rc::clone(&stats),
        };
        (Box::new(probe), stats)
    }
}

impl MapScheduler for SchedProbe {
    fn assign_maps(&mut self, hb: &mut Heartbeat<'_>) {
        let before = hb.free_map_slots();
        let start = Instant::now();
        self.inner.assign_maps(hb);
        let elapsed = start.elapsed();
        let claimed = u64::from(before.saturating_sub(hb.free_map_slots()));
        let mut stats = self.stats.borrow_mut();
        stats.calls += 1;
        stats.self_time += elapsed;
        stats.tasks_assigned += claimed;
        if claimed > 0 {
            stats.useful_calls += 1;
        }
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// An [`EventSink`] decorator counting the events it forwards and
/// timing the wrapped sink (including everything the wrapped sink
/// forwards to in turn).
pub struct SinkProbe<'a> {
    inner: &'a mut dyn EventSink,
    /// Events forwarded.
    pub events: u64,
    /// Time spent inside the wrapped sink.
    pub self_time: Duration,
}

impl<'a> SinkProbe<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut dyn EventSink) -> SinkProbe<'a> {
        SinkProbe {
            inner,
            events: 0,
            self_time: Duration::ZERO,
        }
    }
}

impl EventSink for SinkProbe<'_> {
    fn record(&mut self, at: SimTime, event: &SimEvent) {
        self.events += 1;
        let start = Instant::now();
        self.inner.record(at, event);
        self.self_time += start.elapsed();
    }
}

/// One entry of the captured flow lifecycle stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FlowRecord {
    /// `flow_started`.
    Start {
        /// When.
        at: SimTime,
        /// Engine flow id.
        flow: u64,
        /// Source node.
        src: usize,
        /// Destination node.
        dst: usize,
        /// Payload bytes.
        bytes: u64,
    },
    /// `flow_finished`.
    Finish {
        /// When.
        at: SimTime,
        /// Engine flow id.
        flow: u64,
        /// Torn down before delivering every byte.
        cancelled: bool,
    },
}

/// Counters derived from the event stream of one traced run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StreamCounts {
    /// Every event.
    pub events: u64,
    /// `flow_rate` events (fair-share rate changes).
    pub flow_rate: u64,
    /// `degraded_plan` events (degraded reads planned).
    pub degraded_plans: u64,
    /// Degraded-read source fetches that crossed the network.
    pub fetches_issued: u64,
    /// Of those, fetches issued beyond the decode quorum.
    pub redundant_fetches: u64,
    /// `fetch_cancelled` events (stragglers torn down at quorum).
    pub fetch_cancelled: u64,
}

/// An [`EventSink`] keeping the flow lifecycle (starts and finishes,
/// not rates) for [`crate::replay`] and counting the rest.
#[derive(Default)]
pub struct FlowCapture {
    /// Flow starts and finishes in stream order.
    pub flows: Vec<FlowRecord>,
    /// Stream counters.
    pub counts: StreamCounts,
}

impl EventSink for FlowCapture {
    fn record(&mut self, at: SimTime, event: &SimEvent) {
        self.counts.events += 1;
        match *event {
            SimEvent::FlowRate { .. } => self.counts.flow_rate += 1,
            SimEvent::FlowStarted {
                flow,
                src,
                dst,
                bytes,
                ..
            } => self.flows.push(FlowRecord::Start {
                at,
                flow,
                src: src as usize,
                dst: dst as usize,
                bytes,
            }),
            SimEvent::FlowFinished { flow, cancelled } => self.flows.push(FlowRecord::Finish {
                at,
                flow,
                cancelled,
            }),
            SimEvent::DegradedPlan {
                same_rack,
                cross_rack,
                ..
            } => {
                self.counts.degraded_plans += 1;
                self.counts.fetches_issued += u64::from(same_rack + cross_rack);
            }
            SimEvent::RedundantFetchIssued { extra, .. } => {
                self.counts.redundant_fetches += u64::from(extra);
            }
            SimEvent::FetchCancelled { .. } => self.counts.fetch_cancelled += 1,
            _ => {}
        }
    }
}
