//! The [`EventSink`] trait and the zero-cost [`Recorder`] handle that
//! instrumented code threads through its hot paths.

use std::collections::BTreeMap;

use simkit::time::{SimDuration, SimTime};

use crate::event::SimEvent;

/// A consumer of timestamped simulation events.
///
/// Sinks receive events in global timestamp order (ties broken by
/// emission order). Implementations must not reorder them.
pub trait EventSink {
    /// Consumes one event occurring at `at`.
    fn record(&mut self, at: SimTime, event: &SimEvent);

    /// The `flow_rate` thinning this sink applies, if any. A producer of
    /// rate changes may apply the same [`FlowRateFilterConfig::keeps`]
    /// rule at the source, so the events the sink would drop are never
    /// built. Wrappers that do not forward this (the default) simply
    /// receive every event.
    fn flow_rate_thinning(&self) -> Option<FlowRateFilterConfig> {
        None
    }

    /// Reports `count` `flow_rate` events the producer dropped at the
    /// source under [`EventSink::flow_rate_thinning`]. A no-op unless
    /// the sink counts what it suppresses.
    fn flow_rates_thinned(&mut self, count: u64) {
        let _ = count;
    }
}

/// A maybe-disabled handle to an [`EventSink`].
///
/// Instrumented code calls [`Recorder::emit`] with a closure that builds
/// the event; when the recorder is off the closure is never run, so the
/// disabled path performs one branch and zero allocations, keeping
/// untraced runs bit-identical to uninstrumented ones.
pub struct Recorder<'a> {
    sink: Option<&'a mut dyn EventSink>,
}

impl<'a> Recorder<'a> {
    /// A disabled recorder: every `emit` is a no-op.
    pub fn off() -> Recorder<'static> {
        Recorder { sink: None }
    }

    /// A recorder forwarding to `sink`.
    pub fn on(sink: &'a mut dyn EventSink) -> Recorder<'a> {
        Recorder { sink: Some(sink) }
    }

    /// True if events are being consumed. Use to skip expensive
    /// preparatory work (the `emit` closure itself is already lazy).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records the event produced by `make` at time `at`, if enabled.
    #[inline]
    pub fn emit(&mut self, at: SimTime, make: impl FnOnce() -> SimEvent) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record(at, &make());
        }
    }

    /// The attached sink's [`EventSink::flow_rate_thinning`]; `None`
    /// when disabled.
    pub fn flow_rate_thinning(&self) -> Option<FlowRateFilterConfig> {
        self.sink
            .as_deref()
            .and_then(|sink| sink.flow_rate_thinning())
    }

    /// Hands an at-source drop count to the attached sink's
    /// [`EventSink::flow_rates_thinned`].
    pub fn flow_rates_thinned(&mut self, count: u64) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.flow_rates_thinned(count);
        }
    }
}

/// A sink that buffers every event in memory; the workhorse of tests.
#[derive(Default)]
pub struct VecSink {
    /// The recorded `(time, event)` pairs, in arrival order.
    pub events: Vec<(SimTime, SimEvent)>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }
}

impl EventSink for VecSink {
    fn record(&mut self, at: SimTime, event: &SimEvent) {
        self.events.push((at, event.clone()));
    }
}

/// Fans one event stream out to two sinks, e.g. a JSONL file plus the
/// in-memory aggregator in a single traced run.
pub struct Tee<'a> {
    first: &'a mut dyn EventSink,
    second: &'a mut dyn EventSink,
}

impl<'a> Tee<'a> {
    /// A sink forwarding every event to `first` then `second`.
    pub fn new(first: &'a mut dyn EventSink, second: &'a mut dyn EventSink) -> Tee<'a> {
        Tee { first, second }
    }
}

impl EventSink for Tee<'_> {
    fn record(&mut self, at: SimTime, event: &SimEvent) {
        self.first.record(at, event);
        self.second.record(at, event);
    }
}

/// Opt-in downsampling of `flow_rate` events.
///
/// Max-min fair-share reallocation re-rates every flow sharing a link on
/// each arrival or departure, so `flow_rate` dominates long traces by an
/// order of magnitude. Thinning keeps every non-`flow_rate` event and
/// thins the rest: a flow's first rate always passes, and a subsequent
/// one passes only when at least [`min_interval`] has elapsed since the
/// last *emitted* rate for that flow **and** the rate moved by at least
/// [`min_delta_bps`] — the one rule is [`FlowRateFilterConfig::keeps`].
/// The final rate before `flow_finished` may therefore be suppressed —
/// consumers needing exact byte accounting should trace unfiltered.
///
/// With both thresholds zero every event passes, byte-identically.
///
/// [`min_interval`]: FlowRateFilterConfig::min_interval
/// [`min_delta_bps`]: FlowRateFilterConfig::min_delta_bps
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowRateFilterConfig {
    /// Minimum absolute rate change (bits/sec) worth re-emitting.
    pub min_delta_bps: f64,
    /// Minimum gap between emitted rates of one flow.
    pub min_interval: SimDuration,
}

impl FlowRateFilterConfig {
    /// The keep/drop rule for one rate of a flow, shared by
    /// [`FlowRateFilter`] and by producers thinning at the source.
    /// `last` is the flow's last *kept* `(rate_bps, at)`, `None` before
    /// its first.
    #[inline]
    pub fn keeps(&self, last: Option<(f64, SimTime)>, rate_bps: f64, at: SimTime) -> bool {
        match last {
            None => true,
            Some((last_rate, last_at)) => {
                (rate_bps - last_rate).abs() >= self.min_delta_bps
                    && at.duration_since(last_at) >= self.min_interval
            }
        }
    }
}

/// An [`EventSink`] adapter applying [`FlowRateFilterConfig`]; see there.
///
/// The filter advertises its thresholds through
/// [`EventSink::flow_rate_thinning`]. A producer handed the filter
/// directly (the MapReduce engine and `repair`, through
/// `netsim::Network::enable_flow_log`) then drops rate changes before
/// building them and reports how many through
/// [`EventSink::flow_rates_thinned`], which [`FlowRateFilter::suppressed`]
/// includes. The filter still checks every event it receives, but since
/// it updates its per-flow state only on kept events, the events thinned
/// at the source are exactly the ones it would have dropped: the output
/// is byte-identical either way. Behind a wrapper that hides the hook
/// (a [`Tee`], a probe), or on a stream replayed from a file, the filter
/// does all the thinning itself.
pub struct FlowRateFilter<'a> {
    inner: &'a mut dyn EventSink,
    cfg: FlowRateFilterConfig,
    /// Last emitted `(rate_bps, at)` per live flow.
    last: BTreeMap<u64, (f64, SimTime)>,
    suppressed: u64,
}

impl<'a> FlowRateFilter<'a> {
    /// A filter forwarding the thinned stream to `inner`.
    pub fn new(inner: &'a mut dyn EventSink, cfg: FlowRateFilterConfig) -> FlowRateFilter<'a> {
        FlowRateFilter {
            inner,
            cfg,
            last: BTreeMap::new(),
            suppressed: 0,
        }
    }

    /// How many `flow_rate` events were dropped so far, here or at the
    /// source.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }
}

impl EventSink for FlowRateFilter<'_> {
    fn record(&mut self, at: SimTime, event: &SimEvent) {
        match event {
            SimEvent::FlowRate { flow, rate_bps } => {
                if !self.cfg.keeps(self.last.get(flow).copied(), *rate_bps, at) {
                    self.suppressed += 1;
                    return;
                }
                self.last.insert(*flow, (*rate_bps, at));
            }
            SimEvent::FlowFinished { flow, .. } => {
                self.last.remove(flow);
            }
            // Every other kind passes through untouched. The arm is
            // spelled out (M1): a new event kind must decide here
            // whether it carries per-flow state to thin or reset.
            SimEvent::JobSubmitted { .. }
            | SimEvent::JobStarted { .. }
            | SimEvent::JobFinished { .. }
            | SimEvent::TaskQueued { .. }
            | SimEvent::MapLaunched { .. }
            | SimEvent::MapDone { .. }
            | SimEvent::MapCancelled { .. }
            | SimEvent::DegradedPlan { .. }
            | SimEvent::RedundantFetchIssued { .. }
            | SimEvent::FetchCancelled { .. }
            | SimEvent::PhaseBegin { .. }
            | SimEvent::PhaseEnd { .. }
            | SimEvent::ReduceLaunched { .. }
            | SimEvent::ReduceShuffled { .. }
            | SimEvent::ReduceDone { .. }
            | SimEvent::FlowStarted { .. }
            | SimEvent::NodeFailed { .. }
            | SimEvent::NodeRecovered { .. }
            | SimEvent::RepairStarted { .. }
            | SimEvent::RepairFinished { .. } => {}
        }
        self.inner.record(at, event);
    }

    fn flow_rate_thinning(&self) -> Option<FlowRateFilterConfig> {
        Some(self.cfg)
    }

    fn flow_rates_thinned(&mut self, count: u64) {
        self.suppressed += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_never_builds_events() {
        let mut rec = Recorder::off();
        assert!(!rec.is_enabled());
        rec.emit(SimTime::ZERO, || panic!("built an event while disabled"));
    }

    #[test]
    fn enabled_recorder_forwards() {
        let mut sink = VecSink::new();
        {
            let mut rec = Recorder::on(&mut sink);
            assert!(rec.is_enabled());
            rec.emit(SimTime::from_secs(1), || SimEvent::NodeFailed { node: 3 });
        }
        assert_eq!(
            sink.events,
            vec![(SimTime::from_secs(1), SimEvent::NodeFailed { node: 3 })]
        );
    }

    fn rate(flow: u64, rate_bps: f64) -> SimEvent {
        SimEvent::FlowRate { flow, rate_bps }
    }

    fn rates_of(sink: &VecSink) -> Vec<(u64, u64, f64)> {
        sink.events
            .iter()
            .filter_map(|(at, ev)| match ev {
                SimEvent::FlowRate { flow, rate_bps } => Some((at.as_micros(), *flow, *rate_bps)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn flow_rate_filter_applies_both_thresholds() {
        let mut inner = VecSink::new();
        let cfg = FlowRateFilterConfig {
            min_delta_bps: 100.0,
            min_interval: SimDuration::from_secs(10),
        };
        let mut filter = FlowRateFilter::new(&mut inner, cfg);
        let t = SimTime::from_secs;
        // First rate for a flow always passes.
        filter.record(t(0), &rate(7, 1000.0));
        // Big delta but only 5s elapsed: suppressed.
        filter.record(t(5), &rate(7, 2000.0));
        // 10s elapsed but delta 50 < 100: suppressed.
        filter.record(t(10), &rate(7, 1050.0));
        // Both thresholds met (vs the last *emitted* rate, not the last seen).
        filter.record(t(12), &rate(7, 2000.0));
        // A different flow keeps independent state.
        filter.record(t(12), &rate(8, 500.0));
        // Non-rate events always pass.
        filter.record(t(13), &SimEvent::JobStarted { job: 1 });
        assert_eq!(filter.suppressed(), 2);
        assert_eq!(
            rates_of(&inner),
            vec![
                (0, 7, 1000.0),
                (12_000_000, 7, 2000.0),
                (12_000_000, 8, 500.0)
            ]
        );
        assert_eq!(inner.events.len(), 4);
    }

    #[test]
    fn flow_rate_filter_resets_on_flow_finished() {
        let mut inner = VecSink::new();
        let cfg = FlowRateFilterConfig {
            min_delta_bps: 1e9,
            min_interval: SimDuration::from_secs(1000),
        };
        let mut filter = FlowRateFilter::new(&mut inner, cfg);
        let t = SimTime::from_secs;
        filter.record(t(0), &rate(3, 100.0));
        filter.record(t(1), &rate(3, 100.5)); // suppressed
        filter.record(
            t(2),
            &SimEvent::FlowFinished {
                flow: 3,
                cancelled: false,
            },
        );
        // Reused id after finish counts as a fresh flow: first rate passes.
        filter.record(t(3), &rate(3, 100.5));
        assert_eq!(filter.suppressed(), 1);
        assert_eq!(rates_of(&inner), vec![(0, 3, 100.0), (3_000_000, 3, 100.5)]);
    }

    #[test]
    fn flow_rate_filter_with_zero_thresholds_passes_everything() {
        let mut plain = VecSink::new();
        let mut filtered_inner = VecSink::new();
        let cfg = FlowRateFilterConfig {
            min_delta_bps: 0.0,
            min_interval: SimDuration::ZERO,
        };
        let mut filter = FlowRateFilter::new(&mut filtered_inner, cfg);
        let t = SimTime::from_secs;
        let script = [
            (t(0), rate(1, 10.0)),
            (t(0), rate(1, 10.0)), // same instant, same value: still passes
            (t(1), rate(2, 20.0)),
            (
                t(1),
                SimEvent::FlowFinished {
                    flow: 1,
                    cancelled: true,
                },
            ),
            (t(2), rate(2, 30.0)),
        ];
        for (at, ev) in &script {
            plain.record(*at, ev);
            filter.record(*at, ev);
        }
        assert_eq!(filter.suppressed(), 0);
        assert_eq!(plain.events, filtered_inner.events);
    }

    #[test]
    fn only_the_filter_requests_thinning_and_counts_upstream_drops() {
        let cfg = FlowRateFilterConfig {
            min_delta_bps: 1e6,
            min_interval: SimDuration::from_secs(5),
        };
        let mut inner = VecSink::new();
        assert_eq!(inner.flow_rate_thinning(), None);
        let mut filter = FlowRateFilter::new(&mut inner, cfg);
        let mut rec = Recorder::on(&mut filter);
        assert_eq!(rec.flow_rate_thinning(), Some(cfg));
        rec.flow_rates_thinned(5);
        rec.emit(SimTime::ZERO, || rate(1, 10.0));
        rec.emit(SimTime::from_secs(1), || rate(1, 20.0)); // dropped here
        assert_eq!(filter.suppressed(), 6);
        assert_eq!(Recorder::off().flow_rate_thinning(), None);
        // A tee hides the hook: both branches see every event.
        let (mut a, mut b) = (VecSink::new(), VecSink::new());
        let mut filter = FlowRateFilter::new(&mut b, cfg);
        assert_eq!(Tee::new(&mut a, &mut filter).flow_rate_thinning(), None);
    }

    #[test]
    fn tee_duplicates() {
        let mut a = VecSink::new();
        let mut b = VecSink::new();
        {
            let mut tee = Tee::new(&mut a, &mut b);
            tee.record(SimTime::ZERO, &SimEvent::JobStarted { job: 1 });
        }
        assert_eq!(a.events, b.events);
        assert_eq!(a.events.len(), 1);
    }
}
