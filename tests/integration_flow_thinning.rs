//! At-source `flow_rate` thinning end to end. A `FlowRateFilter` handed
//! straight to a traced run advertises its thresholds, so `netsim` drops
//! rate changes before they are built. The oracle is the same filter
//! behind a wrapper that hides the hook, which sees and thins the full
//! stream itself. The two must write the same JSONL bytes and report
//! the same suppressed count; a sink that asks for no thinning must get
//! today's stream.

use dfs::ecstore::FetchPolicy;
use dfs::experiment::{Experiment, Policy};
use dfs::obs::aggregate::Aggregator;
use dfs::obs::event::SimEvent;
use dfs::obs::jsonl::JsonlSink;
use dfs::obs::sink::{EventSink, FlowRateFilter, FlowRateFilterConfig, Recorder, Tee};
use dfs::presets;
use dfs::simkit::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// Forwards events but hides [`EventSink::flow_rate_thinning`].
struct HideHook<'a>(&'a mut dyn EventSink);

impl EventSink for HideHook<'_> {
    fn record(&mut self, at: SimTime, event: &SimEvent) {
        self.0.record(at, event);
    }
}

/// The CLI's documented thresholds.
fn cli_filter() -> FlowRateFilterConfig {
    FlowRateFilterConfig {
        min_delta_bps: 1e6,
        min_interval: SimDuration::from_secs(5),
    }
}

/// JSONL bytes and suppressed count of a run traced through a
/// `FlowRateFilter`, handed over directly (`at_source`) or behind
/// [`HideHook`].
fn filtered(
    exp: &Experiment,
    policy: Policy,
    seed: u64,
    cfg: FlowRateFilterConfig,
    at_source: bool,
) -> (String, u64) {
    let mut jsonl = JsonlSink::new(Vec::new());
    let mut filter = FlowRateFilter::new(&mut jsonl, cfg);
    let sink: &mut dyn EventSink = if at_source {
        &mut filter
    } else {
        &mut HideHook(&mut filter)
    };
    exp.run_traced(policy, seed, sink).expect("traced run");
    let suppressed = filter.suppressed();
    let bytes = jsonl.finish().expect("in-memory sink");
    (String::from_utf8(bytes).expect("utf8"), suppressed)
}

fn unfiltered(exp: &Experiment, policy: Policy, seed: u64) -> String {
    let mut jsonl = JsonlSink::new(Vec::new());
    exp.run_traced(policy, seed, &mut jsonl)
        .expect("traced run");
    String::from_utf8(jsonl.finish().expect("in-memory sink")).expect("utf8")
}

fn flow_rate_lines(trace: &str) -> usize {
    trace
        .lines()
        .filter(|l| l.contains("\"ev\":\"flow_rate\""))
        .count()
}

/// Asserts at-source thinning matches the oracle byte for byte and in
/// its count; returns the trace and count.
fn assert_matches_oracle(
    what: &str,
    exp: &Experiment,
    policy: Policy,
    seed: u64,
    cfg: FlowRateFilterConfig,
) -> (String, u64) {
    let (thinned, thinned_n) = filtered(exp, policy, seed, cfg, true);
    let (oracle, oracle_n) = filtered(exp, policy, seed, cfg, false);
    assert!(
        thinned == oracle,
        "{what}: at-source trace differs from the sink-only filter"
    );
    assert_eq!(thinned_n, oracle_n, "{what}: suppressed counts differ");
    (oracle, oracle_n)
}

#[test]
fn at_source_thinning_is_byte_identical_to_the_sink_only_filter() {
    let paper = presets::simulation_default();
    let cases = [
        ("paper LF", paper.clone(), Policy::LocalityFirst),
        ("paper EDF", paper, Policy::EnhancedDegradedFirst),
        (
            "churn EDF",
            presets::churn_default(),
            Policy::EnhancedDegradedFirst,
        ),
        (
            "straggler redundant:2 EDF",
            presets::straggler_default(FetchPolicy::Redundant { extra: 2 }),
            Policy::EnhancedDegradedFirst,
        ),
    ];
    for (what, exp, policy) in cases {
        let (trace, suppressed) = assert_matches_oracle(what, &exp, policy, 1, cli_filter());
        assert!(suppressed > 0, "{what}: the filter dropped nothing");
        if what.contains("redundant") {
            assert!(
                trace.contains("\"cancelled\":true"),
                "{what}: no flow was cancelled at quorum"
            );
        }
    }
}

#[test]
fn suppressed_count_is_exact_when_the_network_thins() {
    let paper = presets::simulation_default();
    let policy = Policy::EnhancedDegradedFirst;
    let (thinned, thinned_n) = filtered(&paper, policy, 1, cli_filter(), true);
    let (_, oracle_n) = filtered(&paper, policy, 1, cli_filter(), false);
    assert_eq!(thinned_n, oracle_n);
    let all = flow_rate_lines(&unfiltered(&paper, policy, 1));
    assert_eq!(flow_rate_lines(&thinned) + thinned_n as usize, all);
}

/// Requests thinning but drops nothing itself: it counts what arrives
/// and what the producer reports dropping.
struct Requester {
    cfg: FlowRateFilterConfig,
    rates: usize,
    others: usize,
    thinned: u64,
}

impl EventSink for Requester {
    fn record(&mut self, _at: SimTime, event: &SimEvent) {
        if matches!(event, SimEvent::FlowRate { .. }) {
            self.rates += 1;
        } else {
            self.others += 1;
        }
    }

    fn flow_rate_thinning(&self) -> Option<FlowRateFilterConfig> {
        Some(self.cfg)
    }

    fn flow_rates_thinned(&mut self, count: u64) {
        self.thinned += count;
    }
}

#[test]
fn a_thinning_sink_receives_exactly_the_kept_flow_rates() {
    let paper = presets::simulation_default();
    let policy = Policy::LocalityFirst;
    let (oracle, oracle_n) = filtered(&paper, policy, 1, cli_filter(), false);
    let mut req = Requester {
        cfg: cli_filter(),
        rates: 0,
        others: 0,
        thinned: 0,
    };
    paper.run_traced(policy, 1, &mut req).expect("traced run");
    // The network never produced the dropped rates: they did not reach a
    // sink that would have kept them.
    assert_eq!(req.rates, flow_rate_lines(&oracle));
    assert_eq!(
        req.others,
        oracle.lines().count() - flow_rate_lines(&oracle)
    );
    assert_eq!(req.thinned, oracle_n);
    assert!(req.thinned > 0);
}

#[test]
fn sinks_without_thinning_get_the_full_stream() {
    let paper = presets::simulation_default();
    let policy = Policy::LocalityFirst;
    let plain = unfiltered(&paper, policy, 1);
    let mut jsonl = JsonlSink::new(Vec::new());
    let mut agg = Aggregator::new(paper.aggregator_config(1));
    assert_eq!(Recorder::on(&mut agg).flow_rate_thinning(), None);
    {
        let mut tee = Tee::new(&mut jsonl, &mut agg);
        assert_eq!(Recorder::on(&mut tee).flow_rate_thinning(), None);
        paper.run_traced(policy, 1, &mut tee).expect("traced run");
    }
    let teed = String::from_utf8(jsonl.finish().expect("in-memory sink")).expect("utf8");
    assert!(teed == plain, "a tee changed the stream");
    // A zero-threshold filter requests thinning that keeps everything.
    let zero = FlowRateFilterConfig {
        min_delta_bps: 0.0,
        min_interval: SimDuration::ZERO,
    };
    let (zeroed, suppressed) = filtered(&paper, policy, 1, zero, true);
    assert!(
        zeroed == plain,
        "a zero-threshold filter changed the stream"
    );
    assert_eq!(suppressed, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Thresholds (zero, delta only, interval only, both) × seed × policy
    /// on the small preset: at-source thinning matches the oracle.
    #[test]
    fn at_source_thinning_matches_the_oracle_for_any_thresholds(
        mode in 0usize..4,
        seed in 0u64..500,
        policy_idx in 0usize..3,
    ) {
        let policy = [
            Policy::LocalityFirst,
            Policy::BasicDegradedFirst,
            Policy::EnhancedDegradedFirst,
        ][policy_idx];
        let cfg = FlowRateFilterConfig {
            min_delta_bps: if mode & 1 == 1 { 1e7 } else { 0.0 },
            min_interval: SimDuration::from_secs(if mode & 2 == 2 { 5 } else { 0 }),
        };
        let exp = presets::small_default();
        let (thinned, thinned_n) = filtered(&exp, policy, seed, cfg, true);
        let (oracle, oracle_n) = filtered(&exp, policy, seed, cfg, false);
        prop_assert!(thinned == oracle, "{cfg:?} seed {seed}: traces differ");
        prop_assert_eq!(thinned_n, oracle_n);
        if mode == 0 {
            prop_assert!(thinned == unfiltered(&exp, policy, seed));
        }
    }
}
