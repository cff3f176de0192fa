//! The probes observe without perturbing, and the network replay
//! reproduces the engine's fair-share completions.

use dfs::cluster::FailureTimeline;
use dfs::ecstore::FetchPolicy;
use dfs::obs::aggregate::Aggregator;
use dfs::obs::sink::VecSink;
use dfs::simkit::time::SimTime;
use dfs::{presets, Experiment, Policy};
use perfbench::probe::{FlowCapture, FlowRecord, SchedProbe, SinkProbe};
use perfbench::replay::replay;
use perfbench::work::{build_engine, shard_experiment, shard_metrics};
use sweep::{run_sweep, FailureAxis, SweepBase, SweepSpec, WorkloadAxis};

const POLICIES: [Policy; 2] = [Policy::LocalityFirst, Policy::EnhancedDegradedFirst];

#[test]
fn decorators_forward_unchanged_on_small_default() {
    let exp = presets::small_default();
    for policy in POLICIES {
        let reference = exp.run(policy, 1).expect("untraced run");

        // The benchmark's own build path is the experiment's.
        let rebuilt = build_engine(&exp, 1)
            .expect("build")
            .run(policy.scheduler())
            .expect("run");
        assert_eq!(rebuilt, reference, "{policy:?}: rebuilt engine differs");

        // The scheduler probe leaves every decision unchanged and sees
        // each map task claimed once.
        let (sched, stats) = SchedProbe::wrap(policy.scheduler());
        let probed = build_engine(&exp, 1)
            .expect("build")
            .run(sched)
            .expect("run");
        assert_eq!(
            probed, reference,
            "{policy:?}: scheduler probe perturbed the run"
        );
        let stats = *stats.borrow();
        assert_eq!(stats.tasks_assigned, exp.num_blocks as u64);
        assert!(stats.calls >= stats.useful_calls && stats.useful_calls > 0);

        // The sink probe forwards the identical stream.
        let mut plain = VecSink::new();
        exp.run_traced(policy, 1, &mut plain).expect("traced run");
        let mut inner = VecSink::new();
        let (traced, counted) = {
            let mut probe = SinkProbe::new(&mut inner);
            let traced = exp.run_traced(policy, 1, &mut probe).expect("probed run");
            (traced, probe.events)
        };
        assert_eq!(
            traced, reference,
            "{policy:?}: sink probe perturbed the run"
        );
        assert_eq!(inner.events, plain.events, "{policy:?}: stream changed");
        assert_eq!(counted, plain.events.len() as u64);

        // The flow capture keeps every flow start and finish.
        let mut capture = FlowCapture::default();
        let captured = exp
            .run_traced(policy, 1, &mut capture)
            .expect("capture run");
        assert_eq!(captured, reference);
        assert_eq!(capture.counts.events, plain.events.len() as u64);
        let starts = capture
            .flows
            .iter()
            .filter(|r| matches!(r, FlowRecord::Start { .. }))
            .count();
        assert_eq!(starts, capture.flows.len() - starts, "every flow finishes");
    }
}

/// Replays `exp`'s flow stream under `policy` and `seed`, returning the
/// stats and the number of cancelled flows the stream held.
fn replay_run(
    exp: &Experiment,
    policy: Policy,
    seed: u64,
) -> (perfbench::replay::ReplayStats, usize) {
    let mut capture = FlowCapture::default();
    exp.run_traced(policy, seed, &mut capture)
        .expect("traced run");
    let cancelled = capture
        .flows
        .iter()
        .filter(|r| {
            matches!(
                r,
                FlowRecord::Finish {
                    cancelled: true,
                    ..
                }
            )
        })
        .count();
    let stats = replay(&exp.topo.rack_sizes(), exp.config.net, &capture.flows);
    (stats, cancelled)
}

#[test]
fn replay_matches_every_completion_under_churn() {
    // The preset's node dies when no transfer touches it; a second
    // failure at 40 s lands while degraded reads of the first victim's
    // blocks are in flight, so the engine must cancel their flows.
    let preset = presets::churn_default();
    let mut second = preset.clone();
    second.timeline = FailureTimeline::new()
        .fail_node_at(second.topo.node(3), SimTime::from_secs(25))
        .fail_node_at(second.topo.node(9), SimTime::from_secs(40))
        .recover_node_at(second.topo.node(3), SimTime::from_secs(60));
    let mut cancelled = 0;
    for exp in [&preset, &second] {
        for policy in POLICIES {
            for seed in 1..=3 {
                let (stats, c) = replay_run(exp, policy, seed);
                assert!(stats.completions > 0);
                assert_eq!(
                    stats.match_ratio(),
                    1.0,
                    "{policy:?} seed {seed}: {stats:?}"
                );
                cancelled += c;
            }
        }
    }
    assert!(
        cancelled > 0,
        "a mid-transfer failure must exercise cancel_flow"
    );
}

#[test]
fn replay_matches_every_completion_with_redundant_fetches() {
    let exp = presets::straggler_default(FetchPolicy::Redundant { extra: 2 });
    for policy in POLICIES {
        let (stats, cancelled) = replay_run(&exp, policy, 1);
        assert!(stats.completions > 0);
        assert!(cancelled > 0, "redundant reads must exercise cancel_flow");
        assert_eq!(stats.match_ratio(), 1.0, "{policy:?}: {stats:?}");
    }
}

#[test]
fn shard_rerun_reproduces_the_sweep_rows() {
    let spec = SweepSpec {
        base: SweepBase::fig7_small(),
        policies: POLICIES.to_vec(),
        codes: vec![(8, 6)],
        failures: vec![FailureAxis::SingleNode],
        workloads: vec![WorkloadAxis::MapOnly { map_secs: 10.0 }],
        fetch_policies: vec![FetchPolicy::Exact, FetchPolicy::Redundant { extra: 2 }],
        speeds: vec![dfs::cluster::SpeedProfile::Homogeneous],
        seeds: vec![1],
    };
    let report = run_sweep(&spec, 1).expect("sweep");
    let shards = spec.shards().expect("shards");
    for (shard, row) in shards.iter().zip(&report.shards) {
        let (exp, seed) = shard_experiment(&spec.base, shard).expect("shard experiment");
        let mut agg = Aggregator::new(exp.aggregator_config(seed));
        let run = build_engine(&exp, seed)
            .expect("build")
            .run_traced(shard.policy.scheduler(), &mut agg)
            .expect("run");
        assert_eq!(row.metrics, Ok(shard_metrics(seed, &run, &agg)));
    }
}
