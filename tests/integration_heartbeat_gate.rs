//! The engine consults the map policy only on heartbeats that can
//! assign a map task: the slave has a free map slot and some running
//! job has an unassigned normal or degraded task. Skipping the others
//! must not change a run: the digests below pin whole `RunResult`s of
//! policies with and without state on a failure-mode preset and on a
//! churn preset, and the call counts pin how much policy work is left.

use std::cell::Cell;
use std::rc::Rc;

use dfs::ecstore::placement::{RackAwarePlacement, RoundRobinPlacement};
use dfs::experiment::{Experiment, PlacementKind, Policy};
use dfs::mapreduce::engine::Engine;
use dfs::mapreduce::sched::{Heartbeat, MapScheduler};
use dfs::mapreduce::RunResult;
use dfs::presets;
use dfs::simkit::time::SimDuration;

/// Counts the calls that reach the wrapped policy and checks that each
/// one could assign.
struct Counting {
    inner: Box<dyn MapScheduler>,
    calls: Rc<Cell<u64>>,
}

impl MapScheduler for Counting {
    fn assign_maps(&mut self, hb: &mut Heartbeat<'_>) {
        assert!(hb.free_map_slots() > 0, "called with no free map slot");
        assert!(
            hb.jobs()
                .iter()
                .any(|&job| hb.has_normal(job) || hb.has_degraded(job)),
            "called with no unassigned map task"
        );
        self.calls.set(self.calls.get() + 1);
        self.inner.assign_maps(hb);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Runs `exp` under `policy` through [`Counting`]; returns the result
/// and the number of `assign_maps` calls.
fn counted_run(exp: &Experiment, policy: Policy, seed: u64) -> (RunResult, u64) {
    let builder = Engine::builder(exp.topo.clone())
        .code(exp.code, exp.num_blocks)
        .failure(exp.failure_for_seed(seed))
        .timeline(exp.timeline.clone())
        .config(exp.config)
        .seed(seed)
        .jobs(exp.jobs.iter().cloned());
    let engine = match exp.placement {
        PlacementKind::RackAware => builder.placement(&RackAwarePlacement).build(),
        PlacementKind::RoundRobin => builder.placement(&RoundRobinPlacement).build(),
    }
    .expect("build");
    let calls = Rc::new(Cell::new(0));
    let counting = Counting {
        inner: policy.scheduler(),
        calls: Rc::clone(&calls),
    };
    let result = engine.run(Box::new(counting)).expect("run");
    (result, calls.get())
}

/// FNV-1a over the `Debug` rendering of a run, as in
/// `integration_determinism`.
fn digest(result: &RunResult) -> u64 {
    let rendered = format!("{result:?}|{:016x}", result.makespan.as_micros());
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in rendered.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const DELAY: Policy = Policy::DelayScheduling {
    max_wait: SimDuration::from_secs(6),
};

/// `(policy, digest, assign_maps calls)` of seed 1 on each preset. The
/// digests were captured while the engine still consulted the policy on
/// every heartbeat (5,019, 3,446 and 5,187 calls on the paper preset;
/// 729, 898 and 711 on the churn preset); the call counts are a
/// deterministic measure of the policy work that remains.
const PAPER_GOLDENS: [(Policy, u64, u64); 3] = [
    (Policy::LocalityFirst, 0xcdbe_acee_8e09_fe22, 781),
    (Policy::EnhancedDegradedFirst, 0x8605_ddd2_9a0d_7d61, 799),
    (DELAY, 0x1556_0aa8_22f6_8cbc, 791),
];
const CHURN_GOLDENS: [(Policy, u64, u64); 3] = [
    (Policy::LocalityFirst, 0xa62e_b0a4_7d5a_8f36, 121),
    (Policy::EnhancedDegradedFirst, 0xb7d4_2ff0_a8ca_e3cc, 123),
    (DELAY, 0x5481_c45d_ed54_89c9, 158),
];

fn check(exp: &Experiment, goldens: &[(Policy, u64, u64)], label: &str) {
    for &(policy, want_digest, want_calls) in goldens {
        let (result, calls) = counted_run(exp, policy, 1);
        let got = digest(&result);
        assert_eq!(
            got,
            want_digest,
            "{label} {}: digest drifted, got {got:#018x}",
            policy.name()
        );
        assert_eq!(calls, want_calls, "{label} {}: call count", policy.name());
    }
}

#[test]
fn paper_preset_runs_are_unchanged() {
    check(&presets::simulation_default(), &PAPER_GOLDENS, "paper");
}

#[test]
fn churn_preset_runs_are_unchanged() {
    check(&presets::churn_default(), &CHURN_GOLDENS, "churn");
}
