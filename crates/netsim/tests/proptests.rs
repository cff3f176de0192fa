//! Property-based tests for the flow-level network: feasibility and
//! max-min optimality of rate allocations, bit-identity of the
//! incremental allocator with the reference, the allocator's link→flow
//! incidence over random operation sequences, byte conservation,
//! monotonicity of completion under contention, and at-source
//! `flow_rate` thinning against the sink-side filter.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use netsim::fairshare::{max_min_rates_ref, FairShare};
use netsim::{FlowId, NetConfig, Network};
use obs::event::SimEvent;
use obs::sink::{EventSink, FlowRateFilter, FlowRateFilterConfig, Recorder, VecSink};
use proptest::prelude::*;
use simkit::time::{SimDuration, SimTime};

fn random_paths(num_links: usize, max_flows: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0..num_links, 1..=num_links.min(4)),
        0..max_flows,
    )
    .prop_map(|flows| flows.into_iter().map(|s| s.into_iter().collect()).collect())
}

/// Pushes `paths` into `fs` in order.
fn push_all(fs: &mut FairShare, paths: &[Vec<usize>]) {
    for p in paths {
        fs.push(&p.iter().map(|&l| l as u32).collect::<Vec<_>>());
    }
}

/// Rates of `paths` from the production allocator.
fn allocate(caps: &[f64], paths: &[Vec<usize>]) -> Vec<f64> {
    let mut fs = FairShare::new();
    push_all(&mut fs, paths);
    let mut rates = Vec::new();
    fs.compute(caps, &mut rates);
    rates
}

fn bits(rates: &[f64]) -> Vec<u64> {
    rates.iter().map(|r| r.to_bits()).collect()
}

proptest! {
    #[test]
    fn allocation_is_feasible(
        caps in proptest::collection::vec(1e6f64..1e10, 1..8),
        seed_paths in random_paths(8, 12),
    ) {
        let num_links = caps.len();
        let paths: Vec<Vec<usize>> = seed_paths
            .into_iter()
            .map(|p| p.into_iter().filter(|&l| l < num_links).collect::<Vec<_>>())
            .filter(|p: &Vec<usize>| !p.is_empty())
            .collect();
        let rates = allocate(&caps, &paths);
        prop_assert_eq!(rates.len(), paths.len());
        let mut usage = vec![0.0f64; num_links];
        for (f, path) in paths.iter().enumerate() {
            prop_assert!(rates[f] > 0.0, "flow {f} starved");
            for &l in path {
                usage[l] += rates[f];
            }
        }
        for l in 0..num_links {
            prop_assert!(usage[l] <= caps[l] * (1.0 + 1e-6), "link {l} oversubscribed");
        }
    }

    #[test]
    fn every_flow_has_a_bottleneck(
        caps in proptest::collection::vec(1e6f64..1e9, 1..6),
        seed_paths in random_paths(6, 8),
    ) {
        let num_links = caps.len();
        let paths: Vec<Vec<usize>> = seed_paths
            .into_iter()
            .map(|p| p.into_iter().filter(|&l| l < num_links).collect::<Vec<_>>())
            .filter(|p: &Vec<usize>| !p.is_empty())
            .collect();
        let rates = allocate(&caps, &paths);
        let mut usage = vec![0.0f64; num_links];
        for (f, path) in paths.iter().enumerate() {
            for &l in path {
                usage[l] += rates[f];
            }
        }
        // Max-min certificate: every flow crosses a saturated link where
        // it has (one of) the largest rates.
        for (f, path) in paths.iter().enumerate() {
            let ok = path.iter().any(|&l| {
                usage[l] >= caps[l] * (1.0 - 1e-6)
                    && paths
                        .iter()
                        .enumerate()
                        .filter(|(_, q)| q.contains(&l))
                        .all(|(g, _)| rates[g] <= rates[f] * (1.0 + 1e-6))
            });
            prop_assert!(ok, "flow {f} lacks a bottleneck certificate");
        }
    }

    #[test]
    fn workspace_allocator_matches_reference_bit_for_bit(
        caps in proptest::collection::vec(1e6f64..1e10, 1..8),
        stale_paths in random_paths(8, 8),
        seed_paths in random_paths(8, 16),
        loopbacks in 0usize..3,
    ) {
        // The incremental allocator must reproduce the naive reference
        // exactly — same freeze rounds, same floating-point operations,
        // hence bit-identical rates — also when reused after other flows
        // came and went.
        let num_links = caps.len();
        let keep = |seed: Vec<Vec<usize>>| -> Vec<Vec<usize>> {
            seed.into_iter()
                .map(|p| p.into_iter().filter(|&l| l < num_links).collect())
                .collect()
        };
        let stale = keep(stale_paths);
        let mut paths = keep(seed_paths);
        for _ in 0..loopbacks {
            paths.push(Vec::new());
        }
        let mut fs = FairShare::new();
        let mut rates = Vec::new();
        push_all(&mut fs, &stale);
        fs.compute(&caps, &mut rates);
        for _ in 0..stale.len() {
            fs.swap_remove(0);
        }
        push_all(&mut fs, &paths);
        fs.compute(&caps, &mut rates);
        prop_assert_eq!(bits(&rates), bits(&max_min_rates_ref(&caps, &paths)));
    }

    #[test]
    fn sparse_allocator_matches_reference_bit_for_bit(
        caps in proptest::collection::vec(1e6f64..1e10, 1..12),
        seed_paths in random_paths(12, 20),
        loopbacks in 0usize..3,
        pad_links in 0usize..512,
    ) {
        // The incremental allocator must reproduce the reference exactly
        // even when the capacity vector is mostly untouched padding.
        let num_real = caps.len();
        let mut caps = caps;
        caps.extend(std::iter::repeat_n(7.7e9, pad_links));
        let mut paths: Vec<Vec<usize>> = seed_paths
            .into_iter()
            .map(|p| p.into_iter().filter(|&l| l < num_real).collect::<Vec<_>>())
            .collect();
        for _ in 0..loopbacks {
            paths.push(Vec::new());
        }
        // Spread the real links over the padded id space.
        let spread = |l: usize| l * (caps.len() / num_real);
        let spread_caps: Vec<f64> = {
            let mut c = vec![7.7e9; caps.len()];
            for l in 0..num_real {
                c[spread(l)] = caps[l];
            }
            c
        };
        let spread_paths: Vec<Vec<usize>> = paths
            .iter()
            .map(|p| p.iter().map(|&l| spread(l)).collect())
            .collect();
        let reference = bits(&max_min_rates_ref(&caps, &paths));
        prop_assert_eq!(&bits(&allocate(&caps, &paths)), &reference);
        prop_assert_eq!(&bits(&allocate(&spread_caps, &spread_paths)), &reference);
    }

    #[test]
    fn bytes_are_conserved(
        transfers in proptest::collection::vec((0usize..6, 0usize..6, 1u64..64_000_000), 1..20),
        bw in 1u64..=4,
    ) {
        // Deliver every flow; total delivered time must cover bytes at
        // link speed, and all flows complete.
        let mut net = Network::new(&[3, 3], NetConfig::uniform(bw * 100_000_000));
        let mut now = SimTime::ZERO;
        let mut started = 0usize;
        for &(src, dst, bytes) in &transfers {
            net.start_flow(now, src, dst, bytes);
            started += 1;
        }
        let mut finished = 0usize;
        let mut guard = 0;
        while let Some(t) = net.next_completion() {
            prop_assert!(t >= now, "completion in the past");
            now = t;
            let done = net.drain_finished(now);
            for (_, stats) in &done {
                // A flow's duration is at least its serialized time over
                // the fastest possible path (one link at full speed would
                // be bytes*8/(4*bw) at most; we check a weak lower bound:
                // nonzero for nonzero inter-node payloads).
                if stats.src != stats.dst && stats.bytes > 0 {
                    prop_assert!(stats.duration().as_micros() > 0);
                }
                finished += 1;
            }
            guard += 1;
            prop_assert!(guard < 10_000, "network failed to converge");
        }
        prop_assert_eq!(finished, started);
        prop_assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn contention_never_speeds_a_flow_up(
        bytes in 1_000_000u64..512_000_000,
        competitors in 0usize..6,
    ) {
        // Measure a cross-rack flow alone, then with competitors sharing
        // its destination rack downlink; the observed flow must finish
        // no earlier under contention.
        let solo = {
            let mut net = Network::new(&[4, 4], NetConfig::uniform(100_000_000));
            net.start_flow(SimTime::ZERO, 4, 0, bytes);
            net.next_completion().unwrap()
        };
        let contended = {
            let mut net = Network::new(&[4, 4], NetConfig::uniform(100_000_000));
            let main = net.start_flow(SimTime::ZERO, 4, 0, bytes);
            for c in 0..competitors {
                net.start_flow(SimTime::ZERO, 5 + (c % 3), 1 + (c % 3), u64::MAX / 1024);
            }
            // Drain until the observed flow completes.
            let mut done_at = None;
            while done_at.is_none() {
                let t = net.next_completion().expect("main flow must finish");
                for (id, stats) in net.drain_finished(t) {
                    if id == main {
                        done_at = Some(stats.finished);
                    }
                }
            }
            done_at.unwrap()
        };
        prop_assert!(contended >= solo, "contended {contended} < solo {solo}");
    }
}

/// Records every event and at-source drop count it is handed, without
/// thinning anything itself.
#[derive(Default)]
struct RawSink {
    events: Vec<(SimTime, SimEvent)>,
    thinned: u64,
}

impl EventSink for RawSink {
    fn record(&mut self, at: SimTime, event: &SimEvent) {
        self.events.push((at, event.clone()));
    }

    fn flow_rates_thinned(&mut self, count: u64) {
        self.thinned += count;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Thinning in the network logs exactly what `FlowRateFilter` keeps
    /// of the full log, and counts exactly what it drops, across starts,
    /// batch starts, cancellations (which move flows between slots) and
    /// completions.
    #[test]
    fn at_source_thinning_matches_flow_rate_filter(
        ops in proptest::collection::vec((0u8..4, 0usize..6, 0usize..6, 1u64..64, 0u64..4000), 1..40),
        delta_idx in 0usize..3,
        interval_idx in 0usize..3,
    ) {
        let cfg = FlowRateFilterConfig {
            min_delta_bps: [0.0, 1e6, 3e7][delta_idx],
            min_interval: SimDuration::from_secs([0, 1, 5][interval_idx]),
        };
        let mut plain = Network::new(&[3, 3], NetConfig::uniform(100_000_000));
        plain.enable_flow_log(None);
        let mut thinned = plain.clone();
        thinned.enable_flow_log(Some(cfg));
        let mut oracle_out = VecSink::new();
        let mut oracle = FlowRateFilter::new(&mut oracle_out, cfg);
        let mut raw = RawSink::default();
        let mut now = SimTime::ZERO;
        let mut live: Vec<FlowId> = Vec::new();
        for (kind, a, b, mb, dt_ms) in ops {
            now += SimDuration::from_millis(dt_ms);
            let bytes = mb * 1_000_000;
            match kind {
                0 => {
                    let id = plain.start_flow(now, a, b, bytes);
                    prop_assert_eq!(thinned.start_flow(now, a, b, bytes), id);
                    live.push(id);
                }
                1 => {
                    let specs = [(a, b, bytes), (b, (a + 1) % 6, bytes / 2 + 1)];
                    let ids = plain.start_flows(now, &specs);
                    prop_assert_eq!(thinned.start_flows(now, &specs), ids.clone());
                    live.extend(ids);
                }
                2 if !live.is_empty() => {
                    let id = live.remove(a % live.len());
                    prop_assert_eq!(plain.cancel_flow(now, id), thinned.cancel_flow(now, id));
                }
                _ => {
                    if let Some(t) = plain.next_completion() {
                        now = now.max(t);
                    }
                    let done = plain.drain_finished(now);
                    prop_assert_eq!(thinned.drain_finished(now), done.clone());
                    live.retain(|id| done.iter().all(|(f, _)| f != id));
                }
            }
            plain.drain_flow_log(&mut Recorder::on(&mut oracle));
            thinned.drain_flow_log(&mut Recorder::on(&mut raw));
            prop_assert_eq!(thinned.check_slots(), Ok(()));
        }
        let suppressed = oracle.suppressed();
        prop_assert_eq!(raw.thinned, suppressed);
        prop_assert!(raw.events == oracle_out.events, "thinned log differs from the filter's output");
    }
}

/// A network for the operation-sequence property: rack sizes, and the
/// nodes operations draw endpoints from (equal endpoints make a
/// loopback flow).
struct Topology {
    racks: &'static [usize],
    palette: &'static [usize],
}

/// Three small racks: every link id is below 22.
const SMALL: Topology = Topology {
    racks: &[3, 3, 2],
    palette: &[0, 1, 2, 3, 4, 5, 6, 7],
};

/// 10,000 nodes in 100 racks, endpoints in three far-apart racks: link
/// ids reach 20,199 while only a few dozen links are ever loaded.
const SCALE_10K: Topology = Topology {
    racks: &[100; 100],
    palette: &[0, 1, 2, 5050, 5051, 9997, 9998, 9999],
};

/// One step of a random network workload. Endpoint fields index the
/// topology's palette; sizes are in MB.
#[derive(Clone)]
enum Op {
    /// `start_flow`.
    Start(usize, usize, u64),
    /// `start_flows` with one reallocation for the whole batch.
    Batch(Vec<(usize, usize, u64)>),
    /// `cancel_flow` of the `n % live`-th live flow (in start order).
    Cancel(usize),
    /// `drain_finished` at `next_completion`.
    Drain,
}

/// Prints valid Rust (with `use Op::*`), so a failing sequence pastes
/// into a replay test.
impl fmt::Debug for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Start(a, b, mb) => write!(f, "Start({a}, {b}, {mb})"),
            Op::Batch(specs) => write!(f, "Batch(vec!{specs:?})"),
            Op::Cancel(n) => write!(f, "Cancel({n})"),
            Op::Drain => write!(f, "Drain"),
        }
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let flow = || (0usize..8, 0usize..8, 1u64..64);
    prop_oneof![
        3 => flow().prop_map(|(a, b, mb)| Op::Start(a, b, mb)),
        1 => proptest::collection::vec(flow(), 1..5).prop_map(Op::Batch),
        2 => (0usize..64).prop_map(Op::Cancel),
        3 => Just(Op::Drain),
    ]
}

/// Follows the flow log: the route and latest logged rate of every
/// live flow, keyed by flow id.
#[derive(Default)]
struct LiveFlows {
    flows: BTreeMap<u64, (Vec<usize>, f64)>,
}

impl EventSink for LiveFlows {
    fn record(&mut self, _at: SimTime, event: &SimEvent) {
        if let SimEvent::FlowStarted { flow, links, .. } = event {
            let route: Vec<usize> = links.as_slice().iter().map(|&l| l as usize).collect();
            // Loopbacks never log a rate; routed flows log their first
            // one in the reallocation that admits them.
            let rate = if route.is_empty() { f64::INFINITY } else { 0.0 };
            self.flows.insert(*flow, (route, rate));
        } else if let SimEvent::FlowRate { flow, rate_bps } = event {
            self.flows.get_mut(flow).expect("rate of a live flow").1 = *rate_bps;
        } else if let SimEvent::FlowFinished { flow, .. } = event {
            self.flows.remove(flow);
        }
    }
}

/// The reference rates of the live flows, in flow-id order. Link ids
/// are renumbered densely in ascending order first, which leaves every
/// operation of the reference unchanged (it skips unloaded links and
/// visits the rest in ascending order) while keeping it O(live links).
fn reference_rates(live: &LiveFlows, cfg: NetConfig, nodes: usize) -> Vec<f64> {
    let used: BTreeSet<usize> = live
        .flows
        .values()
        .flat_map(|(r, _)| r.iter().copied())
        .collect();
    let dense: BTreeMap<usize, usize> = used.iter().enumerate().map(|(d, &l)| (l, d)).collect();
    let caps: Vec<f64> = used
        .iter()
        .map(|&l| if l < 2 * nodes { cfg.node_bps } else { cfg.rack_bps } as f64)
        .collect();
    let paths: Vec<Vec<usize>> = live
        .flows
        .values()
        .map(|(r, _)| r.iter().map(|l| dense[l]).collect())
        .collect();
    max_min_rates_ref(&caps, &paths)
}

/// Runs `ops` and, after every one, checks the network's slot-aligned
/// state (fair-share incidence, `index_of`) and that every live flow's
/// rate equals the reference's bit for bit.
fn run_ops(topo: &Topology, mixed_capacities: bool, ops: &[Op]) -> Result<(), String> {
    let cfg = if mixed_capacities {
        NetConfig {
            node_bps: 1_000_000_000,
            rack_bps: 1_500_000_000,
        }
    } else {
        NetConfig::uniform(100_000_000)
    };
    let nodes: usize = topo.racks.iter().sum();
    let node = |i: usize| topo.palette[i % topo.palette.len()];
    let mut net = Network::new(topo.racks, cfg);
    net.enable_flow_log(None);
    let mut live = LiveFlows::default();
    let mut ids: Vec<FlowId> = Vec::new();
    let mut now = SimTime::ZERO;
    for (step, op) in ops.iter().enumerate() {
        now += SimDuration::from_millis(100);
        match op {
            Op::Start(a, b, mb) => {
                ids.push(net.start_flow(now, node(*a), node(*b), mb * 1_000_000))
            }
            Op::Batch(specs) => {
                let specs: Vec<(usize, usize, u64)> = specs
                    .iter()
                    .map(|&(a, b, mb)| (node(a), node(b), mb * 1_000_000))
                    .collect();
                ids.extend(net.start_flows(now, &specs));
            }
            Op::Cancel(n) if !ids.is_empty() => {
                let id = ids.remove(n % ids.len());
                if net.cancel_flow(now, id).is_none() {
                    return Err(format!(
                        "step {step}: live flow {id:?} could not be cancelled"
                    ));
                }
            }
            Op::Cancel(_) => {}
            Op::Drain => {
                if let Some(t) = net.next_completion() {
                    now = now.max(t);
                }
                let done = net.drain_finished(now);
                ids.retain(|id| done.iter().all(|(f, _)| f != id));
            }
        }
        net.drain_flow_log(&mut Recorder::on(&mut live));
        net.check_slots()
            .map_err(|e| format!("step {step} ({op:?}): {e}"))?;
        let got: Vec<f64> = live.flows.values().map(|(_, rate)| *rate).collect();
        let want = reference_rates(&live, cfg, nodes);
        if bits(&got) != bits(&want) {
            return Err(format!(
                "step {step} ({op:?}): rates {got:?} differ from the reference {want:?}"
            ));
        }
    }
    Ok(())
}

/// Runs one generated case, turning a failure into a replayable test
/// (the vendored proptest cannot shrink, so the full sequence is it).
fn check_case(
    topo_name: &str,
    topo: &Topology,
    mixed: bool,
    ops: &[Op],
) -> Result<(), TestCaseError> {
    run_ops(topo, mixed, ops).map_err(|e| {
        TestCaseError::fail(format!(
            "{e}\nreplay:\n#[test]\nfn replay() {{\n    use Op::*;\n    \
             run_ops(&{topo_name}, {mixed}, &{ops:?}).unwrap();\n}}"
        ))
    })
}

proptest! {
    /// Starts (single and batched, loopbacks included), cancellations
    /// and completions keep the fair-share incidence consistent and the
    /// rates bit-identical to the reference.
    #[test]
    fn incidence_tracks_random_operation_sequences(
        ops in proptest::collection::vec(op_strategy(), 1..60),
        mixed in any::<bool>(),
    ) {
        check_case("SMALL", &SMALL, mixed, &ops)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// Soak variant of `incidence_tracks_random_operation_sequences` at
    /// 10k-node link ids. Run with
    /// `cargo test --release -p netsim --test proptests -- --ignored`.
    #[test]
    #[ignore]
    fn incidence_soak_at_10k_node_link_ids(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        mixed in any::<bool>(),
    ) {
        check_case("SCALE_10K", &SCALE_10K, mixed, &ops)?;
    }
}
