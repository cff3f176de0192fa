//! Replays a captured flow lifecycle stream through a standalone
//! `netsim::Network`, timing only the network's own calls.
//!
//! The engine touches its network in four ways: it starts flows (one
//! at a time or as a same-instant batch), cancels flows, and drains
//! completions at the instant the network predicted. Each maps to one
//! event pattern in the trace, so the replay issues the same calls at
//! the same simulated instants:
//!
//! * consecutive `flow_started` records at one instant → one
//!   `start_flow` or `start_flows` call (equivalent: a same-instant
//!   batch advances time once and the final reallocation sees the same
//!   flow set);
//! * `flow_finished { cancelled: true }` → `cancel_flow`;
//! * consecutive `flow_finished { cancelled: false }` records at one
//!   instant → one `drain_finished` call.
//!
//! A completion *matches* when the replayed network predicted exactly
//! that instant as its next completion and drained exactly the flows
//! the engine logged there. The match ratio is the replay's fidelity:
//! the timings stand for the engine's fair-share work only when every
//! completion matches.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use dfs::netsim::{FlowId, NetConfig, Network};

use crate::probe::FlowRecord;

/// What one replay did and how faithfully.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReplayStats {
    /// Network API calls issued.
    pub calls: u64,
    /// Time spent inside those calls.
    pub self_time: Duration,
    /// Flows started.
    pub flows: u64,
    /// Most flows active at once.
    pub peak_active_flows: u64,
    /// Completions the engine logged (cancellations excluded).
    pub completions: u64,
    /// Of those, completions the replay reproduced at the same instant.
    pub matched: u64,
}

impl ReplayStats {
    /// Matched over logged completions (1.0 for a stream without any).
    pub fn match_ratio(&self) -> f64 {
        if self.completions == 0 {
            1.0
        } else {
            self.matched as f64 / self.completions as f64
        }
    }

    /// Sums another replay into this one (peak is the larger peak).
    pub fn add(&mut self, other: &ReplayStats) {
        self.calls += other.calls;
        self.self_time += other.self_time;
        self.flows += other.flows;
        self.peak_active_flows = self.peak_active_flows.max(other.peak_active_flows);
        self.completions += other.completions;
        self.matched += other.matched;
    }
}

/// Replays `stream` on a fresh network of the given rack sizes and
/// link capacities.
pub fn replay(rack_sizes: &[usize], config: NetConfig, stream: &[FlowRecord]) -> ReplayStats {
    let mut net = Network::new(rack_sizes, config);
    let mut ids: HashMap<u64, FlowId> = HashMap::new();
    let mut stats = ReplayStats::default();
    let mut batch: Vec<(usize, usize, u64)> = Vec::new();
    let mut logged: Vec<u64> = Vec::new();
    let mut i = 0;
    while i < stream.len() {
        match stream[i] {
            FlowRecord::Start { at, .. } => {
                batch.clear();
                logged.clear();
                while let Some(&FlowRecord::Start {
                    at: t,
                    flow,
                    src,
                    dst,
                    bytes,
                }) = stream.get(i)
                {
                    if t != at {
                        break;
                    }
                    batch.push((src, dst, bytes));
                    logged.push(flow);
                    i += 1;
                }
                let start = Instant::now();
                let started = if batch.len() == 1 {
                    let (src, dst, bytes) = batch[0];
                    vec![net.start_flow(at, src, dst, bytes)]
                } else {
                    net.start_flows(at, &batch)
                };
                stats.self_time += start.elapsed();
                stats.calls += 1;
                stats.flows += started.len() as u64;
                for (&flow, id) in logged.iter().zip(started) {
                    ids.insert(flow, id);
                }
            }
            FlowRecord::Finish {
                at,
                flow,
                cancelled: true,
            } => {
                i += 1;
                if let Some(id) = ids.remove(&flow) {
                    let start = Instant::now();
                    let _ = net.cancel_flow(at, id);
                    stats.self_time += start.elapsed();
                    stats.calls += 1;
                }
            }
            FlowRecord::Finish { at, .. } => {
                logged.clear();
                while let Some(&FlowRecord::Finish {
                    at: t,
                    flow,
                    cancelled: false,
                }) = stream.get(i)
                {
                    if t != at {
                        break;
                    }
                    logged.push(flow);
                    i += 1;
                }
                stats.completions += logged.len() as u64;
                let predicted = net.next_completion() == Some(at);
                let start = Instant::now();
                let drained = net.drain_finished(at);
                stats.self_time += start.elapsed();
                stats.calls += 1;
                if predicted {
                    let drained: Vec<FlowId> = drained.into_iter().map(|(id, _)| id).collect();
                    stats.matched += logged
                        .iter()
                        .filter(|flow| ids.get(flow).is_some_and(|id| drained.contains(id)))
                        .count() as u64;
                }
                for flow in &logged {
                    ids.remove(flow);
                }
            }
        }
        stats.peak_active_flows = stats.peak_active_flows.max(net.active_flows() as u64);
    }
    stats
}
