//! In-memory aggregation of an event stream into the derived quantities
//! behind the paper's Figures 5, 7 and 8: per-interval slot and link
//! utilization, degraded-read latency percentiles, per-type mean task
//! runtimes, and the overlap between degraded fetches and normal map
//! work (the mechanism degraded-first scheduling exploits).
//!
//! The counters are defined to match `mapreduce::metrics` *exactly* —
//! same winner-only accounting, same completion-order summation — and a
//! cross-check test in the workspace keeps the two from drifting.

use std::collections::{BTreeMap, BTreeSet};

use simkit::stats::{percentile_sorted, QuantileSketch};
use simkit::time::{SimDuration, SimTime};

use crate::event::{DegradedPhase, LinkSet, Locality, SimEvent};
use crate::sink::EventSink;

/// How the aggregator stores per-sample data.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AggregatorMode {
    /// Keep every sample: per-bucket series, full latency vectors.
    /// Memory grows with the trace; exact percentiles.
    #[default]
    Exact,
    /// Bounded memory for week-long traces: time series roll up into at
    /// most `max_windows` windows (pair-merged and width-doubled when
    /// the run outgrows them) and latency percentiles come from
    /// fixed-size [`QuantileSketch`]es (relative error
    /// [`QuantileSketch::RELATIVE_ERROR`]). Resident state is
    /// independent of event count.
    Windowed {
        /// Initial window width in seconds (doubles on rollup).
        window_secs: u64,
        /// Most windows kept before rolling up.
        max_windows: usize,
    },
}

/// Static configuration of an [`Aggregator`].
#[derive(Clone, Debug)]
pub struct AggregatorConfig {
    /// Width of a utilization interval (exact mode; windowed mode uses
    /// its own window width).
    pub bucket: SimDuration,
    /// Total map slots in the cluster (alive nodes × slots per node),
    /// the denominator of slot utilization. Zero disables the metric.
    pub total_map_slots: u64,
    /// Capacity in bit/s per link index, the denominator of per-link
    /// utilization. Links beyond the vector report raw bit/s instead.
    pub link_capacities_bps: Vec<f64>,
    /// Exact sample retention or bounded windowed rollups.
    pub mode: AggregatorMode,
}

impl Default for AggregatorConfig {
    fn default() -> AggregatorConfig {
        AggregatorConfig {
            bucket: SimDuration::from_secs(10),
            total_map_slots: 0,
            link_capacities_bps: Vec::new(),
            mode: AggregatorMode::Exact,
        }
    }
}

/// Bounded-memory replacement for the exact per-sample records: window
/// rollup bookkeeping, quantile sketches, and scalar accumulators.
struct WindowedState {
    /// Current effective window width; doubles on rollup.
    window_micros: u64,
    /// Rollup trigger: series never exceed this many windows.
    max_windows: usize,
    /// Per-window peak of the jobs-in-flight step function.
    jif_window_peak: Vec<usize>,
    fetch_sketch: QuantileSketch,
    latency_sketch: QuantileSketch,
    queue_sketch: QuantileSketch,
    /// Completed maps by locality: node-local, rack-local, remote,
    /// degraded.
    maps_by_locality: [usize; 4],
    reduces: usize,
    /// `(runtime sum, count)` accumulators for mean task runtimes.
    normal_map: (f64, usize),
    degraded_map: (f64, usize),
    reduce_runtime: (f64, usize),
}

impl WindowedState {
    fn new(window_secs: u64, max_windows: usize) -> WindowedState {
        WindowedState {
            window_micros: window_secs.saturating_mul(1_000_000),
            max_windows,
            jif_window_peak: Vec::new(),
            fetch_sketch: QuantileSketch::new(),
            latency_sketch: QuantileSketch::new(),
            queue_sketch: QuantileSketch::new(),
            maps_by_locality: [0; 4],
            reduces: 0,
            normal_map: (0.0, 0),
            degraded_map: (0.0, 0),
            reduce_runtime: (0.0, 0),
        }
    }
}

/// Pair-merges a rolled-up series in place: `v[i] = v[2i] ⊕ v[2i+1]`.
fn pair_merge<T: Copy>(v: &mut Vec<T>, combine: impl Fn(T, T) -> T) {
    let mut out = Vec::with_capacity(v.len().div_ceil(2));
    for pair in v.chunks(2) {
        out.push(match *pair {
            [a, b] => combine(a, b),
            [a] => a,
            _ => continue,
        });
    }
    *v = out;
}

fn locality_index(locality: Locality) -> usize {
    match locality {
        Locality::NodeLocal => 0,
        Locality::RackLocal => 1,
        Locality::Remote => 2,
        Locality::Degraded => 3,
    }
}

/// A finished task as the aggregator saw it, in completion order.
#[derive(Clone, Copy, Debug)]
enum Finished {
    Map {
        locality: Locality,
        runtime_secs: f64,
        fetch_secs: Option<f64>,
    },
    Reduce {
        runtime_secs: f64,
    },
}

/// A live map attempt.
struct Attempt {
    launched_at: SimTime,
    locality: Locality,
    fetch_begin: Option<SimTime>,
    fetch_secs: Option<f64>,
}

/// The [`EventSink`] that folds the stream into [`AggregateReport`].
///
/// All time-weighted metrics (slot busy-seconds, link bits, overlap)
/// are integrated as step functions between consecutive event
/// timestamps, so they are exact for the piecewise-constant processes
/// the simulator produces, not sampled approximations.
pub struct Aggregator {
    cfg: AggregatorConfig,
    last_t: SimTime,
    end_t: SimTime,
    // Step-function state.
    active_maps: u64,
    active_normal_maps: u64,
    active_fetches: u64,
    // Integrals.
    busy_slot_secs: Vec<f64>,
    /// Bits carried per bucket, indexed by link id; empty for a link
    /// that never carried traffic.
    link_bits: Vec<Vec<f64>>,
    overlap_secs: f64,
    fetch_active_secs: f64,
    // Entity state.
    attempts: BTreeMap<(u32, u32, bool), Attempt>,
    reduces: BTreeMap<(u32, u32), SimTime>,
    /// Live flows: traversed links, current rate, and requested bytes
    /// (the last lets `fetch_cancelled` attribute redundant traffic).
    flows: BTreeMap<u64, (LinkSet, f64, u64)>,
    /// Summed rate of the live flows on each link, indexed by link id
    /// and as long as `link_bits`.
    link_rate: Vec<f64>,
    // Records.
    finished: Vec<Finished>,
    jobs_submitted: usize,
    jobs_finished: usize,
    job_submitted_at: BTreeMap<u32, SimTime>,
    job_started_at: BTreeMap<u32, SimTime>,
    job_latency_secs: Vec<f64>,
    job_queue_delay_secs: Vec<f64>,
    jobs_in_flight: usize,
    jobs_in_flight_steps: Vec<(f64, usize)>,
    peak_jobs_in_flight: usize,
    tasks_queued_degraded: usize,
    speculative_launches: usize,
    cancelled_attempts: usize,
    redundant_fetches_issued: usize,
    redundant_extra_flows: usize,
    fetch_cancel_wins: usize,
    redundant_cancelled_bytes: u64,
    nodes_failed: usize,
    nodes_recovered: usize,
    maps_relaunched: usize,
    primaries_seen: BTreeSet<(u32, u32)>,
    /// `Some` in [`AggregatorMode::Windowed`]; the unbounded sample
    /// vectors above stay empty then.
    win: Option<WindowedState>,
}

impl Aggregator {
    /// An empty aggregator.
    pub fn new(cfg: AggregatorConfig) -> Aggregator {
        assert!(!cfg.bucket.is_zero(), "bucket width must be positive");
        let win = match cfg.mode {
            AggregatorMode::Exact => None,
            AggregatorMode::Windowed {
                window_secs,
                max_windows,
            } => {
                assert!(window_secs > 0, "window width must be positive");
                assert!(max_windows >= 1, "need at least one window");
                Some(WindowedState::new(window_secs, max_windows))
            }
        };
        Aggregator {
            cfg,
            win,
            last_t: SimTime::ZERO,
            end_t: SimTime::ZERO,
            active_maps: 0,
            active_normal_maps: 0,
            active_fetches: 0,
            busy_slot_secs: Vec::new(),
            link_bits: Vec::new(),
            overlap_secs: 0.0,
            fetch_active_secs: 0.0,
            attempts: BTreeMap::new(),
            reduces: BTreeMap::new(),
            flows: BTreeMap::new(),
            link_rate: Vec::new(),
            finished: Vec::new(),
            jobs_submitted: 0,
            jobs_finished: 0,
            job_submitted_at: BTreeMap::new(),
            job_started_at: BTreeMap::new(),
            job_latency_secs: Vec::new(),
            job_queue_delay_secs: Vec::new(),
            jobs_in_flight: 0,
            jobs_in_flight_steps: Vec::new(),
            peak_jobs_in_flight: 0,
            tasks_queued_degraded: 0,
            speculative_launches: 0,
            cancelled_attempts: 0,
            redundant_fetches_issued: 0,
            redundant_extra_flows: 0,
            fetch_cancel_wins: 0,
            redundant_cancelled_bytes: 0,
            nodes_failed: 0,
            nodes_recovered: 0,
            maps_relaunched: 0,
            primaries_seen: BTreeSet::new(),
        }
    }

    /// In windowed mode, doubles the window width (pair-merging every
    /// series) until the window holding `micros` is inside the cap.
    fn ensure_window_for(&mut self, micros: u64) {
        let Some(w) = &mut self.win else { return };
        while micros / w.window_micros >= w.max_windows as u64 {
            w.window_micros = w.window_micros.saturating_mul(2);
            pair_merge(&mut w.jif_window_peak, usize::max);
            pair_merge(&mut self.busy_slot_secs, |a, b| a + b);
            for bits in &mut self.link_bits {
                pair_merge(bits, |a, b| a + b);
            }
        }
    }

    /// Integrates the current step-function state over `[last_t, to)`,
    /// splitting the span across interval buckets (exact mode) or
    /// rolled-up windows (windowed mode).
    fn advance(&mut self, to: SimTime) {
        debug_assert!(to >= self.last_t, "events arrived out of order");
        self.ensure_window_for(to.as_micros());
        let bucket = match &self.win {
            Some(w) => w.window_micros,
            None => self.cfg.bucket.as_micros(),
        };
        let mut cur = self.last_t.as_micros();
        let end = to.as_micros();
        while cur < end {
            let bucket_idx = (cur / bucket) as usize;
            let seg_end = end.min((cur / bucket + 1) * bucket);
            let dt = (seg_end - cur) as f64 / 1e6;
            if self.active_maps > 0 {
                if self.busy_slot_secs.len() <= bucket_idx {
                    self.busy_slot_secs.resize(bucket_idx + 1, 0.0);
                }
                self.busy_slot_secs[bucket_idx] += self.active_maps as f64 * dt;
            }
            for (bits, &rate) in self.link_bits.iter_mut().zip(&self.link_rate) {
                if rate > 0.0 {
                    if bits.len() <= bucket_idx {
                        bits.resize(bucket_idx + 1, 0.0);
                    }
                    bits[bucket_idx] += rate * dt;
                }
            }
            if self.active_fetches > 0 {
                self.fetch_active_secs += dt;
                if self.active_normal_maps > 0 {
                    self.overlap_secs += dt;
                }
            }
            if let Some(w) = &mut self.win {
                // The jobs-in-flight level held throughout this segment.
                if w.jif_window_peak.len() <= bucket_idx {
                    w.jif_window_peak.resize(bucket_idx + 1, 0);
                }
                w.jif_window_peak[bucket_idx] =
                    w.jif_window_peak[bucket_idx].max(self.jobs_in_flight);
            }
            cur = seg_end;
        }
        self.last_t = to;
        self.end_t = self.end_t.max(to);
    }

    /// The summed rate of `link`, growing the per-link vectors on its
    /// first touch.
    fn link_rate_mut(&mut self, link: u32) -> &mut f64 {
        let i = link as usize;
        if self.link_rate.len() <= i {
            self.link_rate.resize(i + 1, 0.0);
            self.link_bits.resize_with(i + 1, Vec::new);
        }
        &mut self.link_rate[i]
    }

    /// Every link that carried traffic, in id order, with its per-bucket
    /// bits.
    fn used_links(&self) -> impl Iterator<Item = (u32, &Vec<f64>)> {
        (0u32..)
            .zip(&self.link_bits)
            .filter(|(_, bits)| !bits.is_empty())
    }

    fn close_attempt(&mut self, key: (u32, u32, bool)) -> Option<Attempt> {
        let attempt = self.attempts.remove(&key)?;
        self.active_maps -= 1;
        if attempt.locality != Locality::Degraded {
            self.active_normal_maps -= 1;
        }
        if attempt.fetch_begin.is_some() {
            // Closed mid-fetch (a cancelled losing attempt).
            self.active_fetches -= 1;
        }
        Some(attempt)
    }

    fn step_jobs_in_flight(&mut self, at: SimTime, delta: isize) {
        self.jobs_in_flight = self.jobs_in_flight.saturating_add_signed(delta);
        self.peak_jobs_in_flight = self.peak_jobs_in_flight.max(self.jobs_in_flight);
        if self.win.is_some() {
            // Bounded form: fold the new level into this window's peak
            // instead of recording the full step function.
            self.ensure_window_for(at.as_micros());
            let level = self.jobs_in_flight;
            let Some(w) = &mut self.win else { return };
            let idx = (at.as_micros() / w.window_micros) as usize;
            if w.jif_window_peak.len() <= idx {
                w.jif_window_peak.resize(idx + 1, 0);
            }
            w.jif_window_peak[idx] = w.jif_window_peak[idx].max(level);
            return;
        }
        let point = (at.as_secs_f64(), self.jobs_in_flight);
        // Coalesce same-timestamp changes into the last value.
        match self.jobs_in_flight_steps.last_mut() {
            Some(last) if last.0 == point.0 => *last = point,
            _ => self.jobs_in_flight_steps.push(point),
        }
    }

    /// Number of elements resident in every growable container. In
    /// windowed mode this is bounded by the window cap plus the number
    /// of *live* entities (attempts, flows, in-flight jobs), so it is
    /// independent of how many events the trace contained; tests assert
    /// that structurally.
    pub fn resident_state_size(&self) -> usize {
        self.busy_slot_secs.len()
            + self
                .used_links()
                .map(|(_, bits)| bits.len() + 1)
                .sum::<usize>()
            + self.link_rate.len()
            + self.attempts.len()
            + self.reduces.len()
            + self.flows.len()
            + self.finished.len()
            + self.job_submitted_at.len()
            + self.job_started_at.len()
            + self.job_latency_secs.len()
            + self.job_queue_delay_secs.len()
            + self.jobs_in_flight_steps.len()
            + self.primaries_seen.len()
            + self.win.as_ref().map_or(0, |w| w.jif_window_peak.len())
    }

    /// Folds the stream into the final report.
    pub fn report(&self) -> AggregateReport {
        match &self.win {
            None => self.report_exact(),
            Some(w) => self.report_windowed(w),
        }
    }

    /// Report from full sample vectors (exact mode).
    fn report_exact(&self) -> AggregateReport {
        let mut fetch_sorted: Vec<f64> = self
            .finished
            .iter()
            .filter_map(|f| match f {
                Finished::Map {
                    locality: Locality::Degraded,
                    fetch_secs,
                    ..
                } => *fetch_secs,
                _ => None,
            })
            .collect();
        fetch_sorted.sort_by(f64::total_cmp);
        let mut latency_sorted = self.job_latency_secs.clone();
        latency_sorted.sort_by(f64::total_cmp);
        let mut queue_sorted = self.job_queue_delay_secs.clone();
        queue_sorted.sort_by(f64::total_cmp);
        let mean = |select: &dyn Fn(&Finished) -> Option<f64>| -> Option<f64> {
            let mut sum = 0.0;
            let mut count = 0usize;
            for f in &self.finished {
                if let Some(x) = select(f) {
                    sum += x;
                    count += 1;
                }
            }
            (count > 0).then(|| sum / count as f64)
        };
        let count_maps = |want: Locality| {
            self.finished
                .iter()
                .filter(|f| matches!(f, Finished::Map { locality, .. } if *locality == want))
                .count()
        };
        let bucket_secs = self.cfg.bucket.as_secs_f64();
        let slot_utilization: Vec<f64> = if self.cfg.total_map_slots == 0 {
            Vec::new()
        } else {
            let denom = self.cfg.total_map_slots as f64 * bucket_secs;
            self.busy_slot_secs.iter().map(|&b| b / denom).collect()
        };
        let link_utilization: Vec<LinkUsage> = self
            .used_links()
            .map(|(link, bits)| {
                let total_bits: f64 = bits.iter().sum();
                let span_secs = bits.len() as f64 * bucket_secs;
                let mean_bps = total_bits / span_secs;
                let peak_bps = bits.iter().fold(0.0f64, |a, &b| a.max(b / bucket_secs));
                let capacity = self.cfg.link_capacities_bps.get(link as usize).copied();
                LinkUsage {
                    link,
                    mean_bps,
                    peak_bps,
                    mean_utilization: capacity.map(|c| mean_bps / c),
                }
            })
            .collect();
        AggregateReport {
            makespan_secs: self.end_t.as_secs_f64(),
            jobs_submitted: self.jobs_submitted,
            jobs_finished: self.jobs_finished,
            maps_node_local: count_maps(Locality::NodeLocal),
            maps_rack_local: count_maps(Locality::RackLocal),
            maps_remote: count_maps(Locality::Remote),
            maps_degraded: count_maps(Locality::Degraded),
            reduces: self
                .finished
                .iter()
                .filter(|f| matches!(f, Finished::Reduce { .. }))
                .count(),
            tasks_queued_degraded: self.tasks_queued_degraded,
            speculative_launches: self.speculative_launches,
            cancelled_attempts: self.cancelled_attempts,
            redundant_fetches_issued: self.redundant_fetches_issued,
            redundant_extra_flows: self.redundant_extra_flows,
            fetch_cancel_wins: self.fetch_cancel_wins,
            redundant_cancelled_bytes: self.redundant_cancelled_bytes,
            nodes_failed: self.nodes_failed,
            nodes_recovered: self.nodes_recovered,
            maps_relaunched: self.maps_relaunched,
            mean_normal_map_secs: mean(&|f| match f {
                Finished::Map {
                    locality,
                    runtime_secs,
                    ..
                } if *locality != Locality::Degraded => Some(*runtime_secs),
                _ => None,
            }),
            mean_degraded_map_secs: mean(&|f| match f {
                Finished::Map {
                    locality: Locality::Degraded,
                    runtime_secs,
                    ..
                } => Some(*runtime_secs),
                _ => None,
            }),
            mean_reduce_secs: mean(&|f| match f {
                Finished::Reduce { runtime_secs } => Some(*runtime_secs),
                _ => None,
            }),
            degraded_read_secs: self
                .finished
                .iter()
                .filter_map(|f| match f {
                    Finished::Map {
                        locality: Locality::Degraded,
                        fetch_secs,
                        ..
                    } => *fetch_secs,
                    _ => None,
                })
                .collect(),
            degraded_read_p50: percentile_opt(&fetch_sorted, 0.50),
            degraded_read_p95: percentile_opt(&fetch_sorted, 0.95),
            degraded_read_p99: percentile_opt(&fetch_sorted, 0.99),
            job_latency_secs: self.job_latency_secs.clone(),
            job_latency_p50: percentile_opt(&latency_sorted, 0.50),
            job_latency_p95: percentile_opt(&latency_sorted, 0.95),
            job_latency_p99: percentile_opt(&latency_sorted, 0.99),
            job_queue_delay_secs: self.job_queue_delay_secs.clone(),
            job_queue_delay_p50: percentile_opt(&queue_sorted, 0.50),
            job_queue_delay_p95: percentile_opt(&queue_sorted, 0.95),
            job_queue_delay_p99: percentile_opt(&queue_sorted, 0.99),
            jobs_in_flight_steps: self.jobs_in_flight_steps.clone(),
            jobs_in_flight_window_peak: Vec::new(),
            peak_jobs_in_flight: self.peak_jobs_in_flight,
            bucket_secs,
            slot_utilization,
            link_utilization,
            overlap_secs: self.overlap_secs,
            degraded_fetch_active_secs: self.fetch_active_secs,
        }
    }

    /// Report from bounded rollups and sketches (windowed mode).
    fn report_windowed(&self, w: &WindowedState) -> AggregateReport {
        let bucket_secs = w.window_micros as f64 / 1e6;
        let slot_utilization: Vec<f64> = if self.cfg.total_map_slots == 0 {
            Vec::new()
        } else {
            let denom = self.cfg.total_map_slots as f64 * bucket_secs;
            self.busy_slot_secs.iter().map(|&b| b / denom).collect()
        };
        let link_utilization: Vec<LinkUsage> = self
            .used_links()
            .map(|(link, bits)| {
                let total_bits: f64 = bits.iter().sum();
                let span_secs = bits.len() as f64 * bucket_secs;
                let mean_bps = total_bits / span_secs;
                let peak_bps = bits.iter().fold(0.0f64, |a, &b| a.max(b / bucket_secs));
                let capacity = self.cfg.link_capacities_bps.get(link as usize).copied();
                LinkUsage {
                    link,
                    mean_bps,
                    peak_bps,
                    mean_utilization: capacity.map(|c| mean_bps / c),
                }
            })
            .collect();
        let mean = |acc: (f64, usize)| (acc.1 > 0).then(|| acc.0 / acc.1 as f64);
        let quantile = |sk: &QuantileSketch, p: f64| sk.quantile(p).ok();
        AggregateReport {
            makespan_secs: self.end_t.as_secs_f64(),
            jobs_submitted: self.jobs_submitted,
            jobs_finished: self.jobs_finished,
            maps_node_local: w.maps_by_locality[0],
            maps_rack_local: w.maps_by_locality[1],
            maps_remote: w.maps_by_locality[2],
            maps_degraded: w.maps_by_locality[3],
            reduces: w.reduces,
            tasks_queued_degraded: self.tasks_queued_degraded,
            speculative_launches: self.speculative_launches,
            cancelled_attempts: self.cancelled_attempts,
            redundant_fetches_issued: self.redundant_fetches_issued,
            redundant_extra_flows: self.redundant_extra_flows,
            fetch_cancel_wins: self.fetch_cancel_wins,
            redundant_cancelled_bytes: self.redundant_cancelled_bytes,
            nodes_failed: self.nodes_failed,
            nodes_recovered: self.nodes_recovered,
            maps_relaunched: self.maps_relaunched,
            mean_normal_map_secs: mean(w.normal_map),
            mean_degraded_map_secs: mean(w.degraded_map),
            mean_reduce_secs: mean(w.reduce_runtime),
            // Per-sample vectors are not retained in windowed mode.
            degraded_read_secs: Vec::new(),
            degraded_read_p50: quantile(&w.fetch_sketch, 0.50),
            degraded_read_p95: quantile(&w.fetch_sketch, 0.95),
            degraded_read_p99: quantile(&w.fetch_sketch, 0.99),
            job_latency_secs: Vec::new(),
            job_latency_p50: quantile(&w.latency_sketch, 0.50),
            job_latency_p95: quantile(&w.latency_sketch, 0.95),
            job_latency_p99: quantile(&w.latency_sketch, 0.99),
            job_queue_delay_secs: Vec::new(),
            job_queue_delay_p50: quantile(&w.queue_sketch, 0.50),
            job_queue_delay_p95: quantile(&w.queue_sketch, 0.95),
            job_queue_delay_p99: quantile(&w.queue_sketch, 0.99),
            jobs_in_flight_steps: Vec::new(),
            jobs_in_flight_window_peak: w.jif_window_peak.clone(),
            peak_jobs_in_flight: self.peak_jobs_in_flight,
            bucket_secs,
            slot_utilization,
            link_utilization,
            overlap_secs: self.overlap_secs,
            degraded_fetch_active_secs: self.fetch_active_secs,
        }
    }
}

fn percentile_opt(sorted: &[f64], p: f64) -> Option<f64> {
    // `p` is a compile-time constant here, so the only error path is an
    // empty sample, which maps to `None`.
    percentile_sorted(sorted, p).ok()
}

impl EventSink for Aggregator {
    fn record(&mut self, at: SimTime, event: &SimEvent) {
        self.advance(at);
        match *event {
            SimEvent::JobSubmitted { job, .. } => {
                self.jobs_submitted += 1;
                self.job_submitted_at.entry(job).or_insert(at);
                self.step_jobs_in_flight(at, 1);
            }
            SimEvent::JobStarted { job } => {
                // First launch only: queueing delay is submit → first start.
                if let std::collections::btree_map::Entry::Vacant(e) =
                    self.job_started_at.entry(job)
                {
                    e.insert(at);
                    if let Some(&submitted) = self.job_submitted_at.get(&job) {
                        let delay = at.duration_since(submitted).as_secs_f64();
                        match &mut self.win {
                            // Durations are finite by construction.
                            Some(w) => drop(w.queue_sketch.record(delay)),
                            None => self.job_queue_delay_secs.push(delay),
                        }
                    }
                }
            }
            SimEvent::JobFinished { job } => {
                self.jobs_finished += 1;
                if let Some(&submitted) = self.job_submitted_at.get(&job) {
                    let latency = at.duration_since(submitted).as_secs_f64();
                    match &mut self.win {
                        Some(w) => drop(w.latency_sketch.record(latency)),
                        None => self.job_latency_secs.push(latency),
                    }
                }
                self.step_jobs_in_flight(at, -1);
                if self.win.is_some() {
                    // Bounded memory: a finished job's bookkeeping (and
                    // its tasks' relaunch markers) is never needed again.
                    self.job_submitted_at.remove(&job);
                    self.job_started_at.remove(&job);
                    let stale: Vec<(u32, u32)> = self
                        .primaries_seen
                        .range((job, 0)..=(job, u32::MAX))
                        .copied()
                        .collect();
                    for key in stale {
                        self.primaries_seen.remove(&key);
                    }
                }
            }
            SimEvent::TaskQueued { degraded, .. } => {
                if degraded {
                    self.tasks_queued_degraded += 1;
                }
            }
            SimEvent::MapLaunched {
                job,
                task,
                locality,
                speculative,
                ..
            } => {
                self.active_maps += 1;
                if locality != Locality::Degraded {
                    self.active_normal_maps += 1;
                }
                if speculative {
                    self.speculative_launches += 1;
                } else if !self.primaries_seen.insert((job, task)) {
                    // A second primary launch of the same task: churn
                    // re-executed work lost to a failed node.
                    self.maps_relaunched += 1;
                }
                self.attempts.insert(
                    (job, task, speculative),
                    Attempt {
                        launched_at: at,
                        locality,
                        fetch_begin: None,
                        fetch_secs: None,
                    },
                );
            }
            SimEvent::PhaseBegin {
                job,
                task,
                speculative,
                phase,
                ..
            } => {
                if phase == DegradedPhase::FetchK {
                    if let Some(a) = self.attempts.get_mut(&(job, task, speculative)) {
                        a.fetch_begin = Some(at);
                        self.active_fetches += 1;
                    }
                }
            }
            SimEvent::PhaseEnd {
                job,
                task,
                speculative,
                phase,
                ..
            } => {
                if phase == DegradedPhase::FetchK {
                    if let Some(a) = self.attempts.get_mut(&(job, task, speculative)) {
                        if let Some(begin) = a.fetch_begin.take() {
                            a.fetch_secs = Some(at.duration_since(begin).as_secs_f64());
                            self.active_fetches -= 1;
                        }
                    }
                }
            }
            SimEvent::MapDone {
                job,
                task,
                locality,
                speculative,
                ..
            } => {
                if let Some(a) = self.close_attempt((job, task, speculative)) {
                    let runtime_secs = at.duration_since(a.launched_at).as_secs_f64();
                    match &mut self.win {
                        Some(w) => {
                            w.maps_by_locality[locality_index(locality)] += 1;
                            if locality == Locality::Degraded {
                                w.degraded_map.0 += runtime_secs;
                                w.degraded_map.1 += 1;
                                if let Some(fetch) = a.fetch_secs {
                                    let _ = w.fetch_sketch.record(fetch);
                                }
                            } else {
                                w.normal_map.0 += runtime_secs;
                                w.normal_map.1 += 1;
                            }
                        }
                        None => self.finished.push(Finished::Map {
                            locality,
                            runtime_secs,
                            fetch_secs: a.fetch_secs,
                        }),
                    }
                }
            }
            SimEvent::MapCancelled {
                job,
                task,
                speculative,
                ..
            } => {
                if self.close_attempt((job, task, speculative)).is_some() {
                    self.cancelled_attempts += 1;
                }
            }
            SimEvent::DegradedPlan { .. } => {}
            SimEvent::RedundantFetchIssued { extra, .. } => {
                self.redundant_fetches_issued += 1;
                self.redundant_extra_flows += extra as usize;
            }
            SimEvent::FetchCancelled { flow, .. } => {
                self.fetch_cancel_wins += 1;
                // The engine emits this before the flow's cancelled
                // `flow_finished`, so the byte count is still live.
                if let Some(&(_, _, bytes)) = self.flows.get(&flow) {
                    self.redundant_cancelled_bytes += bytes;
                }
            }
            SimEvent::ReduceLaunched { job, index, .. } => {
                self.reduces.insert((job, index), at);
            }
            SimEvent::ReduceShuffled { .. } => {}
            SimEvent::ReduceDone { job, index, .. } => {
                if let Some(launched) = self.reduces.remove(&(job, index)) {
                    let runtime_secs = at.duration_since(launched).as_secs_f64();
                    match &mut self.win {
                        Some(w) => {
                            w.reduces += 1;
                            w.reduce_runtime.0 += runtime_secs;
                            w.reduce_runtime.1 += 1;
                        }
                        None => self.finished.push(Finished::Reduce { runtime_secs }),
                    }
                }
            }
            SimEvent::FlowStarted {
                flow, links, bytes, ..
            } => {
                self.flows.insert(flow, (links, 0.0, bytes));
            }
            SimEvent::FlowRate { flow, rate_bps } => {
                if let Some((links, rate, _)) = self.flows.get_mut(&flow) {
                    let (links, old) = (*links, *rate);
                    *rate = rate_bps;
                    for &link in links.as_slice() {
                        let sum = self.link_rate_mut(link);
                        *sum = (*sum + rate_bps - old).max(0.0);
                    }
                }
            }
            SimEvent::FlowFinished { flow, .. } => {
                if let Some((links, rate, _)) = self.flows.remove(&flow) {
                    for &link in links.as_slice() {
                        let sum = self.link_rate_mut(link);
                        *sum = (*sum - rate).max(0.0);
                    }
                }
            }
            SimEvent::NodeFailed { .. } => self.nodes_failed += 1,
            SimEvent::NodeRecovered { .. } => self.nodes_recovered += 1,
            SimEvent::RepairStarted { .. } | SimEvent::RepairFinished { .. } => {}
        }
    }
}

/// Usage summary of one network link.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkUsage {
    /// Link index.
    pub link: u32,
    /// Mean throughput over the observed span, bit/s.
    pub mean_bps: f64,
    /// Highest per-bucket mean throughput, bit/s.
    pub peak_bps: f64,
    /// `mean_bps / capacity`, when the capacity is known.
    pub mean_utilization: Option<f64>,
}

/// Everything the aggregator derives from one traced run.
#[derive(Clone, Debug, PartialEq)]
pub struct AggregateReport {
    /// Timestamp of the last event, seconds.
    pub makespan_secs: f64,
    /// Jobs submitted.
    pub jobs_submitted: usize,
    /// Jobs that finished.
    pub jobs_finished: usize,
    /// Completed maps launched node-local.
    pub maps_node_local: usize,
    /// Completed maps launched rack-local.
    pub maps_rack_local: usize,
    /// Completed maps launched remote.
    pub maps_remote: usize,
    /// Completed maps launched degraded.
    pub maps_degraded: usize,
    /// Completed reduce tasks.
    pub reduces: usize,
    /// Map tasks that entered the queue needing a degraded read.
    pub tasks_queued_degraded: usize,
    /// Speculative (backup) attempts launched.
    pub speculative_launches: usize,
    /// Attempts cancelled after losing to the other attempt.
    pub cancelled_attempts: usize,
    /// Degraded reads that issued redundant (beyond-k) source fetches.
    pub redundant_fetches_issued: usize,
    /// Extra network flows issued beyond the decode quorum, summed over
    /// all redundant degraded reads.
    pub redundant_extra_flows: usize,
    /// In-flight fetch flows cancelled because the decode quorum
    /// completed first (the redundant policy's "wins").
    pub fetch_cancel_wins: usize,
    /// Requested bytes of the cancelled straggler fetches — the traffic
    /// the redundant policy paid for and then abandoned.
    pub redundant_cancelled_bytes: u64,
    /// Node failures observed.
    pub nodes_failed: usize,
    /// Node recoveries observed (mid-run churn).
    pub nodes_recovered: usize,
    /// Primary map attempts launched again after a node failure killed
    /// the first launch or destroyed its output (churn re-execution).
    pub maps_relaunched: usize,
    /// Mean runtime of completed non-degraded maps, seconds.
    pub mean_normal_map_secs: Option<f64>,
    /// Mean runtime of completed degraded maps, seconds.
    pub mean_degraded_map_secs: Option<f64>,
    /// Mean runtime of completed reduces, seconds.
    pub mean_reduce_secs: Option<f64>,
    /// Winner fetch durations (degraded read times), completion order —
    /// the Figure 8(b) samples.
    pub degraded_read_secs: Vec<f64>,
    /// Median degraded read time, seconds.
    pub degraded_read_p50: Option<f64>,
    /// 95th-percentile degraded read time, seconds.
    pub degraded_read_p95: Option<f64>,
    /// 99th-percentile degraded read time, seconds.
    pub degraded_read_p99: Option<f64>,
    /// Per-job completion latency (submit → finish), seconds, in
    /// completion order — turnaround as the paper's Figure 7(f) users
    /// experience it.
    pub job_latency_secs: Vec<f64>,
    /// Median job completion latency, seconds.
    pub job_latency_p50: Option<f64>,
    /// 95th-percentile job completion latency, seconds.
    pub job_latency_p95: Option<f64>,
    /// 99th-percentile job completion latency, seconds.
    pub job_latency_p99: Option<f64>,
    /// Per-job queueing delay (submit → first task launch), seconds,
    /// in first-launch order.
    pub job_queue_delay_secs: Vec<f64>,
    /// Median job queueing delay, seconds.
    pub job_queue_delay_p50: Option<f64>,
    /// 95th-percentile job queueing delay, seconds.
    pub job_queue_delay_p95: Option<f64>,
    /// 99th-percentile job queueing delay, seconds.
    pub job_queue_delay_p99: Option<f64>,
    /// Step function of jobs concurrently in flight (submitted but not
    /// finished): `(timestamp_secs, count after the change)`, with
    /// same-timestamp changes coalesced. Empty in windowed mode.
    pub jobs_in_flight_steps: Vec<(f64, usize)>,
    /// Windowed mode's bounded substitute for the step function: the
    /// peak jobs-in-flight level per rollup window. Empty in exact mode.
    pub jobs_in_flight_window_peak: Vec<usize>,
    /// Highest number of jobs simultaneously in flight.
    pub peak_jobs_in_flight: usize,
    /// Interval width used for the utilization series, seconds.
    pub bucket_secs: f64,
    /// Per-interval map-slot utilization in `[0, 1]` (empty when the
    /// config gave no slot count).
    pub slot_utilization: Vec<f64>,
    /// Per-link usage, ascending link index; only links that carried
    /// traffic appear.
    pub link_utilization: Vec<LinkUsage>,
    /// Seconds during which a degraded fetch and a normal map ran
    /// concurrently — degraded-first's exploited window.
    pub overlap_secs: f64,
    /// Seconds during which at least one degraded fetch was active.
    pub degraded_fetch_active_secs: f64,
}

impl AggregateReport {
    /// Fraction of degraded-fetch time overlapped with normal map work.
    pub fn overlap_fraction(&self) -> Option<f64> {
        (self.degraded_fetch_active_secs > 0.0)
            .then(|| self.overlap_secs / self.degraded_fetch_active_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg() -> Aggregator {
        Aggregator::new(AggregatorConfig {
            bucket: SimDuration::from_secs(10),
            total_map_slots: 2,
            link_capacities_bps: vec![1e9, 1e9],
            mode: AggregatorMode::Exact,
        })
    }

    fn windowed(window_secs: u64, max_windows: usize) -> Aggregator {
        Aggregator::new(AggregatorConfig {
            bucket: SimDuration::from_secs(10),
            total_map_slots: 2,
            link_capacities_bps: vec![1e9, 1e9],
            mode: AggregatorMode::Windowed {
                window_secs,
                max_windows,
            },
        })
    }

    fn launch(job: u32, task: u32, locality: Locality) -> SimEvent {
        SimEvent::MapLaunched {
            job,
            task,
            node: 0,
            locality,
            speculative: false,
        }
    }

    fn done(job: u32, task: u32, locality: Locality) -> SimEvent {
        SimEvent::MapDone {
            job,
            task,
            node: 0,
            locality,
            speculative: false,
        }
    }

    fn phase(job: u32, task: u32, begin: bool) -> SimEvent {
        let (node, speculative, phase) = (0, false, DegradedPhase::FetchK);
        if begin {
            SimEvent::PhaseBegin {
                job,
                task,
                node,
                speculative,
                phase,
            }
        } else {
            SimEvent::PhaseEnd {
                job,
                task,
                node,
                speculative,
                phase,
            }
        }
    }

    #[test]
    fn counts_and_means_follow_completion_order() {
        let mut a = agg();
        let t = SimTime::from_secs;
        a.record(t(0), &launch(0, 0, Locality::NodeLocal));
        a.record(t(0), &launch(0, 1, Locality::Degraded));
        a.record(t(0), &phase(0, 1, true));
        a.record(t(15), &phase(0, 1, false));
        a.record(t(20), &done(0, 0, Locality::NodeLocal));
        a.record(t(35), &done(0, 1, Locality::Degraded));
        let r = a.report();
        assert_eq!(r.maps_node_local, 1);
        assert_eq!(r.maps_degraded, 1);
        assert_eq!(r.mean_normal_map_secs, Some(20.0));
        assert_eq!(r.mean_degraded_map_secs, Some(35.0));
        assert_eq!(r.degraded_read_secs, vec![15.0]);
        assert_eq!(r.degraded_read_p50, Some(15.0));
        assert_eq!(r.makespan_secs, 35.0);
    }

    #[test]
    fn slot_utilization_integrates_step_function() {
        let mut a = agg();
        let t = SimTime::from_secs;
        // Two maps busy for [0, 5), one for [5, 20): bucket 0 (10s wide,
        // 2 slots) holds 2*5 + 1*5 = 15 busy-slot-seconds of 20 → 0.75.
        a.record(t(0), &launch(0, 0, Locality::NodeLocal));
        a.record(t(0), &launch(0, 1, Locality::NodeLocal));
        a.record(t(5), &done(0, 0, Locality::NodeLocal));
        a.record(t(20), &done(0, 1, Locality::NodeLocal));
        let r = a.report();
        assert_eq!(r.slot_utilization, vec![0.75, 0.5]);
    }

    #[test]
    fn overlap_requires_both_kinds_active() {
        let mut a = agg();
        let t = SimTime::from_secs;
        a.record(t(0), &launch(0, 0, Locality::Degraded));
        a.record(t(0), &phase(0, 0, true));
        // Normal map joins at t=4, fetch ends at t=10.
        a.record(t(4), &launch(0, 1, Locality::NodeLocal));
        a.record(t(10), &phase(0, 0, false));
        a.record(t(12), &done(0, 0, Locality::Degraded));
        a.record(t(12), &done(0, 1, Locality::NodeLocal));
        let r = a.report();
        assert_eq!(r.degraded_fetch_active_secs, 10.0);
        assert_eq!(r.overlap_secs, 6.0);
        assert_eq!(r.overlap_fraction(), Some(0.6));
    }

    #[test]
    fn link_bits_accumulate_per_bucket() {
        let mut a = agg();
        let t = SimTime::from_secs;
        a.record(
            t(0),
            &SimEvent::FlowStarted {
                flow: 1,
                src: 0,
                dst: 1,
                bytes: 0,
                links: LinkSet::from_slice(&[0, 1]),
            },
        );
        a.record(
            t(0),
            &SimEvent::FlowRate {
                flow: 1,
                rate_bps: 1e9,
            },
        );
        a.record(
            t(5),
            &SimEvent::FlowFinished {
                flow: 1,
                cancelled: false,
            },
        );
        // Force integration past the flow's lifetime.
        a.record(t(10), &SimEvent::NodeFailed { node: 0 });
        let r = a.report();
        let l0 = &r.link_utilization[0];
        assert_eq!(l0.link, 0);
        // 5e9 bits over one 10s bucket → 5e8 mean, 50% of 1 Gb/s.
        assert_eq!(l0.mean_bps, 5e8);
        assert_eq!(l0.mean_utilization, Some(0.5));
        assert_eq!(l0.peak_bps, 5e8);
    }

    #[test]
    fn sparse_link_ids_report_only_links_that_carried_traffic() {
        // Flow 1 crosses links 700 and 2 at 4e8 over [0, 15); flow 3
        // joins link 2 at 6e8 over [5, 20); flow 2 sits on link 5 at
        // rate 0 throughout. 10 s buckets.
        let record = |a: &mut Aggregator| {
            let t = SimTime::from_secs;
            let start = |flow, links: &[u32]| SimEvent::FlowStarted {
                flow,
                src: 0,
                dst: 1,
                bytes: 0,
                links: LinkSet::from_slice(links),
            };
            let rate = |flow, rate_bps| SimEvent::FlowRate { flow, rate_bps };
            let finish = |flow| SimEvent::FlowFinished {
                flow,
                cancelled: false,
            };
            a.record(t(0), &start(1, &[700, 2]));
            a.record(t(0), &rate(1, 4e8));
            a.record(t(0), &start(2, &[5]));
            a.record(t(0), &rate(2, 0.0));
            a.record(t(0), &start(3, &[2]));
            a.record(t(5), &rate(3, 6e8));
            a.record(t(15), &finish(1));
            a.record(t(20), &finish(3));
            a.record(t(20), &finish(2));
        };
        for (label, mut a) in [("exact", agg()), ("windowed", windowed(10, 64))] {
            record(&mut a);
            let links = a.report().link_utilization;
            let ids: Vec<u32> = links.iter().map(|l| l.link).collect();
            assert_eq!(ids, [2, 700], "{label}");
            // Link 2: buckets of 2e9 + 5e9 and 5e9 + 3e9 bits.
            assert_eq!(links[0].mean_bps, 7.5e8, "{label}");
            assert_eq!(links[0].peak_bps, 8e8, "{label}");
            // Link 700: buckets of 4e9 and 2e9 bits.
            assert_eq!(links[1].mean_bps, 3e8, "{label}");
            assert_eq!(links[1].peak_bps, 4e8, "{label}");
            // Neither id has a configured capacity.
            assert!(links.iter().all(|l| l.mean_utilization.is_none()));
        }
    }

    #[test]
    fn per_job_latency_queueing_and_in_flight() {
        let mut a = agg();
        let t = SimTime::from_secs;
        let submit = |job| SimEvent::JobSubmitted {
            job,
            maps: 1,
            reduces: 0,
        };
        a.record(t(0), &submit(0));
        a.record(t(5), &SimEvent::JobStarted { job: 0 });
        // A relaunch must not add a second queue-delay sample.
        a.record(t(6), &SimEvent::JobStarted { job: 0 });
        a.record(t(10), &submit(1));
        a.record(t(30), &SimEvent::JobStarted { job: 1 });
        a.record(t(40), &SimEvent::JobFinished { job: 0 });
        a.record(t(90), &SimEvent::JobFinished { job: 1 });
        let r = a.report();
        assert_eq!(r.job_queue_delay_secs, vec![5.0, 20.0]);
        assert_eq!(r.job_latency_secs, vec![40.0, 80.0]);
        assert_eq!(r.job_latency_p50, Some(60.0));
        assert_eq!(r.job_queue_delay_p99, Some(5.0 + (20.0 - 5.0) * 0.99));
        assert_eq!(r.peak_jobs_in_flight, 2);
        assert_eq!(
            r.jobs_in_flight_steps,
            vec![(0.0, 1), (10.0, 2), (40.0, 1), (90.0, 0)]
        );
    }

    #[test]
    fn windowed_matches_exact_when_no_rollup_happens() {
        // window width == exact bucket width, enough windows: the
        // integrated series must be identical, and counts/means agree.
        let mut exact = agg();
        let mut win = windowed(10, 1024);
        let t = SimTime::from_secs;
        let events = [
            (0, launch(0, 0, Locality::NodeLocal)),
            (0, launch(0, 1, Locality::Degraded)),
            (0, phase(0, 1, true)),
            (15, phase(0, 1, false)),
            (20, done(0, 0, Locality::NodeLocal)),
            (35, done(0, 1, Locality::Degraded)),
        ];
        for (secs, ev) in &events {
            exact.record(t(*secs), ev);
            win.record(t(*secs), ev);
        }
        let re = exact.report();
        let rw = win.report();
        assert_eq!(rw.slot_utilization, re.slot_utilization);
        assert_eq!(rw.bucket_secs, re.bucket_secs);
        assert_eq!(rw.maps_node_local, re.maps_node_local);
        assert_eq!(rw.maps_degraded, re.maps_degraded);
        assert_eq!(rw.mean_normal_map_secs, re.mean_normal_map_secs);
        assert_eq!(rw.mean_degraded_map_secs, re.mean_degraded_map_secs);
        assert_eq!(rw.overlap_secs, re.overlap_secs);
        assert_eq!(rw.makespan_secs, re.makespan_secs);
        // One degraded fetch of 15 s: the sketch median must sit within
        // its documented relative error of the exact sample.
        let (e50, w50) = (re.degraded_read_p50.unwrap(), rw.degraded_read_p50.unwrap());
        assert!((w50 - e50).abs() <= e50 * QuantileSketch::RELATIVE_ERROR);
    }

    #[test]
    fn windowed_rolls_up_instead_of_growing() {
        // 4 windows of 1 s, but activity spanning 64 s: widths double
        // until everything fits, and totals are preserved.
        let mut a = windowed(1, 4);
        let t = SimTime::from_secs;
        a.record(t(0), &launch(0, 0, Locality::NodeLocal));
        a.record(t(64), &done(0, 0, Locality::NodeLocal));
        let r = a.report();
        assert!(r.slot_utilization.len() <= 4, "{:?}", r.slot_utilization);
        // 64 busy-slot-seconds total, regardless of rollup.
        let busy: f64 = r
            .slot_utilization
            .iter()
            .map(|u| u * 2.0 * r.bucket_secs)
            .sum();
        assert!((busy - 64.0).abs() < 1e-9, "{busy}");
        // Width doubled from 1 s to a power of two >= 16 s.
        assert!(r.bucket_secs >= 16.0);
    }

    #[test]
    fn windowed_resident_state_is_independent_of_event_count() {
        // Structural bounded-memory check: after N jobs and after 20·N
        // jobs the resident footprint is identical, because every
        // per-sample record is a fixed-size sketch/counter and finished
        // jobs are drained.
        let run = |jobs: u32| -> usize {
            let mut a = windowed(10, 8);
            let t = SimTime::from_secs;
            for j in 0..jobs {
                let base = u64::from(j) * 40;
                a.record(
                    t(base),
                    &SimEvent::JobSubmitted {
                        job: j,
                        maps: 1,
                        reduces: 0,
                    },
                );
                a.record(t(base + 1), &SimEvent::JobStarted { job: j });
                a.record(t(base + 1), &launch(j, 0, Locality::Degraded));
                a.record(t(base + 1), &phase(j, 0, true));
                a.record(t(base + 5), &phase(j, 0, false));
                a.record(t(base + 20), &done(j, 0, Locality::Degraded));
                a.record(t(base + 21), &SimEvent::JobFinished { job: j });
            }
            a.resident_state_size()
        };
        let small = run(25);
        let large = run(500);
        // All jobs finished and drained, so the only resident elements
        // are the two rollup rings, each capped at max_windows = 8.
        // The bound comes from the config, not from the event count.
        assert!(small <= 16, "resident {small} exceeds the window cap");
        assert!(large <= 16, "resident {large} exceeds the window cap");
        assert!(
            large <= small + 2,
            "windowed aggregator state grew with event count: {small} -> {large}"
        );
        // And the exact aggregator does grow, so the assertion above is
        // actually discriminating.
        let run_exact = |jobs: u32| -> usize {
            let mut a = agg();
            let t = SimTime::from_secs;
            for j in 0..jobs {
                let base = u64::from(j) * 40;
                a.record(
                    t(base),
                    &SimEvent::JobSubmitted {
                        job: j,
                        maps: 1,
                        reduces: 0,
                    },
                );
                a.record(t(base + 21), &SimEvent::JobFinished { job: j });
            }
            a.resident_state_size()
        };
        assert!(run_exact(500) > run_exact(25));
    }

    #[test]
    fn windowed_jobs_in_flight_peaks_track_levels() {
        let mut a = windowed(10, 64);
        let t = SimTime::from_secs;
        let submit = |job| SimEvent::JobSubmitted {
            job,
            maps: 1,
            reduces: 0,
        };
        a.record(t(0), &submit(0));
        a.record(t(5), &submit(1));
        a.record(t(12), &SimEvent::JobFinished { job: 0 });
        a.record(t(35), &SimEvent::JobFinished { job: 1 });
        let r = a.report();
        assert_eq!(r.peak_jobs_in_flight, 2);
        assert!(r.jobs_in_flight_steps.is_empty());
        // Window 0 saw 2 concurrent jobs, window 1 still had 2 at entry
        // (until t=12), window 2-3 had 1.
        assert_eq!(r.jobs_in_flight_window_peak, vec![2, 2, 1, 1]);
    }

    #[test]
    fn redundant_fetch_counters_attribute_cancelled_bytes() {
        let mut a = agg();
        let t = SimTime::from_secs;
        a.record(t(0), &launch(0, 0, Locality::Degraded));
        a.record(
            t(0),
            &SimEvent::RedundantFetchIssued {
                job: 0,
                task: 0,
                node: 0,
                speculative: false,
                extra: 2,
            },
        );
        for flow in [1u64, 2] {
            a.record(
                t(0),
                &SimEvent::FlowStarted {
                    flow,
                    src: 1,
                    dst: 0,
                    bytes: 1 << 20,
                    links: LinkSet::from_slice(&[0]),
                },
            );
        }
        // Quorum reached: flow 2 is cancelled, flow 1 won.
        a.record(
            t(4),
            &SimEvent::FetchCancelled {
                job: 0,
                task: 0,
                node: 0,
                speculative: false,
                flow: 2,
            },
        );
        a.record(
            t(4),
            &SimEvent::FlowFinished {
                flow: 2,
                cancelled: true,
            },
        );
        a.record(
            t(4),
            &SimEvent::FlowFinished {
                flow: 1,
                cancelled: false,
            },
        );
        let r = a.report();
        assert_eq!(r.redundant_fetches_issued, 1);
        assert_eq!(r.redundant_extra_flows, 2);
        assert_eq!(r.fetch_cancel_wins, 1);
        assert_eq!(r.redundant_cancelled_bytes, 1 << 20);
    }

    #[test]
    fn cancelled_attempt_mid_fetch_keeps_state_balanced() {
        let mut a = agg();
        let t = SimTime::from_secs;
        a.record(t(0), &launch(0, 0, Locality::Degraded));
        a.record(t(0), &phase(0, 0, true));
        a.record(
            t(3),
            &SimEvent::MapCancelled {
                job: 0,
                task: 0,
                node: 0,
                speculative: false,
            },
        );
        assert_eq!(a.active_fetches, 0);
        assert_eq!(a.active_maps, 0);
        let r = a.report();
        assert_eq!(r.cancelled_attempts, 1);
        assert_eq!(r.maps_degraded, 0);
        assert_eq!(r.degraded_fetch_active_secs, 3.0);
    }
}
