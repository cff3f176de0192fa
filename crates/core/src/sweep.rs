//! Multi-seed sampling: the paper reports each configuration as a
//! boxplot over 30 randomized runs; this module fans those runs out
//! across threads and summarizes them. [`par_map`] is the workspace's
//! one thread pool; the `sweep` crate runs its shards on it too.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use simkit::stats::{percentile_sorted, Boxplot, StatsError, Summary};

/// Summary of a multi-seed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// One value per seed, in seed order.
    pub samples: Vec<f64>,
}

impl SweepSummary {
    /// Wraps raw samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn new(samples: Vec<f64>) -> SweepSummary {
        assert!(!samples.is_empty(), "empty sweep");
        SweepSummary { samples }
    }

    /// The sample mean.
    pub fn mean(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// The sample median. Total-order sorting keeps this well-defined
    /// even if a run produced a NaN sample; use [`SweepSummary::summary`]
    /// when such samples must be rejected instead.
    pub fn median(&self) -> f64 {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        percentile_sorted(&sorted, 0.50).expect("non-empty by constructor")
    }

    /// Five-number summary.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NonFinite`] if any sample is NaN or
    /// infinite (the constructor guarantees non-emptiness).
    pub fn summary(&self) -> Result<Summary, StatsError> {
        Summary::from_samples(&self.samples)
    }

    /// Boxplot (1.5·IQR whiskers), the paper's plotted form.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SweepSummary::summary`].
    pub fn boxplot(&self) -> Result<Boxplot, StatsError> {
        Boxplot::from_samples(&self.samples)
    }

    /// Mean relative reduction versus a baseline sweep, seed by seed —
    /// how the paper quotes "EDF reduces the runtime of LF by X%".
    ///
    /// # Panics
    ///
    /// Panics if the sweeps have different lengths.
    pub fn mean_reduction_vs(&self, baseline: &SweepSummary) -> f64 {
        assert_eq!(
            self.samples.len(),
            baseline.samples.len(),
            "sweeps cover different seed sets"
        );
        let reductions: Vec<f64> = self
            .samples
            .iter()
            .zip(&baseline.samples)
            .map(|(s, b)| (b - s) / b)
            .collect();
        reductions.iter().sum::<f64>() / reductions.len() as f64
    }
}

/// Runs `f(i)` for every `i` in `0..len` on up to `threads` scoped
/// worker threads and returns the results in index order. Workers claim
/// indices from a shared atomic cursor and store each result in its own
/// pre-allocated slot, so the output is independent of thread count,
/// scheduling and finish order.
///
/// # Panics
///
/// Re-raises a panic of `f` once every worker has joined.
pub fn par_map<R, F>(len: usize, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..len).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(len).max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                let result = f(i);
                // A poisoned slot only means another worker panicked
                // mid-store; the stored value is still ours to replace.
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("a worker filled every slot")
        })
        .collect()
}

/// Runs `f(seed)` for every seed in `0..count`, in parallel across
/// available cores, preserving seed order. Seeds whose run fails (e.g. a
/// random failure scenario that destroys a stripe) are skipped — `f`
/// returns `Option<f64>` — and the summary covers the surviving seeds;
/// the paper's 30 "random configurations" likewise only include valid
/// ones.
///
/// # Panics
///
/// Panics if every seed fails.
pub fn sweep_seeds<F>(count: u64, f: F) -> SweepSummary
where
    F: Fn(u64) -> Option<f64> + Sync,
{
    sweep_seeds_vec(count, |seed| f(seed).map(|v| vec![v])).remove(0)
}

/// Like [`sweep_seeds`] but each seed yields a *vector* of values (e.g.
/// one per policy, sharing a single normal-mode baseline run). Returns
/// one [`SweepSummary`] per vector position. Seeds returning `None` are
/// skipped for every position.
///
/// # Panics
///
/// Panics if every seed fails, or if seeds return vectors of differing
/// lengths.
pub fn sweep_seeds_vec<F>(count: u64, f: F) -> Vec<SweepSummary>
where
    F: Fn(u64) -> Option<Vec<f64>> + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let rows: Vec<Vec<f64>> = par_map(count as usize, threads, |i| f(i as u64))
        .into_iter()
        .flatten()
        .collect();
    assert!(!rows.is_empty(), "every seed failed");
    let width = rows[0].len();
    assert!(
        rows.iter().all(|r| r.len() == width),
        "seeds returned vectors of different lengths"
    );
    (0..width)
        .map(|i| SweepSummary::new(rows.iter().map(|r| r[i]).collect()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_keeps_index_order_at_any_thread_count() {
        let squares: Vec<usize> = (0..50).map(|i| i * i).collect();
        for threads in [0, 1, 3, 8] {
            assert_eq!(
                par_map(50, threads, |i| i * i),
                squares,
                "{threads} threads"
            );
        }
        assert!(par_map(0, 4, |i| i).is_empty());
    }

    #[test]
    fn sweep_vec_transposes() {
        let sweeps = sweep_seeds_vec(4, |seed| Some(vec![seed as f64, seed as f64 * 10.0]));
        assert_eq!(sweeps.len(), 2);
        assert_eq!(sweeps[0].samples, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(sweeps[1].samples, vec![0.0, 10.0, 20.0, 30.0]);
    }

    #[test]
    fn sweep_vec_skips_failed_seeds() {
        let sweeps = sweep_seeds_vec(4, |seed| (seed != 1).then(|| vec![seed as f64]));
        assert_eq!(sweeps[0].samples, vec![0.0, 2.0, 3.0]);
    }

    #[test]
    fn sweep_preserves_seed_order() {
        let s = sweep_seeds(16, |seed| Some(seed as f64));
        assert_eq!(s.samples, (0..16).map(|i| i as f64).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_skips_failures() {
        let s = sweep_seeds(10, |seed| (seed % 2 == 0).then_some(seed as f64));
        assert_eq!(s.samples, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "every seed failed")]
    fn sweep_rejects_total_failure() {
        let _ = sweep_seeds(3, |_| None);
    }

    #[test]
    fn summary_statistics() {
        let s = SweepSummary::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.summary().unwrap().count, 4);
        let b = s.boxplot().unwrap();
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn reduction_vs_baseline() {
        let baseline = SweepSummary::new(vec![10.0, 20.0]);
        let improved = SweepSummary::new(vec![8.0, 15.0]);
        // (0.2 + 0.25) / 2
        assert!((improved.mean_reduction_vs(&baseline) - 0.225).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different seed sets")]
    fn reduction_requires_matching_lengths() {
        let a = SweepSummary::new(vec![1.0]);
        let b = SweepSummary::new(vec![1.0, 2.0]);
        let _ = a.mean_reduction_vs(&b);
    }
}
