//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of
//! percent over minutes and by up to a factor of two over hours, in
//! CPU time as much as in wall time: other tenants share the caches,
//! the memory system and sibling hardware threads. A raw timing mixes
//! that drift into the program's own cost.
//!
//! So every timed section is bracketed by two samples of a fixed
//! calibration kernel, and its time is reported at the *reference*
//! speed: `raw × REFERENCE_S / calibration`, with the calibration time
//! the mean of the two samples. The kernel belongs to the benchmark,
//! not to the program, so a change to the program moves the scaled
//! time exactly as it moves the raw time; only the host's drift is
//! divided out. The kernel sorts 16 MB of pseudo-random integers: of
//! the kernels tried (sorts of 3.2 and 16 MB, a 16 MB pointer chase,
//! hash maps of 200k and 1M entries, floating-point loops), its cache
//! misses and branch mispredictions tracked the simulator's slow-downs
//! most closely.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seconds one calibration kernel takes at the reference speed: about
/// what it takes on a quiet 2-vCPU Xeon development host.
pub const REFERENCE_S: f64 = 0.050;

/// Integers sorted per kernel run (16 MB, larger than a core's L2 and
/// about the 1k workloads' working set).
const SORT_LEN: usize = 2_000_000;

/// Kernel runs per thread in one sample; the sample is their median.
const REPS: usize = 3;

/// How long a calibration sample stays usable as the next section's
/// "before" sample.
const FRESH: Duration = Duration::from_millis(500);

/// One run of the calibration kernel on `buf`: refill it with the same
/// pseudo-random integers, then sort it; returns the sort's wall time.
fn kernel(buf: &mut [u64]) -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for v in buf.iter_mut() {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *v = x >> 17;
    }
    let t = Instant::now();
    buf.sort_unstable();
    let elapsed = t.elapsed().as_secs_f64();
    black_box(&buf);
    elapsed
}

/// Median of [`REPS`] kernel runs on one buffer.
fn sample_one(buf: &mut [u64]) -> f64 {
    let mut runs: Vec<f64> = (0..REPS).map(|_| kernel(buf)).collect();
    runs.sort_by(f64::total_cmp);
    runs[REPS / 2]
}

/// A timed section's raw and reference-speed times.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    /// Wall seconds as measured.
    pub wall: f64,
    /// Process CPU seconds as measured.
    pub cpu: f64,
    /// `REFERENCE_S / calibration`: above 1 on a host faster than the
    /// reference, below 1 on a slower one.
    pub speed: f64,
}

impl Timed {
    /// Wall seconds at the reference speed.
    pub fn wall_ref(&self) -> f64 {
        self.wall * self.speed
    }

    /// CPU seconds at the reference speed.
    pub fn cpu_ref(&self) -> f64 {
        self.cpu * self.speed
    }
}

/// Brackets timed sections with calibration samples. A section that
/// starts right after another on as many threads reuses that section's
/// "after" sample as its "before" sample.
///
/// The kernel's buffers are allocated and made resident once, when the
/// calibrator is created, and stay resident until it is dropped, so
/// they add a constant to the process's resident set that
/// [`Calibrator::resident_mb`] reports and the peak-memory metric
/// subtracts. Create the calibrator before the workload allocates.
pub struct Calibrator {
    buffers: Vec<Vec<u64>>,
    resident_mb: f64,
    last: Option<(Instant, usize, f64)>,
}

impl Calibrator {
    /// A calibrator that can sample on up to `max_threads` threads.
    pub fn new(max_threads: usize) -> Calibrator {
        let before = crate::host::rss_mb();
        let mut buffers: Vec<Vec<u64>> =
            (0..max_threads.max(1)).map(|_| vec![0; SORT_LEN]).collect();
        for buf in &mut buffers {
            kernel(buf);
        }
        let resident_mb = crate::host::rss_mb() - before;
        Calibrator {
            buffers,
            resident_mb,
            last: None,
        }
    }

    /// MiB the kernel's buffers keep resident.
    pub fn resident_mb(&self) -> f64 {
        self.resident_mb
    }

    /// One calibration sample with the kernel running on `threads`
    /// threads at once, as loaded as the section it brackets: the mean
    /// of the threads' medians.
    pub fn sample(&mut self, threads: usize) -> f64 {
        let threads = threads.clamp(1, self.buffers.len());
        if threads == 1 {
            return sample_one(&mut self.buffers[0]);
        }
        let total: f64 = std::thread::scope(|scope| {
            let handles: Vec<_> = self.buffers[..threads]
                .iter_mut()
                .map(|buf| scope.spawn(move || sample_one(buf)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or(f64::NAN))
                .sum()
        });
        total / threads as f64
    }

    /// Runs `section`, which keeps `threads` threads busy, between two
    /// calibration samples on as many threads; returns its output with
    /// its times.
    pub fn timed<T>(&mut self, threads: usize, section: impl FnOnce() -> T) -> (T, Timed) {
        let before = match self.last {
            Some((at, n, s)) if n == threads && at.elapsed() < FRESH => s,
            _ => self.sample(threads),
        };
        let cpu = crate::host::cpu_seconds();
        let t = Instant::now();
        let out = section();
        let wall = t.elapsed().as_secs_f64();
        let cpu = crate::host::cpu_seconds() - cpu;
        let after = self.sample(threads);
        self.last = Some((Instant::now(), threads, after));
        let speed = REFERENCE_S / ((before + after) / 2.0);
        (out, Timed { wall, cpu, speed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_positive_and_finite() {
        let mut cal = Calibrator::new(2);
        for threads in [1, 2] {
            let s = cal.sample(threads);
            assert!(s.is_finite() && s > 0.0, "{threads} threads: {s}");
        }
        let (out, t) = cal.timed(1, || 7);
        assert_eq!(out, 7);
        assert!(t.speed.is_finite() && t.speed > 0.0);
        assert!((t.wall_ref() - t.wall * t.speed).abs() < 1e-12);
    }
}
