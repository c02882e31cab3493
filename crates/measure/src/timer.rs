//! Wall-clock measurement harness.
//!
//! The paper measures each algorithm `N` times and keeps the whole
//! distribution (Sec. III). [`measure`] does exactly that for a real closure; the
//! simulated counterpart lives in `relperf-sim` and produces the same
//! [`Sample`] type, so everything downstream (comparison, clustering,
//! reports) is agnostic to where the numbers came from.

use crate::sample::{Sample, SampleError};
use std::time::Instant;

/// Configuration of a repeated-measurement run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeasureConfig {
    /// Untimed warmup executions before measurement starts (cache/JIT
    /// effects; the paper's ref. \[2\] studies exactly this caching
    /// influence).
    pub warmup: usize,
    /// Number of timed executions `N`.
    pub repetitions: usize,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        MeasureConfig {
            warmup: 2,
            repetitions: 30,
        }
    }
}

/// Runs `f` under the given configuration and collects one timing [`Sample`]
/// (seconds per execution).
///
/// Returns [`SampleError::Empty`] when `repetitions == 0`.
pub fn measure<F: FnMut()>(config: MeasureConfig, mut f: F) -> Result<Sample, SampleError> {
    for _ in 0..config.warmup {
        f();
    }
    let mut times = Vec::with_capacity(config.repetitions);
    for _ in 0..config.repetitions {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    Sample::new(times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_requested_repetitions() {
        let cfg = MeasureConfig {
            warmup: 1,
            repetitions: 5,
        };
        let mut calls = 0;
        let s = measure(cfg, || calls += 1).unwrap();
        assert_eq!(s.len(), 5);
        assert_eq!(calls, 6); // warmup + timed
        assert!(s.values().iter().all(|&t| t >= 0.0));
    }

    #[test]
    fn zero_repetitions_is_an_error() {
        let cfg = MeasureConfig {
            warmup: 0,
            repetitions: 0,
        };
        assert!(measure(cfg, || ()).is_err());
    }

    #[test]
    fn timings_increase_with_work() {
        let cfg = MeasureConfig {
            warmup: 1,
            repetitions: 5,
        };
        // black_box inside the fold keeps release builds from collapsing
        // the loop into a closed-form expression.
        fn spin(n: u64) -> u64 {
            (0..std::hint::black_box(n))
                .fold(0u64, |acc, i| std::hint::black_box(acc ^ i.wrapping_mul(0x9E3779B9)))
        }
        let light = measure(cfg, || {
            std::hint::black_box(spin(100));
        })
        .unwrap();
        let heavy = measure(cfg, || {
            std::hint::black_box(spin(2_000_000));
        })
        .unwrap();
        assert!(heavy.median() > light.median());
    }
}
