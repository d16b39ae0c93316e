//! The benchmark's only reads of the host clock. The repository's linter
//! forbids wall-clock reads outside the bench harness because a simulated
//! result must depend only on the seed; here the clock times the simulator
//! from outside, and no simulated statistic ever reads it.

// taqos-lint: allow(wall-clock) -- host-time measurement of the simulator from outside it
use std::time::Instant;

/// A running host-time measurement.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    // taqos-lint: allow(wall-clock) -- host-time measurement of the simulator from outside it
    start: Instant,
}

impl Stopwatch {
    /// Starts measuring now.
    #[inline]
    pub fn start() -> Self {
        Stopwatch {
            // taqos-lint: allow(wall-clock) -- host-time measurement of the simulator from outside it
            start: Instant::now(),
        }
    }

    /// Nanoseconds since [`Self::start`].
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Seconds since [`Self::start`].
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}
