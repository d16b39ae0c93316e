//! Host-noise diagnostics. They are printed beside the metrics and never
//! folded into them: they explain a spread between runs, not the simulator.

use crate::clock::Stopwatch;

/// Nanoseconds this thread has waited on a run queue, from
/// `/proc/thread-self/schedstat` (0 where the file is unavailable).
fn runq_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Iterations of the calibration kernel.
const PROBE_ITERATIONS: u64 = 2_000_000;

/// Host time of a fixed integer kernel (a serial xorshift chain, so the
/// compiler cannot vectorise or shorten it), in nanoseconds: the median of
/// five runs. A slower host CPU shows as a larger value.
fn probe_ns() -> f64 {
    let mut samples = [0.0f64; 5];
    for sample in &mut samples {
        let start = Stopwatch::start();
        let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
        for _ in 0..PROBE_ITERATIONS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        *sample = start.elapsed_ns() as f64;
    }
    samples.sort_by(f64::total_cmp);
    samples[2]
}

/// Host-noise readings over one invocation.
#[derive(Debug, Clone, Copy)]
pub struct HostNoise {
    /// Milliseconds this thread waited on a run queue.
    pub runq_wait_ms: f64,
    /// Calibration-kernel nanoseconds (the fixed kernel above).
    pub probe_ns: f64,
}

/// Starts host-noise tracking; call [`HostStart::finish`] at the end.
pub struct HostStart {
    runq_ns: u64,
    probe_ns: f64,
}

impl HostStart {
    /// Reads the run-queue counter and runs the calibration kernel.
    pub fn now() -> Self {
        HostStart {
            runq_ns: runq_wait_ns(),
            probe_ns: probe_ns(),
        }
    }

    /// Readings since [`Self::now`]; the probe is the mean of the start and
    /// end kernels.
    pub fn finish(self) -> HostNoise {
        let probe_end = probe_ns();
        HostNoise {
            runq_wait_ms: runq_wait_ns().saturating_sub(self.runq_ns) as f64 * 1e-6,
            probe_ns: (self.probe_ns + probe_end) / 2.0,
        }
    }
}
