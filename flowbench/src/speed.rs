//! Host-speed correction of `setup_s`.
//!
//! The host the benchmark was tuned on (Intel Xeon, 2 vCPUs, shared) slows
//! allocation-heavy, branchy code by up to 1.8× for minutes at a time.  The
//! input builds behind `setup_s` are such code: their median moved by 40%
//! between two sets of ten runs of the same commit, more than any bound may
//! absorb.  A std-only kernel of the same kind — formatting short strings
//! into a reused vector — slows in step: divided by it, the build time of
//! five `table2` runs varied by 0.9% (log standard deviation) instead of 9%.
//!
//! So each batch of input builds is followed by kernel runs, and `setup_s`
//! is the median build time scaled by `REFERENCE_KERNEL_MS / median kernel
//! time`: seconds at the speed the host had when it was not loaded.  The
//! kernel is the benchmark's own code, so no change to the program moves
//! it, and work moved into set-up still raises `setup_s`.
//!
//! The flows are not scaled: BDD-heavy flows slow far less than the kernel,
//! and dividing by it widened their spread on `governed` from 6.5% to 14%.

use std::hint::black_box;
use std::time::Instant;

/// Median kernel time, in milliseconds, on the tuning host when it was not
/// loaded.
pub const REFERENCE_KERNEL_MS: f64 = 11.5;

/// Kernel runs after each batch of input builds.
pub const KERNEL_RUNS: usize = 4;

/// Strings formatted per kernel run (about 11.5 ms on the tuning host).
const KERNEL_ROUNDS: usize = 20_000;

/// The calibration kernel, with its buffer allocated once so that no run
/// pays for fresh pages.
pub struct Kernel {
    strings: Vec<String>,
}

impl Kernel {
    /// A kernel with its buffer allocated.
    pub fn new() -> Self {
        Kernel { strings: Vec::with_capacity(8) }
    }

    /// Times one kernel run, in milliseconds.
    pub fn run_ms(&mut self) -> f64 {
        let start = Instant::now();
        let mut length = 0;
        for i in 0..black_box(KERNEL_ROUNDS) {
            self.strings.clear();
            self.strings.extend((0..8).map(|k| format!("s{i}_{k}")));
            length += self.strings.iter().map(String::len).sum::<usize>();
        }
        black_box(length);
        start.elapsed().as_secs_f64() * 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_runs_are_timed() {
        let mut kernel = Kernel::new();
        assert!(kernel.run_ms() > 0.0);
        assert_eq!(kernel.strings.len(), 8);
    }
}
