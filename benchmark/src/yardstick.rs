//! The yardstick: a fixed piece of work that shares no code with the product,
//! timed beside the blocks so that a run can say how fast its host was.
//!
//! This host changes speed under the benchmark in two ways that no statistic
//! inside a run removes, because each can hold for a quarter of an hour: its
//! clock moves between levels up to 10 % apart, and a busy neighbour on the
//! sibling hyperthread slows the service's code by a factor of 1.35–1.6.
//! Sorting a few thousand scrambled integers — branchy, data-dependent work
//! that lives in the core's own caches, like the service's — feels the clock
//! in full and the neighbour at 1.5.  So every timing a run reports is
//! multiplied by `REFERENCE_US / (the run's least reading)`: what it would
//! have been with the host at its reference speed.  README.md has the
//! measurements behind the choice.

use std::time::Instant;

/// What one sort takes on the host this benchmark was designed on (a Xeon
/// @ 2.1 GHz guest, rustc 1.95) with the core to itself.  Adjusted timings
/// compare between runs on one host and one toolchain, not across them.
pub const REFERENCE_US: f64 = 56.0;

/// Integers sorted per reading: 32 KiB, and as much again of scratch.
const LEN: usize = 4096;

/// The same scrambled integers every time (a fixed LCG).
fn scrambled() -> Vec<u64> {
    let mut x = 99u64;
    (0..LEN)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            x >> 20
        })
        .collect()
}

/// The yardstick's input and scratch, allocated once so that a reading
/// allocates nothing.
pub struct Yardstick {
    scrambled: Vec<u64>,
    scratch: Vec<u64>,
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick { scrambled: scrambled(), scratch: vec![0; LEN] }
    }
}

impl Yardstick {
    /// Time one sort of the scrambled integers; microseconds.  One, not the
    /// best of several back to back: the branch predictor learns a repeated
    /// input (37 µs against 56), and the readings of a run are all taken
    /// after the same work — a block of the workload — which is what makes
    /// their least comparable from run to run.
    pub fn reading_us(&mut self) -> f64 {
        let started = Instant::now();
        self.scratch.copy_from_slice(&self.scrambled);
        self.scratch.sort_unstable();
        std::hint::black_box(&self.scratch);
        started.elapsed().as_nanos() as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reading_sorts_and_takes_time() {
        let mut yardstick = Yardstick::default();
        assert!(yardstick.reading_us() > 0.0);
        assert!(yardstick.scratch.windows(2).all(|pair| pair[0] <= pair[1]));
        assert!(!yardstick.scrambled.windows(2).all(|pair| pair[0] <= pair[1]));
    }
}
