//! Machine-speed calibration.
//!
//! The runners this benchmark has to repeat on are small VMs on shared
//! hosts whose speed is not a constant. Two sets of ten runs of the *same
//! binary*, forty minutes apart, read `probe_unique` at 159.3 us per call
//! and 6326 plans/s, then at 177.9 us and 5432 plans/s; inside the second
//! set the run-to-run spread (IQR ÷ median) reached 25%, and the machine
//! stays slow for minutes, so longer windows do not help. A bound of 10%
//! cannot gate anything on numbers that move 17% by themselves.
//!
//! So every timed interval — window, microbenchmark — sits between two
//! runs of a fixed workload owned by the benchmark, [`calibrate`], and its
//! times are divided by how much slower than [`REFERENCE_NS`] the
//! calibration ran (set-up, which lasts ten windows, by the median over
//! the run's windows). Every time the benchmark reports is therefore "at
//! reference speed": a slower machine, or a slow minute
//! on the same machine, scales the calibration and the measurement alike
//! and cancels; a slower *program* does not touch the calibration and
//! shows in full. Calibrated, the two sets above read 146.5 and 145.6 us,
//! 6813 and 6694 plans/s, with spreads of 1-4%.
//!
//! The loop is about 46 ms of integer/float arithmetic over an L1-resident
//! table plus string formatting, allocation and hashing — a mix chosen to
//! resemble the served path (matrix kernels and plan-text encoding), and
//! the mix matters: on the slow set, dividing by the arithmetic half alone
//! left spreads of 5-10% and by the text half alone 5-11%, because part of
//! what slows the guest is memory, which only the allocating half feels.
//!
//! The loop lives in the benchmark's own package and calls nothing from
//! the program, so no change to the program can move it. A new toolchain
//! or a swapped process-wide allocator can, as they can move the program;
//! either needs a re-baseline.

use std::hint::black_box;

/// What [`calibrate`] takes on the reference runner (the 2-vCPU 2.1 GHz
/// Xeon VM this was developed on, in its fast state). Only ratios to it
/// are used.
pub const REFERENCE_NS: f64 = 46_000_000.0;

const ARITH_STEPS: u64 = 10_000_000;
const TEXT_STEPS: u64 = 75_000;

/// Runs the fixed workload once and returns how long it took, in ns.
pub fn calibrate() -> u64 {
    let t0 = telemetry::clock_ns();

    // Dependent integer and float work over a table that stays in L1.
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0.0f64;
    let mut table = [0.0f32; 1024];
    for i in 0..ARITH_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x & 1023) as usize;
        table[j] = table[j] * 0.99 + i as f32 * 1e-6;
        acc += f64::from(table[(j + 1) & 1023]);
    }
    black_box(acc);

    // Formatting, small allocations and byte hashing.
    let mut h = 0u64;
    for i in 0..TEXT_STEPS {
        let statement = format!("Filter ((isnotnull(t.kind_id) && (t.kind_id < {i})))");
        let tokens: Vec<String> = statement.split(' ').map(str::to_lowercase).collect();
        for token in &tokens {
            for b in token.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    black_box(h);

    telemetry::clock_ns() - t0
}

/// How much slower than the reference the machine ran over an interval
/// bracketed by two calibrations (1.0 = reference speed, 1.2 = 20%
/// slower). Divide a time by it — or multiply a rate — to bring it to
/// reference speed.
pub fn slowdown(before_ns: u64, after_ns: u64) -> f64 {
    (before_ns + after_ns) as f64 / 2.0 / REFERENCE_NS
}

/// Calibrates at the boundaries of consecutive timed intervals, so each
/// calibration closes one interval and opens the next.
pub struct Speedometer {
    last_ns: u64,
}

impl Speedometer {
    /// Calibrates once; the first interval starts now.
    pub fn start() -> Self {
        Self { last_ns: calibrate() }
    }

    /// Calibrates again and returns the [`slowdown`] over the interval
    /// since the previous reading; the next interval starts now.
    pub fn lap(&mut self) -> f64 {
        let now_ns = calibrate();
        let slowdown = slowdown(self.last_ns, now_ns);
        self.last_ns = now_ns;
        slowdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_uniformly_slower_machine_cancels_and_a_slower_program_does_not() {
        let reference = REFERENCE_NS as u64;
        assert_eq!(slowdown(reference, reference), 1.0);
        // Machine 1.5x slower: calibration and a 150 us call both stretch.
        let slow = slowdown(reference * 3 / 2, reference * 3 / 2);
        assert_eq!(225.0 / slow, 150.0);
        // Program 1.5x slower on the same machine: nothing cancels.
        assert_eq!(225.0 / slowdown(reference, reference), 225.0);
        // A change of speed inside the window is split down the middle.
        assert_eq!(slowdown(reference, reference * 2), 1.5);
    }

    #[test]
    fn calibration_takes_measurable_time() {
        assert!(calibrate() > 1_000_000, "the fixed workload was optimised away");
    }
}
