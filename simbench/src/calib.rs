//! Host-speed calibration.
//!
//! A shared machine's speed drifts by tens of percent over minutes, in
//! phases that outlast a whole run of the benchmark. A fixed reference
//! workload, timed between the measured sections, tells how fast the
//! host was meanwhile. Each host time the benchmark reports is scaled by
//! [`REFERENCE_S`] over the median of the process's reference times: it
//! is the time the section would have taken on a host that runs the
//! reference workload in exactly [`REFERENCE_S`] seconds. The median
//! follows the slow phases and ignores the reference's own short stalls.
//!
//! The reference workload is the benchmark's own code, which a change to
//! the simulator does not touch, so a faster simulator still shows as a
//! shorter time. It mixes what the simulator spends its time on: integer
//! arithmetic in four independent chains with a data-dependent branch,
//! and dependent random loads from a table larger than the last-level
//! cache. It runs one copy per worker of the workload's pool, so it
//! meets the contention the pool meets.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The reference time every reported time is scaled to (s): a round value
/// below the reference workload's 0.31–0.45 s on a 2-vCPU VM.
pub const REFERENCE_S: f64 = 0.25;

/// Table entries: 2^23 `u32`s, 32 MiB.
const TABLE_BITS: u32 = 23;
/// Arithmetic steps per round.
const ALU_STEPS: u64 = 1 << 23;
/// Dependent loads per round.
const LOAD_STEPS: u64 = 1 << 17;
/// Rounds per copy.
const ROUNDS: u64 = 8;

/// The reference workload, its table and the number of copies it runs.
pub struct Calibrator {
    table: Vec<u32>,
    threads: usize,
}

impl Calibrator {
    /// Builds the table, a pseudo-random walk over every entry, for a
    /// reference of `threads` concurrent copies.
    pub fn new(threads: usize) -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let table = (0..1usize << TABLE_BITS)
            .map(|_| {
                x = xorshift(x);
                (x >> 32) as u32
            })
            .collect();
        Self {
            table,
            threads: threads.max(1),
        }
    }

    /// Runs the reference workload once and returns its time (s).
    pub fn measure(&self) -> f64 {
        let t = Instant::now();
        std::thread::scope(|s| {
            for copy in 1..self.threads {
                s.spawn(move || self.copy(copy as u64));
            }
            self.copy(0);
        });
        t.elapsed().as_secs_f64()
    }

    /// The factor that scales a process's times to the reference host:
    /// [`REFERENCE_S`] over the median of its reference times.
    pub fn scale(refs: &[f64]) -> f64 {
        REFERENCE_S / median(refs)
    }

    fn copy(&self, seed: u64) {
        let mask = self.table.len() - 1;
        let mut xs = [1u64, 2, 3, 4].map(|k| (seed + k).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut acc = 0u64;
        for _ in 0..ROUNDS {
            for _ in 0..ALU_STEPS {
                for x in &mut xs {
                    *x = xorshift(*x);
                }
                let x = xs[0] ^ xs[1] ^ xs[2] ^ xs[3];
                if x & 3 == 0 {
                    acc = acc.wrapping_add(x >> 3);
                } else {
                    acc ^= x.rotate_left(11);
                }
            }
            let mut i = acc as usize & mask;
            for _ in 0..LOAD_STEPS {
                let v = self.table[i];
                acc = acc.wrapping_add(u64::from(v));
                i = (v as usize ^ (acc as usize >> 7)) & mask;
            }
        }
        black_box(acc);
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_median() {
        assert!((Calibrator::scale(&[REFERENCE_S]) - 1.0).abs() < 1e-12);
        assert!((Calibrator::scale(&[0.4, 0.9, 0.5]) - REFERENCE_S / 0.5).abs() < 1e-12);
    }
}
