//! The host-speed reference: a fixed native workload, independent of the
//! engine, timed after each program's runs in every round. Two threads
//! each run the same integer and table-lookup loop.
//!
//! On a shared host, wall-clock run times drift with the host's speed —
//! by up to a third within minutes on the 2-vCPU VM the benchmark was
//! built on — and this loop's time drifts with them. The end-to-end time
//! metrics are therefore reported at a nominal host speed: each raw time
//! is scaled by [`NOMINAL_MS`] ÷ the median reference time of the same
//! measurement. Raw times are printed alongside. An engine change cannot
//! move the reference, so it shows in the scaled times undiminished.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Loop iterations per thread.
const ITERS: u32 = 1_500_000;

fn spin(seed: u64) -> u64 {
    let mut table = [0u32; 4096];
    let mut x = seed | 1;
    let mut acc = 0u64;
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & 4095;
        table[slot] = table[slot].wrapping_add(i);
        if table[(slot * 7) & 4095] & 1 == 0 {
            acc = acc.wrapping_add(x);
        } else {
            acc ^= u64::from(table[slot]);
        }
    }
    black_box(acc)
}

/// The reference time that defines nominal host speed, ms: the loop's
/// typical median on the 2-vCPU x86-64 VM the benchmark was built on.
/// Part of the benchmark's definition, like the workloads.
pub const NOMINAL_MS: f64 = 5.5;

/// Runs the reference on two threads and returns its wall time.
pub fn time_reference() -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        let a = s.spawn(|| spin(black_box(1)));
        let b = s.spawn(|| spin(black_box(2)));
        black_box((a.join().unwrap(), b.join().unwrap()));
    });
    start.elapsed()
}
