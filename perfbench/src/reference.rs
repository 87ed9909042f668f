//! The reference kernel: fixed work whose host time tracks the speed of
//! the machine a round runs on.
//!
//! On a shared host the speed of the same round drifts by a factor of
//! up to 1.7, in phases from under a second to minutes. The drift comes
//! from the cache and memory that other tenants of the host contend
//! for: a walk that stays inside a core's L2 keeps its speed, while one
//! over a few MiB slows with the round. The kernel is such a walk, a
//! random read-modify-write over a 4 MiB table, so it slows with the
//! simulator. Its code belongs to the benchmark and never changes with
//! the program, so the runner scales a round's host time by the
//! kernel's time next to it: the host's drift cancels and every change
//! of the program shows.

use std::time::Instant;

/// Table words: 4 MiB, more than a core's L2.
const WORDS: usize = 1 << 19;
/// Timed steps: 7 to 15 ms on a shared 2.1 GHz Xeon vCPU.
const STEPS: u64 = 3_000_000;
/// Untimed steps first, to fault the table in and fill the caches.
const WARM_STEPS: u64 = 1_000_000;

/// Run the kernel once on each of `threads` threads at the same time
/// and return the mean time of the timed steps, in ms.
pub fn time_ms(threads: usize) -> f64 {
    let threads = threads.max(1);
    let total: f64 = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(walk_ms)).collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("reference kernel panicked"))
            .sum()
    });
    total / threads as f64
}

fn walk_ms() -> f64 {
    let mut table: Vec<u64> = (0..WORDS as u64).collect();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    let mut walk = |table: &mut [u64], steps: u64| {
        for _ in 0..steps {
            // xorshift64: a fixed, cheap stream of table indices.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = x as usize & (WORDS - 1);
            acc = acc.wrapping_add(table[i]);
            table[i] = acc;
        }
    };
    walk(&mut table, WARM_STEPS);
    let t = Instant::now();
    walk(&mut table, STEPS);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(acc);
    ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_takes_measurable_time_on_every_thread_count() {
        for threads in [0, 1, 2] {
            let ms = time_ms(threads);
            assert!(ms > 0.1 && ms.is_finite(), "{threads} threads: {ms} ms");
        }
    }
}
