//! The host-speed probe: a fixed computation timed between measured
//! steps, so that their times can be scaled to one host speed.
//!
//! The reference host is a 2-vCPU virtual machine shared with other
//! tenants, and its speed drifts with their load: the same operation
//! takes up to 1.8 times as long in a slow phase, phases last from under
//! a second to minutes, often longer than a run, and the two vCPUs slow
//! apart. The probe slows with the host. Over 150-s runs of each batch
//! workload, the log of an operation's time and the log of the mean of
//! the probes just before and after it correlated at 0.67-0.70 (slope
//! 0.87-1.15), and dividing each operation by that mean halved the
//! spread between the medians of 20-s windows. A set-up runs on one
//! thread, so it is divided by the copy of the probe that ran on its own
//! thread: over a 300-s run that copy correlated with the set-up bursts
//! at 0.63, the probe's slowest copy at 0.14.
//!
//! The probe is this crate's own code, so no change to the repository's
//! crates can change it: local-alignment scoring with linear gaps over
//! two fixed random 2000-bp sequences, one copy on each host thread.

use crate::workload::host_threads;
use std::hint::black_box;
use std::time::Instant;

/// About the probe's usual time on the reference host. Dividing a time
/// by the probe time around it and multiplying by this reports seconds
/// of that host at its usual speed.
pub const REFERENCE_S: f64 = 0.06;

/// Sequence length of the probe's alignment problem.
const LEN: usize = 2_000;
/// Alignments per probe on each thread.
const REPS: usize = 2;

/// Fixed pseudo-random bases (xorshift64).
fn bases(mut state: u64) -> Vec<u8> {
    (0..LEN)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state & 3) as u8
        })
        .collect()
}

/// Best local-alignment score of `a` against `b`: match +2, mismatch
/// -3, gap -4.
fn best_score(a: &[u8], b: &[u8], row: &mut [i32]) -> i32 {
    row.fill(0);
    let mut best = 0;
    for &x in a {
        let (mut diag, mut left) = (0, 0);
        for (cell, &y) in row.iter_mut().zip(b) {
            let up = *cell;
            let s = if x == y { 2 } else { -3 };
            let v = (diag + s).max(up - 4).max(left - 4).max(0);
            diag = up;
            *cell = v;
            left = v;
            best = best.max(v);
        }
    }
    best
}

/// One copy of the probe; returns its seconds.
fn copy(thread: u64) -> f64 {
    let start = Instant::now();
    let a = bases(0x9e37_79b9_7f4a_7c15 ^ thread);
    let b = bases(0x2545_f491_4f6c_dd1d ^ thread);
    let mut row = vec![0; LEN];
    for _ in 0..REPS {
        black_box(best_score(black_box(&a), black_box(&b), &mut row));
    }
    start.elapsed().as_secs_f64()
}

/// Probe times of one run of the probe.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    /// Seconds until the copies on every host thread had finished.
    pub all_s: f64,
    /// Seconds of the copy on the calling thread.
    pub this_thread_s: f64,
}

/// Runs one copy of the probe on every host thread at the same time, one
/// of them on the calling thread.
pub fn run() -> Probe {
    let start = Instant::now();
    let this_thread_s = std::thread::scope(|scope| {
        for t in 1..host_threads() as u64 {
            scope.spawn(move || copy(t));
        }
        copy(0)
    });
    Probe {
        all_s: start.elapsed().as_secs_f64(),
        this_thread_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_a_known_alignment() {
        let mut row = vec![0; 4];
        // ACGT against ACGT: four matches.
        assert_eq!(best_score(&[0, 1, 2, 3], &[0, 1, 2, 3], &mut row), 8);
        // One mismatch in the middle: 2 + 2 - 3 + 2 + 2 beats either half.
        let mut row = vec![0; 5];
        assert_eq!(best_score(&[0, 1, 2, 3, 0], &[0, 1, 3, 3, 0], &mut row), 5);
    }

    #[test]
    fn every_copy_is_inside_the_whole_probe() {
        let p = run();
        assert!(p.this_thread_s > 0.0 && p.this_thread_s <= p.all_s);
    }
}
