//! The reference kernel timed next to every untraced iteration.
//!
//! The benchmark runs on shared hosts whose speed for the simulator's kind
//! of code drifts by a third or more from one minute to the next with the
//! load of other tenants, while the simulator's work stays the same. The
//! reference is fixed code of the benchmark's own, of the two kinds the
//! simulator spends its time in: ordered maps, sorting and string building,
//! and dense f32 loops (a batched matmul and a row softmax, the shape of
//! the TPC-VM cells). It runs on as many threads at once as the workload
//! keeps busy and slows down with the host in step with the simulator, so
//! iteration time over the reference time measured right after it
//! (`host_wall_ref`) moves with the simulator's code and hardly with the
//! host. It calls none of the repository's crates: no change to the
//! simulator can make it faster or slower, except work the simulator
//! leaves running after its calls return.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Dense passes per reference run; with it the two halves take about the
/// same time.
const DENSE_REPS: usize = 8;

/// Host seconds that one run of the reference kernel on each of
/// `threads` threads at once takes now: the faster of two runs, because
/// the first one after an iteration that freed hundreds of MiB can stall
/// on the host handing that memory back.
pub fn reference_s(threads: usize) -> f64 {
    let once = || {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for _ in 1..threads {
                s.spawn(kernel);
            }
            kernel();
        });
        t0.elapsed().as_secs_f64()
    };
    once().min(once())
}

fn kernel() {
    black_box(ordered_maps());
    for _ in 0..DENSE_REPS {
        black_box(dense_f32());
    }
}

/// Pointer-heavy host code: 60k map inserts, a sort and 20k formatted
/// strings.
fn ordered_maps() -> (u64, Vec<String>) {
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for j in 0..60_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 100_000, j);
    }
    let mut keys: Vec<u64> = map
        .keys()
        .map(|k| k.wrapping_mul(2_654_435_761) % 1_000_003)
        .collect();
    keys.sort_unstable();
    let labels = (0..20_000).map(|k| format!("n{k}:{}", k * 3)).collect();
    (map.values().sum::<u64>() + keys[keys.len() / 2], labels)
}

/// Dense f32 loops: a 2x128x128 batched matmul and a softmax over the
/// rows of a 256x512 matrix.
fn dense_f32() -> (Vec<f32>, Vec<f32>) {
    const N: usize = 128;
    let a: Vec<f32> = (0..2 * N * N)
        .map(|k| ((k * 7919) % 1000) as f32 * 1e-3)
        .collect();
    let b = a.clone();
    let mut c = vec![0f32; 2 * N * N];
    for o in [0, N * N] {
        for r in 0..N {
            for k in 0..N {
                let av = a[o + r * N + k];
                for col in 0..N {
                    c[o + r * N + col] += av * b[o + k * N + col];
                }
            }
        }
    }
    let mut rows: Vec<f32> = (0..256 * 512).map(|k| (k % 97) as f32 * 0.01).collect();
    for row in rows.chunks_mut(512) {
        let max = row.iter().copied().fold(f32::MIN, f32::max);
        let mut sum = 0.0;
        for e in row.iter_mut() {
            *e = (*e - max).exp();
            sum += *e;
        }
        for e in row.iter_mut() {
            *e /= sum;
        }
    }
    (c, rows)
}
