//! Scoped-thread data parallelism for the expensive gate-level inference
//! paths (no external thread-pool crates needed).
//!
//! All entry points suppress *nested* parallelism: when a worker spawned by
//! one region calls back into this module (e.g. a parallel batch loop whose
//! items each run a parallel GEMM), the inner call runs inline instead of
//! spawning threads-of-threads. The suppression is a global region counter,
//! so at most one region parallelizes at a time — exactly what a single
//! inference/attack pipeline wants, and merely sequentializes the (rare)
//! concurrent-caller case.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Count of currently active parallel regions (see module docs).
static ACTIVE_REGIONS: AtomicUsize = AtomicUsize::new(0);

/// RAII token for one active parallel region.
struct RegionGuard;

impl RegionGuard {
    /// Claim the right to parallelize; `None` if a region is already active.
    fn try_enter() -> Option<RegionGuard> {
        if ACTIVE_REGIONS.fetch_add(1, Ordering::AcqRel) == 0 {
            Some(RegionGuard)
        } else {
            ACTIVE_REGIONS.fetch_sub(1, Ordering::AcqRel);
            None
        }
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        ACTIVE_REGIONS.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Partition `out` into `chunk`-sized pieces (the final piece may be
/// shorter) and apply `f(chunk_index, piece)` to each, distributing pieces
/// across `std::thread::available_parallelism()` worker threads.
///
/// Falls back to a sequential loop when there is only one chunk or one CPU,
/// or when called from inside another parallel region. Chunk indices are
/// global and stable regardless of thread count, so `f` must not rely on
/// execution order.
///
/// # Panics
///
/// Panics if `chunk` is zero.
///
/// # Examples
///
/// ```
/// use da_tensor::parallel::par_map_chunks;
///
/// // 7 elements in chunks of 3: pieces of 3, 3, and a ragged tail of 1.
/// let mut data = vec![0.0f32; 7];
/// par_map_chunks(&mut data, 3, |idx, piece| {
///     for x in piece.iter_mut() {
///         *x = idx as f32;
///     }
/// });
/// assert_eq!(data, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0]);
/// ```
pub fn par_map_chunks<F>(out: &mut [f32], chunk: usize, f: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    par_map_chunks_with(out, chunk, || (), |(), idx, piece| f(idx, piece));
}

/// [`par_map_chunks`] with per-worker state: each worker thread calls
/// `init()` once and threads the resulting state through every piece it
/// processes. Used by the batched GEMM to give each worker its own
/// arithmetic kernel.
///
/// The sequential fallback uses a single state for all pieces, which is
/// only observable through the state itself (per-piece outputs must not
/// depend on which worker processed them).
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn par_map_chunks_with<S, I, F>(out: &mut [f32], chunk: usize, init: I, f: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut [f32]) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    let n_chunks = out.len().div_ceil(chunk);
    let threads = available_threads().min(n_chunks);

    let guard = if threads > 1 { RegionGuard::try_enter() } else { None };
    if guard.is_none() {
        let mut state = init();
        for (idx, piece) in out.chunks_mut(chunk).enumerate() {
            f(&mut state, idx, piece);
        }
        return;
    }

    // Static partition: each worker owns a disjoint contiguous block of the
    // buffer handed out by `split_at_mut`; the last block absorbs the
    // ragged tail.
    std::thread::scope(|scope| {
        let mut rest = out;
        let per = n_chunks / threads;
        let extra = n_chunks % threads;
        let mut base = 0usize;
        let (fref, iref) = (&f, &init);
        for t in 0..threads {
            let take = per + usize::from(t < extra);
            let split = (take * chunk).min(rest.len());
            let (head, tail) = rest.split_at_mut(split);
            rest = tail;
            let start = base;
            base += take;
            scope.spawn(move || {
                let mut state = iref();
                for (i, piece) in head.chunks_mut(chunk).enumerate() {
                    fref(&mut state, start + i, piece);
                }
            });
        }
    });
    drop(guard);
}

/// Run `f(i)` for every `i` in `0..n` across worker threads, for read-only or
/// interior-mutability workloads (e.g. filling disjoint `Mutex`-free regions
/// indexed through raw computation).
///
/// Runs inline when called from inside another parallel region (see module
/// docs).
///
/// # Examples
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// use da_tensor::parallel::par_for;
///
/// let counter = AtomicUsize::new(0);
/// par_for(100, |_| {
///     counter.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(counter.load(Ordering::Relaxed), 100);
/// ```
pub fn par_for<F>(n: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let threads = available_threads().min(n);
    let guard = if threads > 1 { RegionGuard::try_enter() } else { None };
    if guard.is_none() {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                f(i);
            });
        }
    });
    drop(guard);
}

fn available_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_receive_stable_global_indices() {
        let mut data = vec![-1.0f32; 64];
        par_map_chunks(&mut data, 4, |idx, piece| {
            for (j, x) in piece.iter_mut().enumerate() {
                *x = (idx * 4 + j) as f32;
            }
        });
        for (i, x) in data.iter().enumerate() {
            assert_eq!(*x, i as f32);
        }
    }

    #[test]
    fn single_chunk_runs_inline() {
        let mut data = vec![0.0f32; 3];
        par_map_chunks(&mut data, 3, |idx, piece| {
            assert_eq!(idx, 0);
            piece[0] = 9.0;
        });
        assert_eq!(data[0], 9.0);
    }

    #[test]
    fn par_for_covers_every_index_once() {
        use std::sync::Mutex;
        let seen = Mutex::new(vec![0u32; 257]);
        par_for(257, |i| {
            seen.lock().expect("lock")[i] += 1;
        });
        assert!(seen.into_inner().expect("lock").iter().all(|&c| c == 1));
    }

    /// Regression: a chunk size that does not divide the buffer yields a
    /// shorter final piece instead of panicking (the seed panicked here).
    #[test]
    fn ragged_tail_chunk_is_processed() {
        for (len, chunk) in [(5usize, 2usize), (7, 3), (64, 7), (3, 8), (1, 4)] {
            let mut data = vec![-1.0f32; len];
            let n_chunks = len.div_ceil(chunk);
            par_map_chunks(&mut data, chunk, |idx, piece| {
                let expected =
                    if idx == n_chunks - 1 && len % chunk != 0 { len % chunk } else { chunk };
                assert_eq!(piece.len(), expected, "len={len} chunk={chunk} idx={idx}");
                for x in piece.iter_mut() {
                    *x = idx as f32;
                }
            });
            for (i, x) in data.iter().enumerate() {
                assert_eq!(*x, (i / chunk) as f32, "len={len} chunk={chunk}");
            }
        }
    }

    #[test]
    fn per_worker_state_sees_every_chunk_exactly_once() {
        use std::sync::Mutex;
        let all: Mutex<Vec<usize>> = Mutex::new(Vec::new());
        let mut data = vec![0.0f32; 61];
        par_map_chunks_with(&mut data, 4, Vec::new, |seen: &mut Vec<usize>, idx, _piece| {
            seen.push(idx);
            // Flush on every call; order within a worker is ascending.
            all.lock().expect("lock").push(idx);
        });
        let mut indices = all.into_inner().expect("lock");
        indices.sort_unstable();
        assert_eq!(indices, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallel_calls_run_inline_without_deadlock() {
        let mut outer = vec![0.0f32; 8];
        par_map_chunks(&mut outer, 1, |_, piece| {
            let mut inner = vec![0.0f32; 16];
            par_map_chunks(&mut inner, 2, |idx, p| {
                for x in p.iter_mut() {
                    *x = idx as f32;
                }
            });
            piece[0] = inner.iter().sum();
            let counter = AtomicUsize::new(0);
            par_for(10, |_| {
                counter.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(counter.load(Ordering::Relaxed), 10);
        });
        for x in outer {
            assert_eq!(x, (0..8).map(|i| (i as f32) * 2.0).sum::<f32>());
        }
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_is_rejected() {
        let mut data = vec![0.0f32; 4];
        par_map_chunks(&mut data, 0, |_, _| {});
    }
}
