//! Deterministic fork/join engine for the measure → compare → cluster hot
//! path.
//!
//! The paper's pipeline is embarrassingly parallel in three places: the
//! bootstrap rounds of every comparison (Sec. III), the O(p²) pairwise
//! comparisons, and the `Rep` shuffled clustering repetitions of
//! Procedure 4. All three are *index-addressable*: the work for item `i`
//! depends only on `i` (callers derive per-index RNG streams), so running
//! items on any number of threads in any order and writing results back by
//! index is **bit-identical** to the serial loop. That property is what
//! lets the workspace guarantee "same seed → same clustering" regardless
//! of thread count or scheduling.
//!
//! The engine has a second caller off the hot path: the session service
//! installs every shard's journal checkpoint through
//! [`parallel_map_indexed`], one thread per shard, since each install
//! blocks in fsync rather than on a core. Results come back in shard
//! order, so the lowest failing shard is the one reported.
//!
//! Serial execution is a run-time choice, not a build: on
//! [`Parallelism::serial`] (or any config that resolves to one thread)
//! [`parallel_map_indexed`] is a plain ordered loop on the calling thread.
//! The crate has no dependencies beyond `std`.

#![warn(missing_docs)]

/// How much parallelism to apply to an index-addressable loop.
///
/// Threaded through `relperf-core`'s `ClusterConfig`
/// and the facade prelude so one knob controls the whole pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism {
    /// Worker threads to use. `0` means "ask the OS"
    /// ([`hardware_threads`]); `1` forces the serial path.
    pub threads: usize,
    /// Consecutive indices handed to a worker at a time. `0` picks a chunk
    /// size that yields ~4 chunks per worker (good load balance for the
    /// mildly uneven cost of bootstrap comparisons).
    pub chunk: usize,
}

impl Default for Parallelism {
    /// Auto threads, auto chunking.
    fn default() -> Self {
        Parallelism { threads: 0, chunk: 0 }
    }
}

impl Parallelism {
    /// Explicitly serial execution (one thread).
    pub fn serial() -> Self {
        Parallelism { threads: 1, chunk: 0 }
    }

    /// Auto-detected thread count, auto chunking. Same as `default()`.
    pub fn auto() -> Self {
        Parallelism::default()
    }

    /// A fixed thread count with auto chunking.
    pub fn with_threads(threads: usize) -> Self {
        Parallelism { threads, chunk: 0 }
    }

    /// The number of worker threads that will actually run for `n` items:
    /// resolves `threads == 0` against the OS and never exceeds `n`.
    pub fn effective_threads(&self, n: usize) -> usize {
        let t = if self.threads == 0 { hardware_threads() } else { self.threads };
        t.clamp(1, n.max(1))
    }

    /// The chunk size that will actually be used for `n` items on
    /// `threads` workers.
    pub fn effective_chunk(&self, n: usize, threads: usize) -> usize {
        if self.chunk > 0 {
            return self.chunk;
        }
        // ~4 chunks per worker, at least 1 index per chunk.
        (n / (threads * 4).max(1)).max(1)
    }
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// `f(i)` must depend only on `i` (and captured shared state) — on more
/// than one thread the indices are evaluated concurrently in unspecified
/// order, and the output is reassembled by index, so the result is
/// bit-identical to the serial loop for any [`Parallelism`].
///
/// A panic inside `f` propagates to the caller (the scope re-raises it).
///
/// # Examples
///
/// ```
/// use relperf_parallel::{parallel_map_indexed, Parallelism};
///
/// let squares = parallel_map_indexed(5, Parallelism::auto(), |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// assert_eq!(
///     squares,
///     parallel_map_indexed(5, Parallelism::serial(), |i| i * i),
/// );
/// ```
pub fn parallel_map_indexed<T, F>(n: usize, parallelism: Parallelism, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_map_indexed_with(n, parallelism, || (), |(), i| f(i))
}

/// Like [`parallel_map_indexed`], but with reusable **per-worker state**:
/// each worker thread calls `init()` exactly once and passes the resulting
/// value to every `f(&mut state, i)` it runs (the serial path uses a
/// single state for the whole loop).
///
/// This is the hook for scratch arenas: a worker's state lives across all
/// the chunks it processes, so buffers (resample count vectors, comparison
/// caches, …) are allocated once per thread instead of once per index —
/// with no locking, since no state is ever shared between workers.
/// The calling thread is one of the workers: a call on `t` threads
/// spawns `t − 1`.
///
/// The determinism contract is unchanged: `f(&mut s, i)`'s *result* must
/// depend only on `i` (and captured shared state), never on which worker
/// ran it or what the state saw before — state is for reusable working
/// memory, not for carrying information between indices. Under that
/// contract the output is bit-identical for any [`Parallelism`].
///
/// # Examples
///
/// ```
/// use relperf_parallel::{parallel_map_indexed_with, Parallelism};
///
/// // Reuse a per-worker buffer across indices.
/// let sums = parallel_map_indexed_with(
///     4,
///     Parallelism::auto(),
///     Vec::<u64>::new,
///     |buf, i| {
///         buf.clear();
///         buf.extend(0..=i as u64);
///         buf.iter().sum::<u64>()
///     },
/// );
/// assert_eq!(sums, vec![0, 1, 3, 6]);
/// ```
pub fn parallel_map_indexed_with<T, S, I, F>(
    n: usize,
    parallelism: Parallelism,
    init: I,
    f: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = parallelism.effective_threads(n);
    if n == 0 {
        return Vec::new();
    }
    if threads <= 1 {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    {
        // Job list: disjoint output chunks tagged with their start
        // index, popped by workers until drained (simple work sharing —
        // chunks are contiguous so reassembly is free).
        let mut jobs: Vec<(usize, &mut [Option<T>])> = Vec::new();
        let mut start = 0usize;
        for slot in out.chunks_mut(parallelism.effective_chunk(n, threads)) {
            let len = slot.len();
            jobs.push((start, slot));
            start += len;
        }
        // Pop from the back so low indices run first on average.
        jobs.reverse();
        let queue = std::sync::Mutex::new(jobs);
        let work = || {
            // One state per worker, reused across every chunk this
            // worker pops — never shared, never locked.
            let mut state = init();
            loop {
                let job = queue.lock().expect("queue poisoned").pop();
                let Some((start, slot)) = job else { break };
                for (offset, cell) in slot.iter_mut().enumerate() {
                    *cell = Some(f(&mut state, start + offset));
                }
            }
        };
        std::thread::scope(|scope| {
            // The calling thread is worker 0: spawn only the others.
            for _ in 1..threads {
                scope.spawn(work);
            }
            work();
        });
    }
    out.into_iter()
        .map(|cell| cell.expect("all chunks processed"))
        .collect()
}

/// Threads the host can run at once: `std::thread::available_parallelism`
/// (at least 1), read on the first call and cached.
///
/// The cache matters on hot paths: `available_parallelism` reads cgroup
/// files on Linux, which costs tens of microseconds per call.
pub fn hardware_threads() -> usize {
    static HARDWARE_THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HARDWARE_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_and_identical_across_configs() {
        let serial = parallel_map_indexed(1000, Parallelism::serial(), |i| i * 3 + 1);
        for threads in [0usize, 2, 3, 8] {
            for chunk in [0usize, 1, 7, 1000, 5000] {
                let par = parallel_map_indexed(1000, Parallelism { threads, chunk }, |i| i * 3 + 1);
                assert_eq!(par, serial, "threads={threads} chunk={chunk}");
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(
            parallel_map_indexed(0, Parallelism::auto(), |i| i),
            Vec::<usize>::new()
        );
        assert_eq!(parallel_map_indexed(1, Parallelism::auto(), |i| i + 9), vec![9]);
    }

    #[test]
    fn effective_threads_resolves_auto_and_clamps() {
        let p = Parallelism::auto();
        assert!(p.effective_threads(100) >= 1);
        assert_eq!(p.effective_threads(0), 1);
        assert_eq!(Parallelism::with_threads(16).effective_threads(3), 3);
        assert_eq!(Parallelism::serial().effective_threads(100), 1);
    }

    #[test]
    fn hardware_threads_is_positive_and_cached() {
        let first = hardware_threads();
        assert!(first >= 1);
        assert_eq!(hardware_threads(), first);
        assert_eq!(Parallelism::auto().effective_threads(usize::MAX), first);
    }

    #[test]
    fn effective_chunk_explicit_and_auto() {
        let p = Parallelism { threads: 4, chunk: 10 };
        assert_eq!(p.effective_chunk(100, 4), 10);
        let auto = Parallelism::with_threads(4);
        assert_eq!(auto.effective_chunk(100, 4), 6); // 100 / 16
        assert_eq!(auto.effective_chunk(3, 4), 1);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            parallel_map_indexed(64, Parallelism::with_threads(4), |i| {
                assert!(i != 40, "boom at {i}");
                i
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn with_state_matches_plain_map_for_any_parallelism() {
        let reference: Vec<usize> = (0..500).map(|i| i * 7).collect();
        for threads in [0usize, 1, 2, 5] {
            for chunk in [0usize, 1, 13] {
                let got = parallel_map_indexed_with(
                    500,
                    Parallelism { threads, chunk },
                    || Vec::<usize>::with_capacity(8),
                    |scratch, i| {
                        // Scratch is working memory only; the result is a
                        // pure function of the index.
                        scratch.clear();
                        scratch.extend(std::iter::repeat(i).take(7));
                        scratch.iter().sum::<usize>()
                    },
                );
                assert_eq!(got, reference, "threads={threads} chunk={chunk}");
            }
        }
    }

    #[test]
    fn serial_path_reuses_one_state() {
        // On the serial path a single state must serve the whole loop —
        // observable through an allocation-counting init.
        let inits = std::sync::atomic::AtomicUsize::new(0);
        let _ = parallel_map_indexed_with(
            100,
            Parallelism::serial(),
            || inits.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            |_, i| i,
        );
        assert_eq!(inits.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn threaded_path_makes_one_state_per_worker() {
        // Two workers, the calling thread included, each call `init` once.
        for n in [2usize, 3, 100] {
            let inits = std::sync::atomic::AtomicUsize::new(0);
            let _ = parallel_map_indexed_with(
                n,
                Parallelism::with_threads(2),
                || inits.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
                |_, i| i,
            );
            assert_eq!(inits.load(std::sync::atomic::Ordering::Relaxed), 2, "n={n}");
        }
    }

    #[test]
    fn results_are_pure_functions_of_index() {
        // Per-index seeding pattern used by the pipeline: derive a value
        // from the index only, so any schedule agrees.
        let f = |i: usize| {
            let mut z = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z ^= z >> 31;
            z
        };
        let a = parallel_map_indexed(257, Parallelism { threads: 5, chunk: 3 }, f);
        let b = parallel_map_indexed(257, Parallelism::serial(), f);
        assert_eq!(a, b);
    }
}
