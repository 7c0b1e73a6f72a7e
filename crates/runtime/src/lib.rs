//! Deterministic parallel execution for the round engine.
//!
//! Every algorithm in this workspace has the same round shape: a
//! *compute phase* where each worker runs an independent local step
//! (SGD on its own model, with its own RNG, over its own data shard),
//! followed by an *exchange phase* that combines the already-computed
//! results. The compute phase is embarrassingly parallel; this crate is
//! the execution layer that fans it out across OS threads without
//! changing a single bit of the result.
//!
//! The crate is dependency-free on purpose (this build environment has
//! no crates.io access): [`Executor::par_map`] is a scoped fork-join
//! built directly on [`std::thread::scope`]. Threads are spawned per
//! call; for the workloads this repo runs (a full forward/backward pass
//! per worker per round) the spawn cost is noise next to the compute.
//!
//! # Determinism
//!
//! [`Executor::par_map`] partitions the items into contiguous chunks,
//! one per thread, and writes each result into a slot indexed by the
//! item's original position. The mapping from item to invocation
//! (`f(index, item)`) and the order of the returned vector are therefore
//! independent of the thread count and of OS scheduling. As long as `f`
//! itself is deterministic per item — true for every per-worker step in
//! this workspace, because each worker owns its model, data shard and
//! RNG — a run at [`ParallelismPolicy::Threads`]`(n)` is bit-identical
//! to a run at [`ParallelismPolicy::Sequential`]. The workspace enforces
//! this with a conformance test over all eight algorithms
//! (`tests/trainer_conformance.rs`).
//!
//! # Example
//!
//! ```
//! use saps_runtime::{Executor, ParallelismPolicy};
//!
//! let mut cells = vec![1u64, 2, 3, 4, 5];
//! let exec = Executor::new(ParallelismPolicy::Threads(3));
//! let doubled = exec.par_map(cells.iter_mut().collect(), |i, c| {
//!     *c *= 2; // mutate in place…
//!     *c + i as u64 // …and return a per-item result, in item order
//! });
//! assert_eq!(doubled, vec![2, 5, 8, 11, 14]);
//! assert_eq!(cells, vec![2, 4, 6, 8, 10]);
//!
//! // The same map on one thread produces the identical result.
//! let seq = Executor::sequential();
//! let mut cells2 = vec![2u64, 4, 6, 8, 10];
//! assert_eq!(seq.par_map(cells2.iter_mut().collect(), |i, c| *c + i as u64), doubled);
//! ```

#![deny(missing_docs)]

/// How many OS threads the round engine may use for per-worker compute.
///
/// The default is [`ParallelismPolicy::Auto`]: use every core the
/// machine offers. [`ParallelismPolicy::Sequential`] exists for
/// debugging (single-stepping, profiling one worker, bisecting) — it is
/// *not* needed for reproducibility, because parallel runs are
/// bit-identical to sequential ones by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelismPolicy {
    /// One worker at a time on the calling thread (debugging only).
    Sequential,
    /// Exactly `n` threads (clamped to at least 1).
    Threads(usize),
    /// One thread per available core, capped by the `SAPS_THREADS`
    /// environment variable when set (how CI pins the suite to a given
    /// thread count without touching code).
    #[default]
    Auto,
}

impl ParallelismPolicy {
    /// Resolves the policy to a concrete thread count (>= 1).
    pub fn resolve(self) -> usize {
        match self {
            ParallelismPolicy::Sequential => 1,
            ParallelismPolicy::Threads(n) => n.max(1),
            ParallelismPolicy::Auto => {
                if let Some(n) = std::env::var("SAPS_THREADS")
                    .ok()
                    .and_then(|v| v.parse::<usize>().ok())
                {
                    return n.max(1);
                }
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            }
        }
    }
}

/// Parses a `--threads` value: `seq` / `sequential` / `1`, `auto`, or a
/// thread count `N`.
impl std::str::FromStr for ParallelismPolicy {
    type Err = std::num::ParseIntError;

    fn from_str(value: &str) -> Result<Self, Self::Err> {
        match value {
            "seq" | "sequential" | "1" => Ok(ParallelismPolicy::Sequential),
            "auto" => Ok(ParallelismPolicy::Auto),
            n => n.parse().map(ParallelismPolicy::Threads),
        }
    }
}

/// The execution lane for per-worker compute: a resolved thread count
/// plus the scoped fork-join that uses it.
///
/// `Executor` is `Copy` — it carries configuration, not threads; the
/// threads live only for the duration of one [`Executor::par_map`]
/// call (scoped, so borrowed data may cross into them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor for `policy`, resolved now (so `Auto` reads the
    /// environment once, not per round).
    pub fn new(policy: ParallelismPolicy) -> Self {
        Executor {
            threads: policy.resolve(),
        }
    }

    /// The single-threaded executor ([`ParallelismPolicy::Sequential`]).
    pub fn sequential() -> Self {
        Executor { threads: 1 }
    }

    /// The resolved thread count (>= 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, fanning out across up to
    /// [`Executor::threads`] scoped threads, and returns the results in
    /// item order.
    ///
    /// `f` receives the item's original index and the item by value
    /// (pass `&mut T`s to mutate in place). Items are split into
    /// contiguous chunks, one chunk per thread, so the assignment of
    /// items to invocations and the output order never depend on
    /// scheduling — see the crate docs for the determinism contract.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        let threads = self.threads.min(n);
        if threads <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }
        let chunk = n.div_ceil(threads);
        // Chunk the (index, item) pairs up front so each thread owns its
        // inputs and writes into a disjoint slice of the output.
        let mut batches: Vec<Vec<(usize, T)>> = Vec::with_capacity(threads);
        let mut current = Vec::with_capacity(chunk);
        for pair in items.into_iter().enumerate() {
            current.push(pair);
            if current.len() == chunk {
                batches.push(std::mem::replace(&mut current, Vec::with_capacity(chunk)));
            }
        }
        if !current.is_empty() {
            batches.push(current);
        }
        let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
        let f = &f;
        std::thread::scope(|scope| {
            for (slots, batch) in out.chunks_mut(chunk).zip(batches) {
                scope.spawn(move || {
                    for (slot, (i, item)) in slots.iter_mut().zip(batch) {
                        *slot = Some(f(i, item));
                    }
                });
            }
        });
        out.into_iter()
            .map(|r| r.expect("par_map slot not filled"))
            .collect()
    }

    /// Splits `items` into consecutive micro-batches of at most
    /// `batch_size` items, fans the *batches* out with
    /// [`Executor::par_map`], and returns one result per batch, in batch
    /// order.
    ///
    /// This is the serving-plane entry point (`saps-serve` drains each
    /// replica's request queue through it): batching amortizes per-call
    /// overhead while the contiguous split keeps the batch composition —
    /// and therefore every batched forward pass — independent of the
    /// thread count. `f` receives the batch index and the owned batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size` is 0.
    pub fn par_map_batches<T, R, F>(&self, items: Vec<T>, batch_size: usize, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, Vec<T>) -> R + Sync,
    {
        assert!(batch_size > 0, "batch_size must be >= 1");
        let mut batches: Vec<Vec<T>> = Vec::with_capacity(items.len().div_ceil(batch_size));
        let mut current = Vec::with_capacity(batch_size.min(items.len()));
        for item in items {
            current.push(item);
            if current.len() == batch_size {
                batches.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            batches.push(current);
        }
        self.par_map(batches, f)
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new(ParallelismPolicy::Auto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn policies_resolve_to_at_least_one_thread() {
        assert_eq!(ParallelismPolicy::Sequential.resolve(), 1);
        assert_eq!(ParallelismPolicy::Threads(4).resolve(), 4);
        assert_eq!(ParallelismPolicy::Threads(0).resolve(), 1);
        assert!(ParallelismPolicy::Auto.resolve() >= 1);
    }

    #[test]
    fn policy_parsing() {
        assert_eq!("seq".parse(), Ok(ParallelismPolicy::Sequential));
        assert_eq!("sequential".parse(), Ok(ParallelismPolicy::Sequential));
        assert_eq!("1".parse(), Ok(ParallelismPolicy::Sequential));
        assert_eq!("auto".parse(), Ok(ParallelismPolicy::Auto));
        assert_eq!("4".parse(), Ok(ParallelismPolicy::Threads(4)));
        assert!("bogus".parse::<ParallelismPolicy>().is_err());
    }

    #[test]
    fn par_map_preserves_item_order() {
        for threads in [1usize, 2, 3, 7, 64] {
            let exec = Executor::new(ParallelismPolicy::Threads(threads));
            let items: Vec<usize> = (0..23).collect();
            let out = exec.par_map(items, |i, v| {
                assert_eq!(i, v);
                v * 3
            });
            assert_eq!(
                out,
                (0..23).map(|v| v * 3).collect::<Vec<_>>(),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn par_map_runs_every_item_exactly_once() {
        let hits = AtomicUsize::new(0);
        let exec = Executor::new(ParallelismPolicy::Threads(5));
        let out = exec.par_map((0..100).collect::<Vec<_>>(), |_, v: i32| {
            hits.fetch_add(1, Ordering::Relaxed);
            v
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn par_map_mutates_through_references() {
        let mut data = vec![0u32; 17];
        let exec = Executor::new(ParallelismPolicy::Threads(4));
        exec.par_map(data.iter_mut().collect(), |i, slot: &mut u32| {
            *slot = i as u32 + 1;
        });
        assert_eq!(data, (1..=17).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        // A float reduction per item (not across items) must be
        // bit-identical at any thread count.
        let work = |_: usize, k: u64| -> f32 {
            let mut acc = 0.0f32;
            let mut x = k as f32 + 0.5;
            for _ in 0..1000 {
                x = (x * 1.000_1).sin();
                acc += x;
            }
            acc
        };
        let items: Vec<u64> = (0..31).collect();
        let seq = Executor::sequential().par_map(items.clone(), work);
        for threads in [2usize, 4, 8] {
            let par =
                Executor::new(ParallelismPolicy::Threads(threads)).par_map(items.clone(), work);
            assert_eq!(seq, par, "{threads} threads");
        }
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let exec = Executor::new(ParallelismPolicy::Threads(8));
        let empty: Vec<u8> = Vec::new();
        assert!(exec.par_map(empty, |_, v: u8| v).is_empty());
        assert_eq!(exec.par_map(vec![9u8], |i, v| (i, v)), vec![(0, 9u8)]);
    }

    #[test]
    fn par_map_batches_splits_contiguously_at_any_width() {
        // 10 items at batch 4 → [0..4), [4..8), [8..10) — the same
        // batches whatever the thread count, so batched forwards stay
        // bit-identical.
        let expect = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7], vec![8, 9]];
        for threads in [1usize, 2, 3, 8] {
            let exec = Executor::new(ParallelismPolicy::Threads(threads));
            let got = exec.par_map_batches((0..10).collect::<Vec<i32>>(), 4, |bi, batch| {
                assert_eq!(batch, expect[bi]);
                batch
            });
            assert_eq!(got, expect, "{threads} threads");
        }
    }

    #[test]
    fn par_map_batches_handles_edges() {
        let exec = Executor::new(ParallelismPolicy::Threads(4));
        let empty: Vec<u8> = Vec::new();
        assert!(exec.par_map_batches(empty, 3, |_, b| b).is_empty());
        // batch_size larger than the input → one batch.
        let one = exec.par_map_batches(vec![1u8, 2], 100, |bi, b| (bi, b));
        assert_eq!(one, vec![(0, vec![1u8, 2])]);
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn par_map_batches_rejects_zero_batch() {
        Executor::sequential().par_map_batches(vec![1], 0, |_, b: Vec<i32>| b);
    }
}
