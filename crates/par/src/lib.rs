//! Dependency-free data parallelism for the `xhybrid` workspace.
//!
//! The partition engine's hot loops (candidate-split evaluation, child
//! partition re-analysis, per-partition mask extraction) are
//! embarrassingly parallel, but the workspace builds fully offline — no
//! `rayon`. This crate provides the small slice of a work-stealing pool
//! the engine actually needs, built on [`std::thread::scope`] (the same
//! no-external-deps precedent as `xhc-prng`):
//!
//! * [`par_map_scratch_threads`] — the one scheduler: map a function
//!   over a slice on up to `threads` scoped workers, each with exclusive
//!   use of one caller-owned scratch object, returning results **in
//!   input order** regardless of scheduling;
//! * [`par_map_threads`] — the same without scratch;
//! * [`par_shard_reduce_threads`] — split an index range into contiguous
//!   shards, map each shard on the pool, and fold the partial results
//!   **in shard order**, for reductions that must parallelize *inside*
//!   one logical task (e.g. one split candidate's superset sweep) without
//!   perturbing the result;
//! * [`max_threads`] — the default width: the `XHC_THREADS` environment
//!   variable when set, otherwise [`std::thread::available_parallelism`];
//! * [`MIN_WORKER_WORDS`] — the one fan-out floor: a caller gives no
//!   worker fewer than this many 64-bit word operations.
//!
//! Every helper takes its width from the caller; `threads <= 1` runs on
//! the caller's thread. Determinism is the contract: every helper
//! returns exactly what the sequential equivalent
//! (`items.iter().map(f).collect()`) returns, in the same order, for
//! every thread count. Callers that fold the results sequentially
//! therefore produce bit-identical outputs at 1 and N threads — the
//! property the partition engine's equivalence suite checks.
//!
//! Work distribution is an atomic index counter (dynamic self-scheduling)
//! so unevenly-sized tasks — split candidates whose partitions differ
//! wildly in X population — balance without a size oracle.
//!
//! Every worker closure drains its `xhc-trace` thread buffer
//! ([`xhc_trace::flush_thread`]) just before it returns, so spans and
//! counters recorded on workers reach the trace sink deterministically at
//! the join point — a traced parallel section never loses worker events.
//!
//! # Examples
//!
//! ```
//! let squares = xhc_par::par_map_threads(2, &[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Environment variable overriding the default pool width.
const THREADS_ENV: &str = "XHC_THREADS";

/// Fewest word operations worth one worker of a scoped fan-out: a spawn
/// and join cost about as much as this many 64-bit word tests. Callers
/// size their fan-out so no worker gets less.
pub const MIN_WORKER_WORDS: usize = 1 << 16;

/// The default pool width: `XHC_THREADS` when set to a positive integer,
/// otherwise the machine's available parallelism (at least 1).
///
/// Read once and cached for the process lifetime. The helpers never read
/// it: a caller resolves its width here once (for an "automatic" setting
/// such as `threads = 0`) and passes that width to every helper.
pub fn max_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        if let Ok(v) = std::env::var(THREADS_ENV) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
        std::thread::available_parallelism().map_or(1, usize::from)
    })
}

/// Maps `f` over `items` on up to `threads` scoped workers, returning
/// results in input order. `threads <= 1` (or a short input) runs
/// sequentially on the caller's thread; the output is identical either
/// way.
pub fn par_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_scratch_threads(threads, &mut Vec::<()>::new(), items, |_, t| f(t))
}

/// Maps `f` over `items` on up to `threads` scoped workers, handing each
/// worker exclusive `&mut` access to one scratch object from `pool`.
///
/// The pool is grown with [`Default`] scratch objects up to the worker
/// count and retained by the caller, so buffers allocated by one call
/// (e.g. the partition engine's per-candidate word buffers) are reused by
/// every later call — the steady state allocates nothing. Results come
/// back in input order; `threads <= 1` (or a short input) runs
/// sequentially on the caller's thread with `pool[0]`, and the output is
/// identical either way for any `f` whose result does not depend on the
/// scratch contents it inherits.
pub fn par_map_scratch_threads<T, R, S, F>(
    threads: usize,
    pool: &mut Vec<S>,
    items: &[T],
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    S: Default + Send,
    F: Fn(&mut S, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = threads.clamp(1, items.len());
    while pool.len() < workers {
        pool.push(S::default());
    }
    if workers == 1 {
        let scratch = &mut pool[0];
        return items.iter().map(|t| f(scratch, t)).collect();
    }

    // Dynamic self-scheduling: workers claim the next unclaimed index, so
    // uneven task costs balance. Each worker keeps `(index, result)`
    // pairs; the pairs are re-placed by index afterwards, which makes the
    // output order independent of scheduling.
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);

    let buckets = std::thread::scope(|scope| {
        let handles: Vec<_> = pool
            .iter_mut()
            .take(workers)
            .map(|scratch| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(scratch, &items[i])));
                    }
                    xhc_trace::flush_thread();
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("xhc-par worker panicked"))
            .collect::<Vec<_>>()
    });

    for (i, r) in buckets.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} claimed twice");
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index processed"))
        .collect()
}

/// Splits `0..len` into `shards` contiguous, near-equal index ranges,
/// maps each range on up to `threads` scoped workers, and folds the
/// partial results over `init` **in shard order**.
///
/// This is the primitive for parallelizing *inside* one logical task — a
/// reduction whose partial results are combined with an associative fold
/// whose operand order must not depend on scheduling. Because every
/// shard covers a fixed contiguous range and the fold always runs
/// `init ⊕ r₀ ⊕ r₁ ⊕ …` left-to-right, the result is identical for every
/// `threads` value (only *which worker* computes a shard varies), and for
/// commutative-associative `fold` (integer sums) it is also identical
/// for every `shards` value.
///
/// `shards` is clamped to `1..=len`; `shards <= 1` (or `len <= 1`)
/// degenerates to `fold(init, map(0..len))` on the caller's thread with
/// no pool involvement. `len == 0` returns `init` untouched.
///
/// # Examples
///
/// ```
/// let data: Vec<u64> = (0..100).collect();
/// let sum = xhc_par::par_shard_reduce_threads(
///     4,
///     data.len(),
///     3,
///     0u64,
///     |range| data[range].iter().sum::<u64>(),
///     |acc, part| acc + part,
/// );
/// assert_eq!(sum, (0..100).sum());
/// ```
pub fn par_shard_reduce_threads<R, M, F>(
    threads: usize,
    len: usize,
    shards: usize,
    init: R,
    map: M,
    fold: F,
) -> R
where
    R: Send,
    M: Fn(std::ops::Range<usize>) -> R + Sync,
    F: Fn(R, R) -> R,
{
    if len == 0 {
        return init;
    }
    let shards = shards.clamp(1, len);
    if shards <= 1 {
        return fold(init, map(0..len));
    }
    // Near-equal bands: the first `len % shards` bands get one extra
    // index, so band boundaries are a pure function of (len, shards).
    let base = len / shards;
    let extra = len % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0usize;
    for s in 0..shards {
        let band = base + usize::from(s < extra);
        ranges.push(start..start + band);
        start += band;
    }
    debug_assert_eq!(start, len);
    let partials = par_map_threads(threads, &ranges, |r| map(r.clone()));
    partials.into_iter().fold(init, fold)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_sequential_for_every_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = par_map_threads(threads, &items, |&x| x * 3 + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_map_empty_and_singleton() {
        let empty: Vec<u32> = vec![];
        assert!(par_map_threads(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map_threads(4, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_handles_uneven_costs() {
        // Tasks with wildly different costs still land in input order.
        let items: Vec<usize> = (0..64).collect();
        let got = par_map_threads(4, &items, |&i| {
            let spin = if i % 7 == 0 { 10_000 } else { 10 };
            let mut acc = i as u64;
            for k in 0..spin {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            (i, acc)
        });
        for (i, (gi, _)) in got.iter().enumerate() {
            assert_eq!(i, *gi);
        }
    }

    #[test]
    fn par_map_scratch_matches_sequential_and_reuses_pool() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8] {
            let mut pool: Vec<Vec<u64>> = Vec::new();
            let got = par_map_scratch_threads(threads, &mut pool, &items, |scratch, &x| {
                // Use the scratch as a working buffer without assuming
                // anything about its prior contents.
                scratch.clear();
                scratch.push(x);
                scratch[0] * 3 + 1
            });
            assert_eq!(got, expect, "threads={threads}");
            assert!(!pool.is_empty());
            assert!(pool.len() <= threads.max(1));
            // A second call reuses the same pool without growing it.
            let before = pool.len();
            let again = par_map_scratch_threads(threads, &mut pool, &items, |scratch, &x| {
                scratch.clear();
                scratch.push(x);
                scratch[0] * 3 + 1
            });
            assert_eq!(again, expect);
            assert_eq!(pool.len(), before);
        }
    }

    #[test]
    fn par_map_scratch_empty_input_leaves_pool_unchanged() {
        let mut pool: Vec<u8> = Vec::new();
        let empty: Vec<u32> = vec![];
        let got = par_map_scratch_threads(4, &mut pool, &empty, |_, &x| x);
        assert!(got.is_empty());
        assert!(pool.is_empty());
    }

    #[test]
    fn shard_reduce_matches_sequential_for_every_shape() {
        let data: Vec<u64> = (0..257).map(|i| i * 7 + 3).collect();
        let want: u64 = data.iter().sum();
        for shards in [1usize, 2, 3, 8, 64, 300] {
            for threads in [1usize, 2, 8] {
                let got = par_shard_reduce_threads(
                    threads,
                    data.len(),
                    shards,
                    0u64,
                    |r| data[r].iter().sum::<u64>(),
                    |a, b| a + b,
                );
                assert_eq!(got, want, "shards={shards} threads={threads}");
            }
        }
    }

    #[test]
    fn shard_reduce_folds_in_shard_order() {
        // A non-commutative fold (concatenation) exposes any ordering
        // slip: the bands must come back 0..len in order.
        let concat = par_shard_reduce_threads(
            4,
            10,
            3,
            Vec::new(),
            |r| r.collect::<Vec<usize>>(),
            |mut acc: Vec<usize>, mut part| {
                acc.append(&mut part);
                acc
            },
        );
        assert_eq!(concat, (0..10).collect::<Vec<usize>>());
    }

    #[test]
    fn shard_reduce_empty_and_oversharded() {
        let got = par_shard_reduce_threads(4, 0, 8, 42u64, |_| unreachable!(), |a, b| a + b);
        assert_eq!(got, 42);
        // More shards than items: clamped to one index per shard.
        let got = par_shard_reduce_threads(4, 2, 100, 0usize, |r| r.len(), |a, b| a + b);
        assert_eq!(got, 2);
    }

    #[test]
    fn width_one_runs_every_item_on_the_caller_thread() {
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..64).collect();
        let on_caller = |_: &u64| std::thread::current().id() == caller;
        assert!(par_map_threads(1, &items, on_caller).into_iter().all(|b| b));
        let mut pool: Vec<u8> = Vec::new();
        let got = par_map_scratch_threads(1, &mut pool, &items, |_, x| on_caller(x));
        assert!(got.into_iter().all(|b| b));
        assert_eq!(pool.len(), 1);
        let all = par_shard_reduce_threads(
            1,
            items.len(),
            8,
            true,
            |_| std::thread::current().id() == caller,
            |a, b| a && b,
        );
        assert!(all);
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn workers_drain_trace_buffers_at_the_join_point() {
        let Some(session) = xhc_trace::TraceSession::begin() else {
            panic!("another trace session is active");
        };
        let items: Vec<u64> = (0..32).collect();
        let got = par_map_threads(4, &items, |&x| {
            let _span = xhc_trace::span("par.test.item");
            xhc_trace::counter_add("par.test.items", 1);
            x + 1
        });
        assert_eq!(got.len(), 32);
        let trace = session.finish();
        assert_eq!(trace.spans("par.test.item").count(), 32);
        assert_eq!(trace.counter("par.test.items"), Some(32));
    }
}
