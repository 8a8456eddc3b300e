//! A Chase–Lev work-stealing pool over index-space tasks.
//!
//! Semantics mirror a `cilk_for` over `0..n`: the index range is split
//! lazily; each worker pops from the bottom of its own deque and steals
//! from the *top* of a random victim's deque when idle (stealing the
//! oldest — and therefore largest — subrange, which is also the
//! least-recently-touched data, the cache-friendliness argument of §V.A).

use crossbeam_deque::{Injector, Steal, Stealer, Worker};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A contiguous index subrange of the task space.
type Chunk = (usize, usize);

/// Counters exposed after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolMetrics {
    /// Successful steals across all workers.
    pub steals: usize,
    /// Tasks executed in total (== `n` of the run).
    pub tasks: usize,
    /// Tasks whose body panicked (contained per task; a panicking task
    /// counts toward completion so sibling workers never spin forever).
    pub panics: usize,
}

/// A fixed-width work-stealing thread pool.
///
/// The pool is created per call site (cheap: threads are scoped); `width`
/// is the number of workers `p`. On a host with fewer cores the pool still
/// *works* — the OS time-slices — it just can't show real speedup, which
/// is why the cluster experiments use [`crate::sim`] for timing instead.
pub struct WorkStealingPool {
    width: usize,
    /// Minimum indices per executed chunk (the `grain`): controls the
    /// task-creation overhead exactly like cilk's grain size.
    grain: usize,
}

impl WorkStealingPool {
    pub fn new(width: usize) -> Self {
        // PANIC-OK: precondition assert — a zero-width pool is a caller bug.
        assert!(width >= 1);
        WorkStealingPool { width, grain: 1 }
    }

    /// Set the splitting grain (indices per leaf task).
    pub fn with_grain(mut self, grain: usize) -> Self {
        assert!(grain >= 1);
        self.grain = grain;
        self
    }

    pub fn width(&self) -> usize {
        self.width
    }

    /// Execute `body(i)` for every `i in 0..n`, dynamically load-balanced.
    /// `body` must be safe to call concurrently for distinct indices.
    ///
    /// A panicking task is contained (`catch_unwind`) and counted in
    /// [`PoolMetrics::panics`]; it still advances the completion counter,
    /// so one bad task never hangs its sibling workers.
    pub fn run<F>(&self, n: usize, body: F) -> PoolMetrics
    where
        F: Fn(usize) + Sync,
    {
        let contained = |i: usize, panics: &AtomicUsize| {
            let guarded = std::panic::AssertUnwindSafe(|| body(i));
            if std::panic::catch_unwind(guarded).is_err() {
                panics.fetch_add(1, Ordering::Relaxed);
            }
        };
        if n == 0 {
            return PoolMetrics::default();
        }
        if self.width == 1 {
            let panics = AtomicUsize::new(0);
            for i in 0..n {
                contained(i, &panics);
            }
            return PoolMetrics {
                steals: 0,
                tasks: n,
                panics: panics.load(Ordering::Relaxed),
            };
        }

        let injector: Injector<Chunk> = Injector::new();
        injector.push((0, n));
        let steals = AtomicUsize::new(0);
        let panics = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);

        let workers: Vec<Worker<Chunk>> = (0..self.width).map(|_| Worker::new_lifo()).collect();
        let stealers: Vec<Stealer<Chunk>> = workers.iter().map(|w| w.stealer()).collect();

        std::thread::scope(|scope| {
            for (wid, worker) in workers.into_iter().enumerate() {
                let injector = &injector;
                let stealers = &stealers;
                let steals = &steals;
                let panics = &panics;
                let done = &done;
                let contained = &contained;
                let grain = self.grain;
                let width = self.width;
                scope.spawn(move || {
                    // Cheap deterministic xorshift for victim selection.
                    let mut rng_state = (wid as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
                    let mut next_victim = move || {
                        rng_state ^= rng_state << 13;
                        rng_state ^= rng_state >> 7;
                        rng_state ^= rng_state << 17;
                        (rng_state as usize) % width
                    };
                    loop {
                        // 1. Own deque first.
                        let chunk = worker.pop().or_else(|| {
                            // 2. Global injector.
                            loop {
                                match injector.steal() {
                                    Steal::Success(c) => return Some(c),
                                    Steal::Empty => return None,
                                    Steal::Retry => continue,
                                }
                            }
                        });
                        let chunk = match chunk {
                            Some(c) => Some(c),
                            None => {
                                // 3. Steal from a random victim's top.
                                let mut found = None;
                                for _ in 0..4 * width {
                                    let v = next_victim();
                                    if v == wid {
                                        continue;
                                    }
                                    match stealers[v].steal() {
                                        Steal::Success(c) => {
                                            steals.fetch_add(1, Ordering::Relaxed);
                                            found = Some(c);
                                            break;
                                        }
                                        Steal::Empty | Steal::Retry => continue,
                                    }
                                }
                                found
                            }
                        };
                        match chunk {
                            Some((lo, hi)) => {
                                let mut hi = hi;
                                // Lazy binary splitting: keep half for
                                // thieves while the chunk is large.
                                while hi - lo > grain {
                                    let mid = lo + (hi - lo) / 2;
                                    worker.push((mid, hi));
                                    hi = mid;
                                }
                                for i in lo..hi {
                                    contained(i, panics);
                                }
                                done.fetch_add(hi - lo, Ordering::Release);
                                // Drain what we pushed (or let thieves).
                            }
                            None => {
                                if done.load(Ordering::Acquire) >= n {
                                    break;
                                }
                                // Yield to the OS rather than spin: on
                                // machines with fewer cores than workers a
                                // busy-wait would starve the worker that
                                // actually holds the remaining work.
                                std::thread::yield_now();
                            }
                        }
                    }
                });
            }
        });

        PoolMetrics {
            steals: steals.load(Ordering::Relaxed),
            tasks: n,
            panics: panics.load(Ordering::Relaxed),
        }
    }

    /// Map `0..n` through `f`, collecting results in index order.
    /// `None` slots mark tasks whose body panicked (count in the returned
    /// metrics); the caller decides whether to re-execute or fail.
    pub fn try_map<T, F>(&self, n: usize, f: F) -> (Vec<Option<T>>, PoolMetrics)
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        // One slot per index, written once by the task that owns it
        // (`run` only hands out `i < n`). A panic in `f(i)` happens before
        // the lock is taken, so no slot is ever poisoned; `into_inner`
        // keeps that from being a panic path anyway.
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let metrics = self.run(n, |i| {
            let v = f(i);
            if let Some(slot) = slots.get(i) {
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(v);
            }
        });
        let out = slots
            .into_iter()
            .map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();
        (out, metrics)
    }
}

impl std::fmt::Debug for WorkStealingPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkStealingPool")
            .field("width", &self.width)
            .field("grain", &self.grain)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn executes_every_index_exactly_once() {
        let n = 10_000;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let pool = WorkStealingPool::new(4);
        let m = pool.run(n, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(m.tasks, n);
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn single_worker_is_sequential() {
        let pool = WorkStealingPool::new(1);
        let sum = AtomicU64::new(0);
        let m = pool.run(1000, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
        assert_eq!(m.steals, 0);
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let pool = WorkStealingPool::new(4);
        let m = pool.run(0, |_| panic!("must not run"));
        assert_eq!(m, PoolMetrics::default());
    }

    #[test]
    fn map_preserves_index_order() {
        let pool = WorkStealingPool::new(3);
        let (v, m) = pool.try_map(257, |i| i * i);
        assert_eq!(m.panics, 0);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, Some(i * i));
        }
    }

    #[test]
    fn grain_respected_and_results_identical() {
        let pool = WorkStealingPool::new(2).with_grain(64);
        let (v, _) = pool.try_map(1000, |i| i + 1);
        assert_eq!(v, (1..=1000).map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn map_of_zero_tasks_is_empty() {
        let pool = WorkStealingPool::new(4);
        let (v, m) = pool.try_map(0, |_| -> usize { panic!("must not run") });
        assert!(v.is_empty());
        assert_eq!(m, PoolMetrics::default());
    }

    #[test]
    fn grain_larger_than_n_runs_everything() {
        // One chunk never splits — a single worker executes all of it.
        let pool = WorkStealingPool::new(4).with_grain(100);
        let counts: Vec<AtomicUsize> = (0..5).map(|_| AtomicUsize::new(0)).collect();
        let m = pool.run(5, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(m.tasks, 5);
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
        let (v, _) = pool.try_map(5, |i| i * 10);
        assert_eq!(v, vec![Some(0), Some(10), Some(20), Some(30), Some(40)]);
    }

    #[test]
    fn panicking_task_is_contained_and_counted() {
        let n = 200;
        let ran: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let pool = WorkStealingPool::new(4);
        let m = pool.run(n, |i| {
            ran[i].fetch_add(1, Ordering::Relaxed);
            if i == 17 || i == 101 {
                panic!("injected");
            }
        });
        assert_eq!(m.panics, 2);
        assert_eq!(m.tasks, n);
        // Every other task still ran exactly once — no hang, no skips.
        for (i, c) in ran.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn panicking_task_contained_on_single_worker() {
        let pool = WorkStealingPool::new(1);
        let m = pool.run(10, |i| {
            if i == 3 {
                panic!("injected");
            }
        });
        assert_eq!(m.panics, 1);
    }

    #[test]
    fn try_map_leaves_none_for_panicked_slots() {
        // Every width, sizes around a power-of-two split, and no panic or
        // one at the first, middle or last index: the other slots hold
        // `f(i)` in index order.
        for width in [1, 2, 3, 8] {
            let pool = WorkStealingPool::new(width);
            for n in [0usize, 1, 63, 64, 65] {
                let mut bad_at = vec![None];
                if n > 0 {
                    bad_at.extend([Some(0), Some(n / 2), Some(n - 1)]);
                    bad_at.dedup();
                }
                for bad in bad_at {
                    let (slots, m) = pool.try_map(n, |i| {
                        if Some(i) == bad {
                            panic!("injected");
                        }
                        i * 3
                    });
                    let want: Vec<Option<usize>> =
                        (0..n).map(|i| (Some(i) != bad).then_some(i * 3)).collect();
                    let case = format!("width {width}, n {n}, panic at {bad:?}");
                    assert_eq!(slots, want, "{case}");
                    assert_eq!(m.panics, usize::from(bad.is_some()), "{case}");
                    assert_eq!(m.tasks, n, "{case}");
                }
            }
        }
    }

    #[test]
    fn uneven_task_costs_still_complete() {
        // A few heavy tasks among many light ones — stealing must cover.
        let n = 512;
        let done = AtomicUsize::new(0);
        let pool = WorkStealingPool::new(4);
        pool.run(n, |i| {
            if i % 100 == 0 {
                // Simulated heavy task.
                let mut acc = 0u64;
                for k in 0..50_000u64 {
                    acc = acc.wrapping_add(k * k);
                }
                std::hint::black_box(acc);
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), n);
    }
}
