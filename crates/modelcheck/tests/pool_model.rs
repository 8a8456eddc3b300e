//! Exhaustive model of the work-stealing pool's termination and
//! exactly-once protocol (`polaroct-sched/src/pool.rs`).
//!
//! The model mirrors the real structure move for move: per-worker
//! deques and a global injector are `Mutex<VecDeque<Chunk>>` — exactly
//! what the vendored `crossbeam-deque` shim is — with lazy binary
//! splitting, LIFO own-pops, FIFO steals, a `done` counter published
//! with the same load/fetch_add pattern, and the idle path's
//! `yield_now` spin. Two workers over `n = 3` indices is small enough
//! to enumerate completely and large enough to contain every protocol
//! interaction: split-then-steal, steal-from-splitter, double-steal,
//! and the termination read racing a final `done` increment.
//!
//! Checked properties, over every interleaving:
//! * every index is executed **exactly once** ([`WriteOnce`] slots);
//! * the pool **terminates** (no lost-work spin: a livelock shows up as
//!   a deadlock of yield-parked workers);
//! * a poisoned (panicking) task is contained: it still advances `done`
//!   so sibling workers never hang, and only its own slot stays empty.
//!
//! A deliberately broken variant (poisoned task forgets the `done`
//! increment) must be caught — that guards the model's teeth.
//!
//! The suites run preemption-bounded (≤ 2 preemptive switches, the
//! CHESS bound): every schedule reachable with at most two adversarial
//! preemptions is covered; switches forced by blocking are free and
//! unlimited. The engine's own tests verify full exhaustiveness on
//! smaller models with the bound disabled.

use polaroct_modelcheck::cell::WriteOnce;
use polaroct_modelcheck::sync::atomic::{AtomicUsize, Ordering};
use polaroct_modelcheck::sync::Mutex;
use polaroct_modelcheck::{explore, model_with, thread, Config, Failure};
use std::collections::VecDeque;
use std::sync::Arc;

type Chunk = (usize, usize);

struct PoolState {
    injector: Mutex<VecDeque<Chunk>>,
    deques: Vec<Mutex<VecDeque<Chunk>>>,
    done: AtomicUsize,
    panics: AtomicUsize,
    slots: Vec<WriteOnce<usize>>,
    n: usize,
    /// Index whose task "panics" (contained, like `catch_unwind`).
    poison: Option<usize>,
    /// Bug injection: poisoned task skips the `done` increment.
    poison_skips_done: bool,
}

fn new_pool(workers: usize, n: usize, poison: Option<usize>, poison_skips_done: bool) -> PoolState {
    let mut injector = VecDeque::new();
    injector.push_back((0, n));
    PoolState {
        injector: Mutex::new(injector),
        deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
        done: AtomicUsize::new(0),
        panics: AtomicUsize::new(0),
        slots: (0..n).map(|_| WriteOnce::new()).collect(),
        n,
        poison,
        poison_skips_done,
    }
}

fn worker(st: &PoolState, wid: usize) {
    let width = st.deques.len();
    loop {
        // 1. Own deque, LIFO (bottom).
        let mut chunk = st.deques[wid].lock().pop_back();
        // 2. Global injector, FIFO.
        if chunk.is_none() {
            chunk = st.injector.lock().pop_front();
        }
        // 3. Steal from the victims' top, FIFO (deterministic order in
        //    the model; the real pool randomizes, which only permutes
        //    schedules the explorer enumerates anyway).
        if chunk.is_none() {
            for v in 0..width {
                if v == wid {
                    continue;
                }
                chunk = st.deques[v].lock().pop_front();
                if chunk.is_some() {
                    break;
                }
            }
        }
        match chunk {
            Some((lo, hi)) => {
                // Lazy binary splitting: keep half for thieves.
                let mut hi = hi;
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    st.deques[wid].lock().push_back((mid, hi));
                    hi = mid;
                }
                // Execute index `lo` (chunks split to single indices ⇒ hi == lo + 1).
                if st.poison == Some(lo) {
                    st.panics.fetch_add(1, Ordering::SeqCst);
                    if st.poison_skips_done {
                        continue; // BUG variant: lost completion credit
                    }
                } else {
                    st.slots[lo].set(wid);
                }
                st.done.fetch_add(1, Ordering::SeqCst);
            }
            None => {
                if st.done.load(Ordering::SeqCst) >= st.n {
                    break;
                }
                thread::yield_now();
            }
        }
    }
}

fn run_pool(workers: usize, n: usize, poison: Option<usize>, poison_skips_done: bool) {
    let st = Arc::new(new_pool(workers, n, poison, poison_skips_done));
    let handles: Vec<_> = (0..workers)
        .map(|wid| {
            let st = Arc::clone(&st);
            thread::spawn(move || worker(&st, wid))
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Joins publish the workers' writes to this thread.
    assert_eq!(st.done.load(Ordering::SeqCst), n, "termination credit");
    let expected_panics = usize::from(poison.is_some());
    assert_eq!(st.panics.load(Ordering::SeqCst), expected_panics);
    for (i, slot) in st.slots.iter().enumerate() {
        if poison == Some(i) {
            assert!(!slot.is_set(), "poisoned slot {i} must stay empty");
        } else {
            assert!(slot.is_set(), "index {i} never executed");
        }
    }
}

#[test]
fn two_workers_execute_every_index_exactly_once() {
    model_with(
        Config {
            max_executions: 400_000,
            max_preemptions: Some(2),
            ..Config::default()
        },
        || run_pool(2, 3, None, false),
    );
}

#[test]
fn poisoned_task_is_contained_and_pool_still_terminates() {
    model_with(
        Config {
            max_executions: 400_000,
            max_preemptions: Some(2),
            ..Config::default()
        },
        || run_pool(2, 3, Some(1), false),
    );
}

#[test]
fn losing_the_done_credit_for_a_poisoned_task_hangs_the_pool() {
    // The bug the containment design exists to prevent: if a panicking
    // task does not advance `done`, idle workers spin forever. With two
    // spinners each re-check wakes the other, so the hang surfaces as a
    // livelock (step-bound blowup); a single stuck spinner would be a
    // yield-deadlock. Either way the explorer must flag it.
    let report = explore(
        Config {
            max_executions: 400_000,
            max_preemptions: Some(2),
            ..Config::default()
        },
        || run_pool(2, 3, Some(1), true),
    );
    match report.failure {
        Some(Failure::Deadlock { .. }) | Some(Failure::StepBound { .. }) => {}
        other => panic!("expected the lost-credit hang to be caught, got {other:?}"),
    }
}
