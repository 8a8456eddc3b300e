//! Shimmed synchronization primitives.
//!
//! Inside a model every operation here is a schedule point; outside a
//! model each type falls back to its real `std` behavior, so code
//! compiled against the shims still runs normally in plain unit tests.

use crate::rt::{self, Grant, ObjectKind, Op};
use std::sync::{Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Schedule an op against `id` if we're in a model *and* the object was
/// registered in this execution; `None` means "do the real thing".
fn point(id: Option<usize>, mk: impl FnOnce(usize) -> Op) -> Option<Grant> {
    let obj = id?;
    rt::schedule(move || mk(obj))
}

fn lock_clean<T>(m: &StdMutex<T>) -> StdMutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Atomics
// ---------------------------------------------------------------------------

/// Drop-in subset of [`std::sync::atomic`]. Orderings are accepted and
/// forwarded to the fallback path; under the model every access is
/// explored as sequentially consistent (see the crate docs).
pub mod atomic {
    use super::point;
    use crate::rt::{self, ObjectKind, Op};
    pub use std::sync::atomic::Ordering;

    macro_rules! shim_atomic {
        ($name:ident, $std:ty, $int:ty) => {
            /// Model-checked counterpart of the `std` atomic of the
            /// same name.
            #[derive(Debug)]
            pub struct $name {
                inner: $std,
                id: Option<usize>,
            }

            impl $name {
                pub fn new(v: $int) -> Self {
                    Self {
                        inner: <$std>::new(v),
                        id: rt::register_object(ObjectKind::Atomic),
                    }
                }

                pub fn load(&self, order: Ordering) -> $int {
                    point(self.id, |obj| Op::AtomicLoad { obj });
                    self.inner.load(order)
                }

                pub fn store(&self, v: $int, order: Ordering) {
                    point(self.id, |obj| Op::AtomicStore { obj });
                    self.inner.store(v, order);
                }

                pub fn swap(&self, v: $int, order: Ordering) -> $int {
                    point(self.id, |obj| Op::AtomicRmw { obj });
                    self.inner.swap(v, order)
                }

                pub fn fetch_add(&self, v: $int, order: Ordering) -> $int {
                    point(self.id, |obj| Op::AtomicRmw { obj });
                    self.inner.fetch_add(v, order)
                }

                pub fn fetch_sub(&self, v: $int, order: Ordering) -> $int {
                    point(self.id, |obj| Op::AtomicRmw { obj });
                    self.inner.fetch_sub(v, order)
                }

                pub fn compare_exchange(
                    &self,
                    current: $int,
                    new: $int,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$int, $int> {
                    point(self.id, |obj| Op::AtomicRmw { obj });
                    self.inner.compare_exchange(current, new, success, failure)
                }

                pub fn compare_exchange_weak(
                    &self,
                    current: $int,
                    new: $int,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$int, $int> {
                    // The model explores a deterministic machine; weak
                    // spurious failure is not simulated.
                    self.compare_exchange(current, new, success, failure)
                }
            }
        };
    }

    shim_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    shim_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    shim_atomic!(AtomicU32, std::sync::atomic::AtomicU32, u32);

    /// Model-checked counterpart of `std::sync::atomic::AtomicBool`.
    #[derive(Debug)]
    pub struct AtomicBool {
        inner: std::sync::atomic::AtomicBool,
        id: Option<usize>,
    }

    impl AtomicBool {
        pub fn new(v: bool) -> Self {
            Self {
                inner: std::sync::atomic::AtomicBool::new(v),
                id: rt::register_object(ObjectKind::Atomic),
            }
        }

        pub fn load(&self, order: Ordering) -> bool {
            point(self.id, |obj| Op::AtomicLoad { obj });
            self.inner.load(order)
        }

        pub fn store(&self, v: bool, order: Ordering) {
            point(self.id, |obj| Op::AtomicStore { obj });
            self.inner.store(v, order);
        }

        pub fn swap(&self, v: bool, order: Ordering) -> bool {
            point(self.id, |obj| Op::AtomicRmw { obj });
            self.inner.swap(v, order)
        }

        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            point(self.id, |obj| Op::AtomicRmw { obj });
            self.inner.compare_exchange(current, new, success, failure)
        }
    }
}

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Model-checked mutex. `lock` is a schedule point that blocks (in
/// model time) while another model thread holds the lock; the inner
/// `std` mutex is then always uncontended because model threads are
/// serialized.
#[derive(Debug)]
pub struct Mutex<T> {
    inner: StdMutex<T>,
    id: Option<usize>,
}

/// Guard for [`Mutex`]; releases the model-level lock on drop.
pub struct MutexGuard<'a, T> {
    guard: Option<StdMutexGuard<'a, T>>,
    id: Option<usize>,
}

impl<T> Mutex<T> {
    pub fn new(v: T) -> Self {
        Self {
            inner: StdMutex::new(v),
            id: rt::register_object(ObjectKind::Mutex),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        point(self.id, |obj| Op::Lock { obj });
        MutexGuard {
            guard: Some(lock_clean(&self.inner)),
            id: self.id,
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present until drop")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present until drop")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Free the real lock first so the model-level Unlock (which may
        // immediately enable another thread's Lock) finds it available.
        self.guard.take();
        if let Some(obj) = self.id {
            rt::schedule_in_drop(move || Op::Unlock { obj });
        }
    }
}

// ---------------------------------------------------------------------------
// Channels
// ---------------------------------------------------------------------------

/// Crossbeam-flavoured MPSC channels (`unbounded` / `bounded`) with
/// model-aware blocking, `try_send`, and semantic `recv_timeout`.
pub mod channel {
    use super::{lock_clean, point};
    use crate::rt::{self, Grant, ObjectKind, Op};
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar};
    use std::time::Duration;

    struct Inner<T> {
        q: super::StdMutex<VecDeque<T>>,
        cv: Condvar,
        cap: Option<usize>,
        /// Fallback-path sender count (model path uses shadow state).
        senders: AtomicUsize,
        id: Option<usize>,
    }

    /// Sending half; clonable.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// Receiving half.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiver outlived every sender and the queue drained.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Why `recv_timeout` returned without a message.
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    /// Why `try_send` could not enqueue.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on channel"),
                RecvTimeoutError::Disconnected => write!(f, "channel disconnected"),
            }
        }
    }

    fn new_channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            q: super::StdMutex::new(VecDeque::new()),
            cv: Condvar::new(),
            cap,
            senders: AtomicUsize::new(1),
            id: rt::register_object(ObjectKind::Chan { cap }),
        });
        (
            Sender {
                inner: Arc::clone(&inner),
            },
            Receiver { inner },
        )
    }

    /// Channel with unlimited queueing.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_channel(None)
    }

    /// Channel holding at most `cap` in-flight messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        new_channel(Some(cap))
    }

    impl<T> Sender<T> {
        /// Blocking send (blocks in model time when bounded and full).
        pub fn send(&self, v: T) {
            match point(self.inner.id, |obj| Op::ChanSend { obj }) {
                Some(_) => {
                    lock_clean(&self.inner.q).push_back(v);
                }
                None => {
                    let mut q = lock_clean(&self.inner.q);
                    while self.inner.cap.map(|c| q.len() >= c).unwrap_or(false) {
                        q = self.inner.cv.wait(q).unwrap_or_else(|e| e.into_inner());
                    }
                    q.push_back(v);
                    self.inner.cv.notify_all();
                }
            }
        }

        /// Non-blocking send; fails immediately at capacity.
        pub fn try_send(&self, v: T) -> Result<(), TrySendError<T>> {
            match point(self.inner.id, |obj| Op::ChanTrySend { obj }) {
                Some(Grant::Full) => Err(TrySendError::Full(v)),
                Some(_) => {
                    lock_clean(&self.inner.q).push_back(v);
                    Ok(())
                }
                None => {
                    let mut q = lock_clean(&self.inner.q);
                    if self.inner.cap.map(|c| q.len() >= c).unwrap_or(false) {
                        return Err(TrySendError::Full(v));
                    }
                    q.push_back(v);
                    self.inner.cv.notify_all();
                    Ok(())
                }
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.senders.fetch_add(1, Ordering::SeqCst);
            rt::note_sender_clone(self.inner.id);
            Sender {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            self.inner.senders.fetch_sub(1, Ordering::SeqCst);
            if let Some(obj) = self.inner.id {
                rt::schedule_in_drop(move || Op::ChanSenderDrop { obj });
            }
            self.inner.cv.notify_all();
        }
    }

    impl<T> Receiver<T> {
        /// Blocking receive. In a model this is only granted when a
        /// message exists or every sender has dropped — a receive that
        /// can never be satisfied is reported as a deadlock.
        pub fn recv(&self) -> Result<T, RecvError> {
            match point(self.inner.id, |obj| Op::ChanRecv { obj, timeout: None }) {
                Some(Grant::Deliver) => Ok(lock_clean(&self.inner.q)
                    .pop_front()
                    .expect("model granted Deliver on an empty queue")),
                Some(_) => Err(RecvError),
                None => {
                    let mut q = lock_clean(&self.inner.q);
                    loop {
                        if let Some(v) = q.pop_front() {
                            self.inner.cv.notify_all();
                            return Ok(v);
                        }
                        if self.inner.senders.load(Ordering::SeqCst) == 0 {
                            return Err(RecvError);
                        }
                        q = self.inner.cv.wait(q).unwrap_or_else(|e| e.into_inner());
                    }
                }
            }
        }

        /// Receive with a timeout. The model does not simulate real
        /// time — timeouts fire *semantically* (see crate docs) — but
        /// the duration's relative magnitude is honoured: when several
        /// threads are timeout-blocked at once, only the shortest
        /// windows may fire. The fallback path uses the real clock.
        pub fn recv_timeout(&self, dur: Duration) -> Result<T, RecvTimeoutError> {
            let ms = u64::try_from(dur.as_millis()).unwrap_or(u64::MAX);
            match point(self.inner.id, |obj| Op::ChanRecv { obj, timeout: Some(ms) }) {
                Some(Grant::Deliver) => Ok(lock_clean(&self.inner.q)
                    .pop_front()
                    // PANIC-OK: the model granted Deliver only with a non-empty queue; an empty pop is a checker bug.
                    .expect("model granted Deliver on an empty queue")),
                Some(Grant::Timeout) => Err(RecvTimeoutError::Timeout),
                Some(_) => Err(RecvTimeoutError::Disconnected),
                None => {
                    let deadline = std::time::Instant::now() + dur;
                    let mut q = lock_clean(&self.inner.q);
                    loop {
                        if let Some(v) = q.pop_front() {
                            self.inner.cv.notify_all();
                            return Ok(v);
                        }
                        if self.inner.senders.load(Ordering::SeqCst) == 0 {
                            return Err(RecvTimeoutError::Disconnected);
                        }
                        let now = std::time::Instant::now();
                        if now >= deadline {
                            return Err(RecvTimeoutError::Timeout);
                        }
                        let (g, _) = self
                            .inner
                            .cv
                            .wait_timeout(q, deadline - now)
                            .unwrap_or_else(|e| e.into_inner());
                        q = g;
                    }
                }
            }
        }
    }
}

// Compile-time check that the shims stay Send/Sync like the real
// primitives they stand in for.
fn _assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<atomic::AtomicUsize>();
    check::<Mutex<Vec<u8>>>();
    check::<channel::Sender<u32>>();
    check::<channel::Receiver<u32>>();
}
