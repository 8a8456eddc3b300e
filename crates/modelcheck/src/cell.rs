//! Race-detecting cells.
//!
//! [`RaceCell`] models a plain (non-atomic) memory location: the
//! explorer checks every access pair for a happens-before edge via
//! vector clocks and reports a data race when two threads touch the
//! cell concurrently (unless both accesses are reads). This is the
//! model-world stand-in for a plain shared write with no lock around it.
//!
//! [`WriteOnce`] adds the pool's exactly-once delivery invariant on
//! top: a second write to the same slot fails the model even if the
//! two writes happen to be ordered.

use crate::rt::{self, ObjectKind, Op};
use std::sync::Mutex as StdMutex;

/// A shared memory location with happens-before race checking.
#[derive(Debug)]
pub struct RaceCell<T> {
    inner: StdMutex<T>,
    id: Option<usize>,
}

impl<T> RaceCell<T> {
    pub fn new(v: T) -> Self {
        Self {
            inner: StdMutex::new(v),
            id: rt::register_object(ObjectKind::Cell),
        }
    }

    fn read_point(&self) {
        if let Some(obj) = self.id {
            rt::schedule(move || Op::CellRead { obj });
        }
    }

    fn write_point(&self) {
        if let Some(obj) = self.id {
            rt::schedule(move || Op::CellWrite { obj });
        }
    }

    /// Read access (checked against concurrent writes).
    pub fn with<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        self.read_point();
        f(&self.inner.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Write access (checked against concurrent reads and writes).
    pub fn with_mut<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.write_point();
        f(&mut self.inner.lock().unwrap_or_else(|e| e.into_inner()))
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Copy> RaceCell<T> {
    pub fn get(&self) -> T {
        self.with(|v| *v)
    }

    pub fn set(&self, v: T) {
        self.with_mut(|slot| *slot = v);
    }
}

/// A slot that must be written exactly once (and is race-checked like
/// [`RaceCell`]): the pool's result slots, one writer per index.
#[derive(Debug)]
pub struct WriteOnce<T> {
    cell: RaceCell<Option<T>>,
}

impl<T> WriteOnce<T> {
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self {
            cell: RaceCell::new(None),
        }
    }

    /// Store the value; panics (failing the model) if already written.
    pub fn set(&self, v: T) {
        self.cell.with_mut(|slot| {
            assert!(
                slot.is_none(),
                "WriteOnce written twice: exactly-once invariant violated"
            );
            *slot = Some(v);
        });
    }

    /// True once a value has been stored (read access, race-checked).
    pub fn is_set(&self) -> bool {
        self.cell.with(|slot| slot.is_some())
    }

    /// Consume, returning the value if one was written.
    pub fn into_inner(self) -> Option<T> {
        self.cell.into_inner()
    }
}

impl<T: Copy> WriteOnce<T> {
    /// Read the value (read access, race-checked).
    pub fn get(&self) -> Option<T> {
        self.cell.get()
    }
}
