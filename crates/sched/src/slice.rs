//! `SyncSlice`: the crate's one shared-mutation primitive.
//!
//! A Send+Sync wrapper allowing pool workers to write *disjoint* slots
//! of one output buffer with no per-slot synchronization.
//! [`crate::pool`] builds on it for `try_map`'s result collection and
//! documents why its index sets are disjoint.
//!
//! The write-once/disjointness protocol this type relies on is verified
//! two ways beyond code review: the interleaving explorer in
//! `crates/modelcheck` checks it exhaustively on small configurations
//! (`tests/syncslice_model.rs`), and the `sched` unit tests run the real
//! thing under Miri in the nightly CI job.

pub(crate) struct SyncSlice<T>(*mut T, usize);

// SAFETY: the pointer refers to a live `Vec` owned by the caller, which
// outlives the scoped threads that use this handle; sending the pointer
// itself is therefore fine whenever `T: Send`.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for SyncSlice<T> {}

// SAFETY: shared use is confined to `write`, whose contract demands
// disjoint indices — concurrent calls never alias the same slot, so no
// `&self` method can observe a data race.
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SyncSlice<T> {}

impl<T> SyncSlice<T> {
    /// Wrap `len` slots starting at `ptr`. The caller keeps ownership of
    /// the allocation and must keep it alive (and un-reallocated) for
    /// the lifetime of this handle.
    pub(crate) fn new(ptr: *mut T, len: usize) -> SyncSlice<T> {
        SyncSlice(ptr, len)
    }

    // SAFETY: (contract) callers guarantee `i < len` and that no two
    // concurrent calls share the same `i`.
    #[allow(unsafe_code)]
    pub(crate) unsafe fn write(&self, i: usize, v: T) {
        debug_assert!(i < self.1);
        // SAFETY: `i < self.1` (slot count) by the caller contract, so
        // the offset stays inside the allocation; disjoint `i` across
        // threads means no two writes alias.
        #[allow(unsafe_code)]
        unsafe {
            self.0.add(i).write(v)
        };
    }
}
