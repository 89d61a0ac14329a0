//! Epoch-stamped atomic snapshot handle — the serving layer's dataset
//! store (DESIGN.md §12).
//!
//! A long-lived query engine serves many concurrent queries against
//! datasets that occasionally reload. Queries must never observe a torn
//! state (half old polygons, half new tree), and reloads must never wait
//! for in-flight queries to drain. The classic answer is epoch-style
//! read-copy-update over an `Arc`: readers grab a cheap clone of the
//! current `Arc<T>` once, keep the whole snapshot alive for as long as
//! they hold it, and writers publish a *complete replacement* with a
//! single pointer swap.
//!
//! [`SnapshotHandle`] packages that discipline with an explicit **epoch**
//! — a counter bumped on every [`swap`](SnapshotHandle::swap) — so a
//! query's response can state exactly which generation of the data it
//! answered from, and tests can assert that a response's rows are
//! consistent with the epoch it claims (the service concurrency tests do
//! exactly that). The lock guards only the pointer-plus-counter pair and
//! is held for the duration of an `Arc` clone, never for a query;
//! dropping the last [`Snapshot`] of a retired epoch frees the old data.
//!
//! # Example
//!
//! ```
//! use spatial_index::SnapshotHandle;
//!
//! let handle = SnapshotHandle::new(vec![1, 2, 3]);
//! let reader = handle.load(); // epoch 0, pinned
//! assert_eq!(reader.epoch(), 0);
//!
//! let new_epoch = handle.swap(vec![4, 5]); // atomic publish
//! assert_eq!(new_epoch, 1);
//!
//! // The old reader still sees the complete epoch-0 value...
//! assert_eq!(*reader, vec![1, 2, 3]);
//! // ...while new loads see epoch 1.
//! assert_eq!(*handle.load(), vec![4, 5]);
//! ```

use std::ops::Deref;
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A pinned, immutable view of one epoch's value. Cheap to clone (one
/// `Arc` bump); keeps the whole epoch alive until dropped.
#[derive(Debug)]
pub struct Snapshot<T> {
    value: Arc<T>,
    epoch: u64,
}

impl<T> Snapshot<T> {
    /// The generation counter of the [`SnapshotHandle`] at load time.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl<T> Clone for Snapshot<T> {
    fn clone(&self) -> Self {
        Snapshot {
            value: Arc::clone(&self.value),
            epoch: self.epoch,
        }
    }
}

impl<T> Deref for Snapshot<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.value
    }
}

/// The current epoch's value and its generation counter, swapped
/// together so no load can pair an old value with a new epoch.
#[derive(Debug)]
struct Current<T> {
    value: Arc<T>,
    epoch: u64,
}

/// Epoch-style atomically swappable container: many concurrent
/// [`load`](Self::load)s, occasional whole-value [`swap`](Self::swap)s.
///
/// Built on `RwLock<Arc<T>>` from std only — the lock is held just long
/// enough to clone the `Arc` (readers) or replace it (writers), so
/// contention is bounded by pointer-sized critical sections regardless of
/// how large `T` is or how long queries run.
#[derive(Debug)]
pub struct SnapshotHandle<T> {
    current: RwLock<Current<T>>,
}

impl<T> SnapshotHandle<T> {
    /// Wraps `value` as epoch 0.
    pub fn new(value: T) -> Self {
        SnapshotHandle {
            current: RwLock::new(Current {
                value: Arc::new(value),
                epoch: 0,
            }),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Current<T>> {
        // A panic while holding the lock poisons it, but the guarded
        // state is a pointer + counter that is never left half-written;
        // recover the inner value instead of propagating the poison.
        self.current
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, Current<T>> {
        self.current
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Pins and returns the current epoch's value. One lock-protected
    /// `Arc` clone; the returned [`Snapshot`] stays valid (and internally
    /// consistent) across any number of subsequent [`swap`](Self::swap)s.
    pub fn load(&self) -> Snapshot<T> {
        let cur = self.read();
        Snapshot {
            value: Arc::clone(&cur.value),
            epoch: cur.epoch,
        }
    }

    /// Publishes `value` as the next epoch and returns that epoch.
    /// In-flight [`Snapshot`]s keep their old epoch untouched.
    pub fn swap(&self, value: T) -> u64 {
        let mut cur = self.write();
        cur.epoch += 1;
        cur.value = Arc::new(value);
        cur.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::thread;

    #[test]
    fn load_pins_the_epoch_it_saw() {
        let h = SnapshotHandle::new(String::from("alpha"));
        let pinned = h.load();
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(h.swap(String::from("beta")), 1);
        assert_eq!(h.swap(String::from("gamma")), 2);
        assert_eq!(*pinned, "alpha");
        assert_eq!(pinned.epoch(), 0);
        let fresh = h.load();
        assert_eq!(*fresh, "gamma");
        assert_eq!(fresh.epoch(), 2);
        assert_eq!(h.load().epoch(), 2);
    }

    #[test]
    fn clone_shares_the_pin() {
        let h = SnapshotHandle::new(7u32);
        let a = h.load();
        let b = a.clone();
        h.swap(8);
        assert_eq!((*a, a.epoch()), (7, 0));
        assert_eq!((*b, b.epoch()), (7, 0));
    }

    /// Readers hammering `load` during concurrent swaps must only ever
    /// observe (value, epoch) pairs that were published together — the
    /// value encodes its own epoch, so a torn read is directly visible.
    #[test]
    fn concurrent_swaps_never_tear() {
        let h = Arc::new(SnapshotHandle::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let h = Arc::clone(&h);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut last = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let s = h.load();
                        // Invariant: the value *is* the epoch it was
                        // published as.
                        assert_eq!(*s, s.epoch());
                        // Epochs move forward only.
                        assert!(s.epoch() >= last);
                        last = s.epoch();
                    }
                })
            })
            .collect();
        for i in 1..=200 {
            assert_eq!(h.swap(i), i);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(h.load().epoch(), 200);
    }
}
