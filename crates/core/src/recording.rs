//! The recording cache: reusable command-tape skeletons for the hot
//! per-pair and atlas choreographies.
//!
//! Recording a hardware test re-emits the same state/clear/accumulate/
//! readback tape every time — only the `SetViewport` values and the draw
//! geometry differ between two tests of the same *shape*. The cache keys
//! a fused [`ListTemplate`] on exactly the inputs that determine that
//! shape ([`CacheKey`]) and splices fresh viewports and geometry on every
//! hit, skipping re-recording, per-command validation and re-fusion.
//!
//! The cache is set-preserving by construction: a spliced list executes
//! the same commands as a cold recording of the same test, so results,
//! readbacks and every charged counter are bit-identical whether the
//! cache is hot or cold (invariant 10). Only the diagnostic `cache_hits`
//! / `cache_misses` / `commands_elided` counters see the difference.
//!
//! Eviction is LRU over a fixed capacity. The per-pair paths need a
//! handful of entries (one per strategy × resolution × width in play);
//! atlas keys include the batch shape, so joins with highly irregular
//! batches cycle more.
//!
//! [`crate::choreography`] is the only module that builds keys, looks
//! them up or stores skeletons.

use spatial_raster::{ListTemplate, OverlapStrategy};
use std::collections::HashMap;
use std::sync::Arc;

/// Everything that determines a recorded choreography's tape shape,
/// *excluding* the viewport values and draw geometry that get spliced at
/// instantiation time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum CacheKey {
    /// Per-pair segment-intersection test: the tape depends on the
    /// strategy's choreography and the window resolution.
    Segment {
        strategy: OverlapStrategy,
        resolution: usize,
    },
    /// Per-pair expanded-boundary distance test. Accumulation and
    /// Blending share one choreography here (see `record_distance_test`),
    /// so the key only distinguishes stencil vs not; the Equation (1)
    /// line width is part of the tape (`SetLineWidth`/`SetPointSize`).
    Distance {
        stencil: bool,
        resolution: usize,
        width_bits: u64,
    },
    /// Per-pair area-of-overlap aggregation: the tape (clears, stencil
    /// write modes, two filled-polygon draws, stencil-count readback)
    /// depends only on the window resolution — the pair's viewport and
    /// both vertex rings are spliced at instantiation.
    Overlap { resolution: usize },
    /// Atlas batch: cell resolution and line width fix the grid layout,
    /// and the per-job geometry-emptiness shape fixes which cells record
    /// scissor/viewport/draw commands (see `spatial_raster::atlas`).
    Atlas {
        cell: usize,
        width_bits: u64,
        shape: Vec<[bool; 4]>,
    },
}

#[derive(Debug)]
struct Entry {
    template: Arc<ListTemplate>,
    slot: usize,
    last_used: u64,
}

/// LRU cache from [`CacheKey`] to a (fused) skeleton plus its verdict
/// readback slot. Templates are handed out behind `Arc` so a hit never
/// copies the tape and forked testers stay `Send`.
#[derive(Debug)]
pub(crate) struct RecordingCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<CacheKey, Entry>,
}

impl RecordingCache {
    pub(crate) fn new(capacity: usize) -> Self {
        RecordingCache {
            capacity,
            tick: 0,
            entries: HashMap::new(),
        }
    }

    /// Looks up a skeleton, bumping its recency.
    pub(crate) fn lookup(&mut self, key: &CacheKey) -> Option<(Arc<ListTemplate>, usize)> {
        self.tick += 1;
        let e = self.entries.get_mut(key)?;
        e.last_used = self.tick;
        Some((Arc::clone(&e.template), e.slot))
    }

    /// Stores a freshly recorded skeleton, evicting the least recently
    /// used entry when at capacity. A zero-capacity cache stores nothing.
    pub(crate) fn insert(&mut self, key: CacheKey, template: ListTemplate, slot: usize) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&oldest);
            }
        }
        self.tick += 1;
        self.entries.insert(
            key,
            Entry {
                template: Arc::new(template),
                slot,
                last_used: self.tick,
            },
        );
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_raster::{CommandList, Recorder};

    fn template() -> ListTemplate {
        let mut r = Recorder::new(4, 4);
        r.minmax();
        let list: CommandList = r.finish();
        ListTemplate::new(&list)
    }

    fn key(resolution: usize) -> CacheKey {
        CacheKey::Segment {
            strategy: OverlapStrategy::Accumulation,
            resolution,
        }
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut c = RecordingCache::new(2);
        c.insert(key(1), template(), 0);
        c.insert(key(2), template(), 0);
        assert!(c.lookup(&key(1)).is_some()); // 2 is now the coldest
        c.insert(key(3), template(), 0);
        assert_eq!(c.len(), 2);
        assert!(c.lookup(&key(2)).is_none(), "LRU entry evicted");
        assert!(c.lookup(&key(1)).is_some());
        assert!(c.lookup(&key(3)).is_some());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut c = RecordingCache::new(2);
        c.insert(key(1), template(), 0);
        c.insert(key(2), template(), 0);
        c.insert(key(2), template(), 1);
        assert_eq!(c.len(), 2);
        assert!(c.lookup(&key(1)).is_some());
        assert_eq!(c.lookup(&key(2)).unwrap().1, 1);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut c = RecordingCache::new(0);
        c.insert(key(1), template(), 0);
        assert!(c.lookup(&key(1)).is_none());
    }

    #[test]
    fn distinct_strategies_and_shapes_are_distinct_keys() {
        let a = CacheKey::Atlas {
            cell: 8,
            width_bits: 3.0f64.to_bits(),
            shape: vec![[true, false, true, false]],
        };
        let b = CacheKey::Atlas {
            cell: 8,
            width_bits: 3.0f64.to_bits(),
            shape: vec![[true, true, true, true]],
        };
        assert_ne!(a, b);
        let mut c = RecordingCache::new(4);
        c.insert(a.clone(), template(), 0);
        assert!(c.lookup(&b).is_none());
        assert!(c.lookup(&a).is_some());
    }
}
