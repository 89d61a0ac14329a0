//! An R-tree built once by Sort-Tile-Recursive bulk loading.
//!
//! A node holds its children's MBRs only in struct-of-arrays lanes
//! ([`crate::soa::ChildMbrs`], lane-width padded) beside the payloads or
//! child pointers in the same slot order, so the traversal hot loops —
//! window searches and the synchronized tree join — run one overlap kernel
//! over whole nodes instead of pointer-chasing per-child branches. Nodes
//! never change after `bulk_load`; a reload builds a new tree.

use crate::soa::{ChildMbrs, FilterStats, Intersects, MbrPredicate};
use spatial_geom::Rect;

/// Maximum entries per node.
pub(crate) const MAX_ENTRIES: usize = 16;

/// One tree node: its children's MBRs (`soa`, the only copy) and, slot for
/// slot, what they bound (`kind`).
#[derive(Debug, Clone)]
pub(crate) struct Node<T> {
    pub(crate) soa: ChildMbrs,
    pub(crate) kind: NodeKind<T>,
}

#[derive(Debug, Clone)]
pub(crate) enum NodeKind<T> {
    Leaf(Box<[T]>),
    Internal(Box<[Box<Node<T>>]>),
}

impl<T> Node<T> {
    fn mbr(&self) -> Rect {
        self.soa.rects().fold(Rect::EMPTY, |r, m| r.union(&m))
    }
}

/// An R-tree mapping MBRs to payloads (typically dataset indices).
#[derive(Debug, Clone)]
pub struct RTree<T> {
    root: Option<Box<Node<T>>>,
    len: usize,
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        RTree { root: None, len: 0 }
    }
}

impl<T> RTree<T> {
    /// An empty tree.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bulk-loads a tree with the Sort-Tile-Recursive algorithm: O(n log n)
    /// and near-perfect space utilization — how the evaluation datasets are
    /// indexed before each experiment.
    pub fn bulk_load(items: Vec<(Rect, T)>) -> Self {
        let len = items.len();
        if len == 0 {
            return Self::new();
        }
        // Leaf level, then internal levels bottom-up with the same tiling.
        let mut level = str_level(items, NodeKind::Leaf);
        while level.len() > 1 {
            level = str_level(level, NodeKind::Internal);
        }
        RTree {
            root: level.pop().map(|(_, n)| n),
            len,
        }
    }

    /// All payloads whose MBR intersects `window` — the selection-side MBR
    /// filter. See [`RTree::search_intersects_stats`] for the counter form.
    pub fn search_intersects<'a>(&'a self, window: &Rect) -> Vec<&'a T> {
        self.search_intersects_stats(window, true, &mut FilterStats::default())
    }

    /// [`RTree::search_intersects`] with filter-stage work counters. The
    /// node kernels have one width, so `_simd` changes nothing; it stays
    /// only because the benchmark harness passes it.
    pub fn search_intersects_stats<'a>(
        &'a self,
        window: &Rect,
        _simd: bool,
        stats: &mut FilterStats,
    ) -> Vec<&'a T> {
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            search_rec(root, &Intersects, window, stats, &mut out);
        }
        out
    }

    /// Structural invariant check (tests): entry counts within bounds,
    /// every node's lanes holding one box per child, parent boxes covering
    /// children, padding slots empty. Returns the tree height.
    pub fn check_invariants(&self) -> usize {
        match &self.root {
            None => 0,
            Some(root) => check_rec(root, true),
        }
    }

    pub(crate) fn root_node(&self) -> Option<&Node<T>> {
        self.root.as_deref()
    }
}

/// One STR level over `entries`: sort by x-center, cut into ⌈√nodes⌉
/// vertical slices, sort each slice by y-center and pack it into nodes of
/// [`MAX_ENTRIES`] (the last of a slice may be short). `kind` wraps a
/// node's payloads, in slot order with their boxes in the lanes. Each node
/// comes back with its MBR, an entry of the level above; boxed, so that
/// level's sorts move pointers rather than whole nodes.
fn str_level<T, E>(
    mut entries: Vec<(Rect, E)>,
    kind: fn(Box<[E]>) -> NodeKind<T>,
) -> Vec<(Rect, Box<Node<T>>)> {
    entries.sort_by(|a, b| a.0.center().x.total_cmp(&b.0.center().x));
    let node_count = entries.len().div_ceil(MAX_ENTRIES);
    let slice_count = (node_count as f64).sqrt().ceil() as usize;
    let slice_size = entries.len().div_ceil(slice_count);
    let mut runs = Vec::with_capacity(node_count);
    for slice in entries.chunks_mut(slice_size) {
        slice.sort_by(|a, b| a.0.center().y.total_cmp(&b.0.center().y));
        runs.extend(slice.chunks(MAX_ENTRIES).map(<[_]>::len));
    }
    let mut entries = entries.into_iter();
    runs.into_iter()
        .map(|n| {
            let mut items = Vec::with_capacity(n);
            let soa = ChildMbrs::from_rects(entries.by_ref().take(n).map(|(r, e)| {
                items.push(e);
                r
            }));
            let node = Node {
                soa,
                kind: kind(items.into_boxed_slice()),
            };
            (node.mbr(), Box::new(node))
        })
        .collect()
}

/// Generic node-at-a-time search: one kernel call tests the probe against all
/// of a node's children, then the traversal walks the hit bits in slot
/// order — the same visit order as a per-child recursion.
fn search_rec<'a, T, P: MbrPredicate>(
    node: &'a Node<T>,
    pred: &P,
    probe: &Rect,
    stats: &mut FilterStats,
    out: &mut Vec<&'a T>,
) {
    let mask = node.soa.mask(pred, probe, stats);
    match &node.kind {
        NodeKind::Leaf(items) => {
            for (i, v) in items.iter().enumerate() {
                if (mask >> i) & 1 == 1 {
                    out.push(v);
                }
            }
        }
        NodeKind::Internal(children) => {
            for (i, c) in children.iter().enumerate() {
                if (mask >> i) & 1 == 1 {
                    search_rec(c, pred, probe, stats, out);
                }
            }
        }
    }
}

fn check_rec<T>(node: &Node<T>, is_root: bool) -> usize {
    let len = node.soa.len();
    assert!(len <= MAX_ENTRIES, "node overflow: {len}");
    if !is_root {
        assert!(len >= 1, "empty non-root node");
    }
    for i in len..crate::soa::SOA_WIDTH {
        assert!(node.soa.rect(i).is_empty(), "padding slot {i} not empty");
    }
    match &node.kind {
        NodeKind::Leaf(items) => {
            assert_eq!(items.len(), len, "lanes and payloads diverged");
            1
        }
        NodeKind::Internal(children) => {
            assert_eq!(children.len(), len, "lanes and children diverged");
            let mut height = None;
            for (r, c) in node.soa.rects().zip(children) {
                assert!(
                    r.contains_rect(&c.mbr()) || (r.is_empty() && c.mbr().is_empty()),
                    "parent MBR does not cover child"
                );
                let h = check_rec(c, false);
                match height {
                    None => height = Some(h),
                    Some(prev) => assert_eq!(prev, h, "unbalanced tree"),
                }
            }
            height.unwrap_or(0) + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x: f64, y: f64, s: f64) -> Rect {
        Rect::new(x, y, x + s, y + s)
    }

    fn grid_items(n: usize) -> Vec<(Rect, usize)> {
        (0..n)
            .map(|i| {
                let x = (i % 37) as f64 * 3.0;
                let y = (i / 37) as f64 * 3.0;
                (rect(x, y, 2.0), i)
            })
            .collect()
    }

    #[test]
    fn empty_tree() {
        let t: RTree<usize> = RTree::new();
        assert!(t.is_empty());
        assert!(t.search_intersects(&rect(0.0, 0.0, 10.0)).is_empty());
        assert_eq!(t.check_invariants(), 0);
    }

    #[test]
    fn bulk_load_matches_linear_scan() {
        let items = grid_items(1000);
        let t = RTree::bulk_load(items.clone());
        assert_eq!(t.len(), 1000);
        t.check_invariants();
        for window in [
            rect(10.0, 10.0, 15.0),
            rect(50.0, 0.0, 30.0),
            rect(200.0, 200.0, 5.0),
        ] {
            let mut expected: Vec<usize> = items
                .iter()
                .filter(|(r, _)| r.intersects(&window))
                .map(|&(_, v)| v)
                .collect();
            expected.sort_unstable();
            let mut got: Vec<usize> = t.search_intersects(&window).into_iter().copied().collect();
            got.sort_unstable();
            assert_eq!(got, expected, "window {window:?}");
        }
    }

    /// The per-entry walk the node kernels replace: visit children in
    /// slot order where `pred.test` holds, charging every real slot.
    fn oracle_walk<P: MbrPredicate>(
        node: &Node<usize>,
        pred: &P,
        probe: &Rect,
        tests: &mut usize,
        out: &mut Vec<usize>,
    ) {
        *tests += node.soa.len();
        let hit = |i: &usize| pred.test(&node.soa.rect(*i), probe);
        match &node.kind {
            NodeKind::Leaf(es) => {
                out.extend((0..es.len()).filter(hit).map(|i| es[i]));
            }
            NodeKind::Internal(cs) => {
                for i in (0..cs.len()).filter(hit) {
                    oracle_walk(&cs[i], pred, probe, tests, out);
                }
            }
        }
    }

    #[test]
    fn searches_equal_the_per_entry_walk_with_identical_counters() {
        let items = grid_items(700);
        let t = RTree::bulk_load(items);
        let root = t.root.as_deref().unwrap();
        let window = rect(12.0, 9.0, 25.0);
        let (mut tests, mut expected) = (0, Vec::new());
        oracle_walk(root, &Intersects, &window, &mut tests, &mut expected);
        let mut stats = FilterStats::default();
        let got: Vec<usize> = t
            .search_intersects_stats(&window, true, &mut stats)
            .into_iter()
            .copied()
            .collect();
        assert_eq!(
            got, expected,
            "result sequence must match, not just the set"
        );
        assert_eq!(stats.node_tests, tests);
        assert!(!got.is_empty());
    }

    #[test]
    fn bulk_load_small_inputs() {
        for n in [1usize, 2, MAX_ENTRIES, MAX_ENTRIES + 1, 3 * MAX_ENTRIES] {
            let items = grid_items(n);
            let all = items.iter().fold(Rect::EMPTY, |all, (r, _)| all.union(r));
            let t = RTree::bulk_load(items);
            assert_eq!(t.len(), n);
            t.check_invariants();
            assert_eq!(t.search_intersects(&all).len(), n);
        }
    }

    #[test]
    fn tree_height_grows_logarithmically() {
        let t = RTree::bulk_load(grid_items(2000));
        let h = t.check_invariants();
        // 2000 entries at fanout 16: height 3 (16^3 = 4096).
        assert!(h <= 4, "height {h} too tall for 2000 entries");
    }
}
