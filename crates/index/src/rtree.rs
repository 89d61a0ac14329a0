//! A Guttman R-tree with quadratic-split insertion and STR bulk loading.
//!
//! Every node carries a struct-of-arrays mirror of its children's MBRs
//! ([`crate::soa::ChildMbrs`], lane-width padded), maintained at
//! `bulk_load` and `insert` time, so the traversal hot loops — window
//! searches, within-distance searches and the synchronized tree join —
//! run one overlap kernel over whole nodes instead of
//! pointer-chasing per-child branches.

use crate::soa::{ChildMbrs, FilterStats, Intersects, MbrPredicate, WithinDist};
use spatial_geom::Rect;

/// Maximum entries per node.
pub const MAX_ENTRIES: usize = 16;
/// Minimum entries per non-root node (40% of `MAX_ENTRIES`).
pub const MIN_ENTRIES: usize = 6;

/// One tree node: the pointer structure (`kind`) plus the lane-friendly
/// SoA mirror of its children's MBRs, rebuilt whenever the entry list
/// changes.
#[derive(Debug, Clone)]
pub(crate) struct Node<T> {
    pub(crate) soa: ChildMbrs,
    pub(crate) kind: NodeKind<T>,
}

#[derive(Debug, Clone)]
pub(crate) enum NodeKind<T> {
    Leaf(Vec<(Rect, T)>),
    Internal(Vec<(Rect, Box<Node<T>>)>),
}

impl<T> Node<T> {
    fn leaf(entries: Vec<(Rect, T)>) -> Box<Node<T>> {
        let soa = ChildMbrs::from_rects(entries.iter().map(|(r, _)| r));
        Box::new(Node {
            soa,
            kind: NodeKind::Leaf(entries),
        })
    }

    fn internal(children: Vec<(Rect, Box<Node<T>>)>) -> Box<Node<T>> {
        let soa = ChildMbrs::from_rects(children.iter().map(|(r, _)| r));
        Box::new(Node {
            soa,
            kind: NodeKind::Internal(children),
        })
    }

    /// Rebuilds the SoA mirror from the entry list — called after every
    /// structural mutation, once the entry count is back within bounds.
    fn rebuild_soa(&mut self) {
        self.soa = match &self.kind {
            NodeKind::Leaf(es) => ChildMbrs::from_rects(es.iter().map(|(r, _)| r)),
            NodeKind::Internal(cs) => ChildMbrs::from_rects(cs.iter().map(|(r, _)| r)),
        };
    }

    fn mbr(&self) -> Rect {
        match &self.kind {
            NodeKind::Leaf(es) => es.iter().fold(Rect::EMPTY, |r, (m, _)| r.union(m)),
            NodeKind::Internal(cs) => cs.iter().fold(Rect::EMPTY, |r, (m, _)| r.union(m)),
        }
    }

    fn len(&self) -> usize {
        match &self.kind {
            NodeKind::Leaf(es) => es.len(),
            NodeKind::Internal(cs) => cs.len(),
        }
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

impl<T: Clone> RTree<T> {
    /// An empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of indexed entries.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The MBR of the whole tree ([`Rect::EMPTY`] when empty).
    pub fn mbr(&self) -> Rect {
        self.root.as_ref().map_or(Rect::EMPTY, |r| r.mbr())
    }

    /// Bulk-loads a tree with the Sort-Tile-Recursive algorithm: O(n log n)
    /// and near-perfect space utilization — how the evaluation datasets are
    /// indexed before each experiment.
    pub fn bulk_load(mut items: Vec<(Rect, T)>) -> Self {
        let len = items.len();
        if len == 0 {
            return Self::new();
        }
        // Leaf level: sort by x-center, slice, sort slices by y-center.
        items.sort_by(|a, b| a.0.center().x.total_cmp(&b.0.center().x));
        let leaf_count = len.div_ceil(MAX_ENTRIES);
        let slice_count = (leaf_count as f64).sqrt().ceil() as usize;
        let slice_size = len.div_ceil(slice_count);
        let mut leaves: Vec<Box<Node<T>>> = Vec::with_capacity(leaf_count);
        for slice in items.chunks_mut(slice_size.max(1)) {
            slice.sort_by(|a, b| a.0.center().y.total_cmp(&b.0.center().y));
            for run in slice.chunks(MAX_ENTRIES) {
                leaves.push(Node::leaf(run.to_vec()));
            }
        }
        // Build internal levels bottom-up with the same tiling.
        let mut level = leaves;
        while level.len() > 1 {
            let mut wrapped: Vec<(Rect, Box<Node<T>>)> =
                level.into_iter().map(|n| (n.mbr(), n)).collect();
            wrapped.sort_by(|a, b| a.0.center().x.total_cmp(&b.0.center().x));
            let node_count = wrapped.len().div_ceil(MAX_ENTRIES);
            let sc = (node_count as f64).sqrt().ceil() as usize;
            let ss = wrapped.len().div_ceil(sc);
            let mut next: Vec<Box<Node<T>>> = Vec::with_capacity(node_count);
            let mut buf: Vec<(Rect, Box<Node<T>>)> = Vec::new();
            for mut slice in chunks_owned(&mut wrapped, ss.max(1)) {
                slice.sort_by(|a, b| a.0.center().y.total_cmp(&b.0.center().y));
                buf.extend(slice);
                while buf.len() >= MAX_ENTRIES {
                    let rest = buf.split_off(MAX_ENTRIES);
                    next.push(Node::internal(std::mem::replace(&mut buf, rest)));
                }
                if !buf.is_empty() {
                    next.push(Node::internal(std::mem::take(&mut buf)));
                }
            }
            level = next;
        }
        RTree {
            root: level.pop(),
            len,
        }
    }

    /// Inserts one entry (Guttman: least-enlargement descent, quadratic
    /// split on overflow). The SoA mirrors along the descent path are
    /// rebuilt on the way back up.
    pub fn insert(&mut self, mbr: Rect, value: T) {
        self.len += 1;
        match self.root.take() {
            None => {
                self.root = Some(Node::leaf(vec![(mbr, value)]));
            }
            Some(mut root) => {
                if let Some((r1, n1)) = insert_rec(&mut root, mbr, value) {
                    // Root split: grow the tree.
                    let old = (root.mbr(), root);
                    self.root = Some(Node::internal(vec![old, (r1, n1)]));
                } else {
                    self.root = Some(root);
                }
            }
        }
    }

    /// All payloads whose MBR intersects `window` — the selection-side MBR
    /// filter. See [`RTree::search_intersects_stats`] for the counter form.
    pub fn search_intersects<'a>(&'a self, window: &Rect) -> Vec<&'a T> {
        self.search(&Intersects, window, &mut FilterStats::default())
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
        self.search(&Intersects, window, stats)
    }

    /// All payloads whose MBR lies within distance `d` of `query` — the
    /// within-distance MBR filter (the MBR distance lower-bounds the
    /// object distance).
    pub fn search_within<'a>(&'a self, query: &Rect, d: f64) -> Vec<&'a T> {
        self.search_within_stats(query, d, &mut FilterStats::default())
    }

    /// [`RTree::search_within`] with filter-stage work counters.
    pub fn search_within_stats<'a>(
        &'a self,
        query: &Rect,
        d: f64,
        stats: &mut FilterStats,
    ) -> Vec<&'a T> {
        self.search(&WithinDist(d), query, stats)
    }

    fn search<'a, P: MbrPredicate>(
        &'a self,
        pred: &P,
        probe: &Rect,
        stats: &mut FilterStats,
    ) -> Vec<&'a T> {
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            search_rec(root, pred, probe, stats, &mut out);
        }
        out
    }

    /// Structural invariant check (tests): entry counts within bounds,
    /// parent MBRs covering children, and every node's SoA mirror matching
    /// its entry list bit for bit (real slots equal the entry rectangles,
    /// padding slots empty). Returns the tree height.
    pub fn check_invariants(&self) -> usize {
        match &self.root {
            None => 0,
            Some(root) => check_rec(root, true),
        }
    }
}

/// Drains `v` in owned chunks of `size` (helper for bulk loading).
fn chunks_owned<T>(v: &mut Vec<T>, size: usize) -> Vec<Vec<T>> {
    let mut out = Vec::new();
    while !v.is_empty() {
        let take = size.min(v.len());
        out.push(v.drain(..take).collect());
    }
    out
}

fn insert_rec<T>(node: &mut Node<T>, mbr: Rect, value: T) -> Option<(Rect, Box<Node<T>>)> {
    let split = match &mut node.kind {
        NodeKind::Leaf(entries) => {
            entries.push((mbr, value));
            if entries.len() > MAX_ENTRIES {
                let (a, b) = quadratic_split(std::mem::take(entries));
                *entries = a;
                Some(Node::leaf(b))
            } else {
                None
            }
        }
        NodeKind::Internal(children) => {
            let idx = choose_subtree(children, &mbr);
            let child_split = insert_rec(&mut children[idx].1, mbr, value);
            children[idx].0 = children[idx].1.mbr();
            match child_split {
                Some((r, n)) => {
                    children.push((r, n));
                    if children.len() > MAX_ENTRIES {
                        let (a, b) = quadratic_split(std::mem::take(children));
                        *children = a;
                        Some(Node::internal(b))
                    } else {
                        None
                    }
                }
                None => None,
            }
        }
    };
    // The entry list changed either way (push, MBR tighten or split);
    // bring the SoA mirror back in sync before handing control up.
    node.rebuild_soa();
    split.map(|sibling| (sibling.mbr(), sibling))
}

/// Least-enlargement choice (ties by smaller area).
fn choose_subtree<T>(children: &[(Rect, Box<Node<T>>)], mbr: &Rect) -> usize {
    let mut best = 0;
    let mut best_enlarge = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, (r, _)) in children.iter().enumerate() {
        let area = r.area();
        let enlarge = r.union(mbr).area() - area;
        if enlarge < best_enlarge || (enlarge == best_enlarge && area < best_area) {
            best = i;
            best_enlarge = enlarge;
            best_area = area;
        }
    }
    best
}

/// The two halves a node splits into.
type SplitHalves<E> = (Vec<(Rect, E)>, Vec<(Rect, E)>);

/// Guttman's quadratic split: seed with the pair wasting the most area,
/// then assign entries by preference, honouring the minimum fill.
fn quadratic_split<E>(entries: Vec<(Rect, E)>) -> SplitHalves<E> {
    debug_assert!(entries.len() > MAX_ENTRIES);
    let n = entries.len();
    // Pick seeds.
    let (mut s1, mut s2, mut worst) = (0, 1, f64::NEG_INFINITY);
    for i in 0..n {
        for j in (i + 1)..n {
            let waste = entries[i].0.union(&entries[j].0).area()
                - entries[i].0.area()
                - entries[j].0.area();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    let mut group1: Vec<(Rect, E)> = Vec::with_capacity(n);
    let mut group2: Vec<(Rect, E)> = Vec::with_capacity(n);
    let mut r1 = entries[s1].0;
    let mut r2 = entries[s2].0;
    let mut rest: Vec<Option<(Rect, E)>> = entries.into_iter().map(Some).collect();
    group1.push(rest[s1].take().unwrap());
    group2.push(rest[s2].take().unwrap());
    let mut remaining: Vec<(Rect, E)> = rest.into_iter().flatten().collect();

    while !remaining.is_empty() {
        let left = remaining.len();
        // Honour minimum fill: if one group must take everything, do so.
        if group1.len() + left <= MIN_ENTRIES {
            for e in remaining.drain(..) {
                r1 = r1.union(&e.0);
                group1.push(e);
            }
            break;
        }
        if group2.len() + left <= MIN_ENTRIES {
            for e in remaining.drain(..) {
                r2 = r2.union(&e.0);
                group2.push(e);
            }
            break;
        }
        // Pick the entry with the strongest preference.
        let mut pick = 0;
        let mut pick_diff = f64::NEG_INFINITY;
        for (i, (rect, _)) in remaining.iter().enumerate() {
            let d1 = r1.union(rect).area() - r1.area();
            let d2 = r2.union(rect).area() - r2.area();
            let diff = (d1 - d2).abs();
            if diff > pick_diff {
                pick_diff = diff;
                pick = i;
            }
        }
        let entry = remaining.swap_remove(pick);
        let d1 = r1.union(&entry.0).area() - r1.area();
        let d2 = r2.union(&entry.0).area() - r2.area();
        if d1 < d2 || (d1 == d2 && group1.len() < group2.len()) {
            r1 = r1.union(&entry.0);
            group1.push(entry);
        } else {
            r2 = r2.union(&entry.0);
            group2.push(entry);
        }
    }
    (group1, group2)
}

/// Generic node-at-a-time search: one kernel call tests the probe against all
/// of a node's children, then the traversal walks the hit bits in slot
/// order — the same visit order as the old per-child recursion.
fn search_rec<'a, T, P: MbrPredicate>(
    node: &'a Node<T>,
    pred: &P,
    probe: &Rect,
    stats: &mut FilterStats,
    out: &mut Vec<&'a T>,
) {
    let mask = node.soa.mask(pred, probe, stats);
    match &node.kind {
        NodeKind::Leaf(entries) => {
            for (i, (_, v)) in entries.iter().enumerate() {
                if (mask >> i) & 1 == 1 {
                    out.push(v);
                }
            }
        }
        NodeKind::Internal(children) => {
            for (i, (_, c)) in children.iter().enumerate() {
                if (mask >> i) & 1 == 1 {
                    search_rec(c, pred, probe, stats, out);
                }
            }
        }
    }
}

fn check_rec<T>(node: &Node<T>, is_root: bool) -> usize {
    let len = node.len();
    assert!(len <= MAX_ENTRIES, "node overflow: {len}");
    if !is_root {
        assert!(len >= 1, "empty non-root node");
    }
    check_soa_mirror(node);
    match &node.kind {
        NodeKind::Leaf(_) => 1,
        NodeKind::Internal(children) => {
            let mut height = None;
            for (r, c) in children {
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

/// Asserts the node's SoA arrays mirror its entry list exactly: slot `i`
/// reassembles to the `i`-th entry rectangle bit for bit, and every
/// padding slot holds the empty sentinel.
fn check_soa_mirror<T>(node: &Node<T>) {
    assert_eq!(node.soa.len(), node.len(), "SoA length diverged from node");
    let rect_at = |i: usize| match &node.kind {
        NodeKind::Leaf(es) => es[i].0,
        NodeKind::Internal(cs) => cs[i].0,
    };
    for i in 0..node.len() {
        let (s, r) = (node.soa.rect(i), rect_at(i));
        assert!(
            s.xmin.to_bits() == r.xmin.to_bits()
                && s.ymin.to_bits() == r.ymin.to_bits()
                && s.xmax.to_bits() == r.xmax.to_bits()
                && s.ymax.to_bits() == r.ymax.to_bits(),
            "SoA slot {i} diverged: {s:?} vs {r:?}"
        );
    }
    for i in node.len()..crate::soa::SOA_WIDTH {
        assert!(node.soa.rect(i).is_empty(), "padding slot {i} not empty");
    }
}

// -- crate-internal access for the join module -------------------------------

impl<T> RTree<T> {
    pub(crate) fn root_node(&self) -> Option<&Node<T>> {
        self.root.as_deref()
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
        assert!(t.mbr().is_empty());
    }

    #[test]
    fn insert_and_search() {
        let mut t = RTree::new();
        for (r, v) in grid_items(500) {
            t.insert(r, v);
        }
        assert_eq!(t.len(), 500);
        t.check_invariants();
        // Query window over the first grid cell.
        let hits = t.search_intersects(&rect(0.0, 0.0, 1.0));
        assert!(hits.contains(&&0));
        // Full-extent query returns everything.
        let all = t.search_intersects(&t.mbr());
        assert_eq!(all.len(), 500);
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

    #[test]
    fn insert_matches_linear_scan() {
        let items = grid_items(300);
        let mut t = RTree::new();
        for (r, v) in items.clone() {
            t.insert(r, v);
        }
        t.check_invariants();
        let window = rect(30.0, 6.0, 20.0);
        let mut expected: Vec<usize> = items
            .iter()
            .filter(|(r, _)| r.intersects(&window))
            .map(|&(_, v)| v)
            .collect();
        expected.sort_unstable();
        let mut got: Vec<usize> = t.search_intersects(&window).into_iter().copied().collect();
        got.sort_unstable();
        assert_eq!(got, expected);
    }

    #[test]
    fn within_distance_search() {
        let t = RTree::bulk_load(grid_items(200));
        let q = rect(0.0, 0.0, 1.0);
        // d = 0: only intersecting MBRs.
        let d0 = t.search_within(&q, 0.0);
        let di = t.search_intersects(&q);
        assert_eq!(d0.len(), di.len());
        // Growing d grows the candidate set monotonically.
        let mut prev = d0.len();
        for d in [1.0, 5.0, 20.0, 1000.0] {
            let hits = t.search_within(&q, d);
            assert!(hits.len() >= prev);
            prev = hits.len();
        }
        assert_eq!(prev, 200, "huge d reaches everything");
    }

    #[test]
    fn within_matches_linear_scan() {
        let items = grid_items(400);
        let t = RTree::bulk_load(items.clone());
        let q = rect(17.0, 11.0, 4.0);
        for d in [0.0, 2.5, 7.0] {
            let mut expected: Vec<usize> = items
                .iter()
                .filter(|(r, _)| r.min_dist(&q) <= d)
                .map(|&(_, v)| v)
                .collect();
            expected.sort_unstable();
            let mut got: Vec<usize> = t.search_within(&q, d).into_iter().copied().collect();
            got.sort_unstable();
            assert_eq!(got, expected, "d = {d}");
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
        *tests += node.len();
        match &node.kind {
            NodeKind::Leaf(es) => {
                out.extend(es.iter().filter(|(r, _)| pred.test(r, probe)).map(|e| e.1));
            }
            NodeKind::Internal(cs) => {
                for (_, c) in cs.iter().filter(|(r, _)| pred.test(r, probe)) {
                    oracle_walk(c, pred, probe, tests, out);
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

        let (mut tests, mut expected) = (0, Vec::new());
        oracle_walk(root, &WithinDist(7.5), &window, &mut tests, &mut expected);
        let mut stats = FilterStats::default();
        let got: Vec<usize> = t
            .search_within_stats(&window, 7.5, &mut stats)
            .into_iter()
            .copied()
            .collect();
        assert_eq!(got, expected);
        assert_eq!(stats.node_tests, tests);
    }

    #[test]
    fn bulk_load_small_inputs() {
        for n in [1usize, 2, MAX_ENTRIES, MAX_ENTRIES + 1, 3 * MAX_ENTRIES] {
            let t = RTree::bulk_load(grid_items(n));
            assert_eq!(t.len(), n);
            t.check_invariants();
            assert_eq!(t.search_intersects(&t.mbr()).len(), n);
        }
    }

    #[test]
    fn split_preserves_minimum_fill() {
        // Insert identical rectangles to stress the split's tie handling.
        let mut t = RTree::new();
        for i in 0..200 {
            t.insert(rect(0.0, 0.0, 1.0), i);
        }
        t.check_invariants();
        assert_eq!(t.search_intersects(&rect(0.5, 0.5, 0.1)).len(), 200);
    }

    #[test]
    fn tree_height_grows_logarithmically() {
        let t = RTree::bulk_load(grid_items(2000));
        let h = t.check_invariants();
        // 2000 entries at fanout 16: height 3 (16^3 = 4096).
        assert!(h <= 4, "height {h} too tall for 2000 entries");
    }
}
