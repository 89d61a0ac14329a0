//! Synchronized-traversal R-tree spatial join — the MBR filtering stage of
//! the paper's join pipelines (§4.1.1): "For intersection join, the
//! candidates are the object pairs whose MBRs intersect each other. For
//! within-distance join, the candidates are object pairs whose MBRs are
//! within distance D."
//!
//! The traversal is organized as a page-pair work queue rather than plain
//! recursion: the node-pair frontier is expanded one level at a time (in
//! traversal order) until it is wide enough, chunked into fixed-size work
//! units, and the units are pulled by worker threads whose outputs are
//! merged back in unit order. Because each unit's output is exactly the
//! sequential traversal's output for its slice of the frontier, the merged
//! candidate sequence is bit-identical to the single-threaded traversal —
//! which the downstream `CandidateFilter` contract (stable candidate
//! order) depends on. MBR tests themselves run the node kernels over each
//! node's SoA mirror; see [`crate::soa`].

use crate::rtree::{Node, NodeKind, RTree};
use crate::soa::{FilterConfig, FilterStats, Intersects, MbrPredicate, WithinDist};
use std::sync::atomic::{AtomicUsize, Ordering};

/// All payload pairs whose MBRs intersect, by descending both trees in
/// lock-step and pruning subtree pairs with disjoint MBRs.
pub fn join_intersecting<'a, A: Sync, B: Sync>(
    left: &'a RTree<A>,
    right: &'a RTree<B>,
) -> Vec<(&'a A, &'a B)> {
    join_intersecting_with(
        left,
        right,
        &FilterConfig::default(),
        &mut FilterStats::default(),
    )
}

/// [`join_intersecting`] with explicit filter knobs and work counters.
pub fn join_intersecting_with<'a, A: Sync, B: Sync>(
    left: &'a RTree<A>,
    right: &'a RTree<B>,
    cfg: &FilterConfig,
    stats: &mut FilterStats,
) -> Vec<(&'a A, &'a B)> {
    join_predicate(left, right, Intersects, cfg, stats)
}

/// All payload pairs whose MBRs are within distance `d`.
pub fn join_within_distance<'a, A: Sync, B: Sync>(
    left: &'a RTree<A>,
    right: &'a RTree<B>,
    d: f64,
) -> Vec<(&'a A, &'a B)> {
    join_within_distance_with(
        left,
        right,
        d,
        &FilterConfig::default(),
        &mut FilterStats::default(),
    )
}

/// [`join_within_distance`] with explicit filter knobs and work counters.
pub fn join_within_distance_with<'a, A: Sync, B: Sync>(
    left: &'a RTree<A>,
    right: &'a RTree<B>,
    d: f64,
    cfg: &FilterConfig,
    stats: &mut FilterStats,
) -> Vec<(&'a A, &'a B)> {
    join_predicate(left, right, WithinDist(d), cfg, stats)
}

/// A frontier entry: one node pair still to be joined. Leaf×leaf pairs are
/// terminal work items; every other combination can expand one level.
type Pair<'a, A, B> = (&'a Node<A>, &'a Node<B>);

/// One processed work unit: its frontier position, its candidate slice and
/// the counters it accumulated — what the ordered merge recombines.
type UnitResult<'a, A, B> = (usize, Vec<(&'a A, &'a B)>, FilterStats);

/// Generic MBR join, monomorphized per predicate (the old `&dyn Fn`
/// indirection cost one virtual call per node pair on the hot path). The
/// predicate must be monotone — true for child rectangles ⇒ true for their
/// covering parents — for pruning to be lossless; both implementations are.
fn join_predicate<'a, A: Sync, B: Sync, P: MbrPredicate>(
    left: &'a RTree<A>,
    right: &'a RTree<B>,
    pred: P,
    cfg: &FilterConfig,
    stats: &mut FilterStats,
) -> Vec<(&'a A, &'a B)> {
    let (Some(root_l), Some(root_r)) = (left.root_node(), right.root_node()) else {
        return Vec::new();
    };

    // Phase 1 — widen the frontier. Expanding a pair replaces it with its
    // surviving child pairs *in traversal order*, so the concatenation of
    // the frontier's per-pair DFS outputs is invariant under expansion:
    // however deep this loop goes, the emitted sequence stays that of the
    // sequential traversal.
    let target = cfg.threads.max(1) * cfg.unit_pairs.max(1) * 4;
    let mut frontier: Vec<Pair<'a, A, B>> = vec![(root_l, root_r)];
    loop {
        if frontier.len() >= target || !frontier.iter().any(|p| expandable(p)) {
            break;
        }
        let mut next = Vec::with_capacity(frontier.len() * 2);
        for pair in frontier {
            if expandable(&pair) {
                expand_pair(pair, &pred, stats, &mut next);
            } else {
                next.push(pair);
            }
        }
        frontier = next;
        if frontier.is_empty() {
            return Vec::new();
        }
    }

    // Phase 2 — chunk into fixed-size work units and process them. Units
    // are numbered by frontier position; the merge below concatenates
    // outputs in that numbering, restoring the sequential order exactly.
    let units: Vec<&[Pair<'a, A, B>]> = frontier.chunks(cfg.unit_pairs.max(1)).collect();
    stats.work_units += units.len();

    let mut out = Vec::new();
    if cfg.threads <= 1 || units.len() <= 1 {
        for unit in &units {
            for &(l, r) in *unit {
                process_pair(l, r, &pred, stats, &mut out);
            }
        }
        return out;
    }

    let next_unit = AtomicUsize::new(0);
    let mut done: Vec<UnitResult<'a, A, B>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..cfg.threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let u = next_unit.fetch_add(1, Ordering::Relaxed);
                        let Some(unit) = units.get(u) else { break };
                        let mut pairs = Vec::new();
                        let mut unit_stats = FilterStats::default();
                        for &(l, r) in *unit {
                            process_pair(l, r, &pred, &mut unit_stats, &mut pairs);
                        }
                        local.push((u, pairs, unit_stats));
                    }
                    local
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("join worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|(u, _, _)| *u);
    for (_, pairs, unit_stats) in done {
        out.extend(pairs);
        stats.add(&unit_stats);
    }
    out
}

fn expandable<A, B>(pair: &Pair<'_, A, B>) -> bool {
    !matches!(
        (&pair.0.kind, &pair.1.kind),
        (NodeKind::Leaf(_), NodeKind::Leaf(_))
    )
}

/// Replaces `pair` with its surviving child pairs, in the order the
/// sequential traversal would visit them. The mask calls here are the very
/// calls [`process_pair`] would have made for this pair, so `node_tests`
/// does not depend on how far expansion runs.
fn expand_pair<'a, A, B, P: MbrPredicate>(
    (left, right): Pair<'a, A, B>,
    pred: &P,
    stats: &mut FilterStats,
    next: &mut Vec<Pair<'a, A, B>>,
) {
    match (&left.kind, &right.kind) {
        (NodeKind::Leaf(_), NodeKind::Leaf(_)) => next.push((left, right)),
        (NodeKind::Leaf(_), NodeKind::Internal(rcs)) => {
            for (rr, rc) in rcs {
                if left.soa.mask(pred, rr, stats) != 0 {
                    next.push((left, rc));
                }
            }
        }
        (NodeKind::Internal(lcs), NodeKind::Leaf(_)) => {
            for (lr, lc) in lcs {
                if right.soa.mask(pred, lr, stats) != 0 {
                    next.push((lc, right));
                }
            }
        }
        (NodeKind::Internal(lcs), NodeKind::Internal(rcs)) => {
            for (lr, lc) in lcs {
                let mask = right.soa.mask(pred, lr, stats);
                for (i, (_, rc)) in rcs.iter().enumerate() {
                    if (mask >> i) & 1 == 1 {
                        next.push((lc, rc));
                    }
                }
            }
        }
    }
}

/// Sequential synchronized descent below one frontier pair — one node-level
/// kernel call per (node, probe) combination, hit bits walked in slot
/// order so emission order matches the entry lists.
fn process_pair<'a, A, B, P: MbrPredicate>(
    left: &'a Node<A>,
    right: &'a Node<B>,
    pred: &P,
    stats: &mut FilterStats,
    out: &mut Vec<(&'a A, &'a B)>,
) {
    match (&left.kind, &right.kind) {
        (NodeKind::Leaf(ls), NodeKind::Leaf(rs)) => {
            for (lr, lv) in ls {
                let mask = right.soa.mask(pred, lr, stats);
                for (i, (_, rv)) in rs.iter().enumerate() {
                    if (mask >> i) & 1 == 1 {
                        out.push((lv, rv));
                    }
                }
            }
        }
        (NodeKind::Leaf(_), NodeKind::Internal(rcs)) => {
            // Prune each right child against the leaf's entries (full mask,
            // never short-circuited, so counters stay config-invariant).
            for (rr, rc) in rcs {
                if left.soa.mask(pred, rr, stats) != 0 {
                    process_pair(left, rc, pred, stats, out);
                }
            }
        }
        (NodeKind::Internal(lcs), NodeKind::Leaf(_)) => {
            for (lr, lc) in lcs {
                if right.soa.mask(pred, lr, stats) != 0 {
                    process_pair(lc, right, pred, stats, out);
                }
            }
        }
        (NodeKind::Internal(lcs), NodeKind::Internal(rcs)) => {
            for (lr, lc) in lcs {
                let mask = right.soa.mask(pred, lr, stats);
                for (i, (_, rc)) in rcs.iter().enumerate() {
                    if (mask >> i) & 1 == 1 {
                        process_pair(lc, rc, pred, stats, out);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spatial_geom::Rect;

    fn rect(x: f64, y: f64, s: f64) -> Rect {
        Rect::new(x, y, x + s, y + s)
    }

    /// Brute-force reference join.
    #[allow(clippy::type_complexity)]
    fn brute(
        a: &[(Rect, usize)],
        b: &[(Rect, usize)],
        pred: impl Fn(&Rect, &Rect) -> bool,
    ) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (ra, va) in a {
            for (rb, vb) in b {
                if pred(ra, rb) {
                    out.push((*va, *vb));
                }
            }
        }
        out.sort_unstable();
        out
    }

    fn sorted(pairs: Vec<(&usize, &usize)>) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = pairs.into_iter().map(|(a, b)| (*a, *b)).collect();
        v.sort_unstable();
        v
    }

    fn unsorted(pairs: Vec<(&usize, &usize)>) -> Vec<(usize, usize)> {
        pairs.into_iter().map(|(a, b)| (*a, *b)).collect()
    }

    #[allow(clippy::type_complexity)]
    fn grids() -> (Vec<(Rect, usize)>, Vec<(Rect, usize)>) {
        let a: Vec<(Rect, usize)> = (0..150)
            .map(|i| (rect((i % 15) as f64 * 4.0, (i / 15) as f64 * 4.0, 3.0), i))
            .collect();
        let b: Vec<(Rect, usize)> = (0..120)
            .map(|i| {
                (
                    rect(
                        (i % 12) as f64 * 5.0 + 1.5,
                        (i / 12) as f64 * 5.0 + 1.5,
                        2.5,
                    ),
                    i,
                )
            })
            .collect();
        (a, b)
    }

    #[test]
    fn intersection_join_matches_brute_force() {
        let (a, b) = grids();
        let ta = RTree::bulk_load(a.clone());
        let tb = RTree::bulk_load(b.clone());
        let got = sorted(join_intersecting(&ta, &tb));
        let expected = brute(&a, &b, |x, y| x.intersects(y));
        assert_eq!(got, expected);
        assert!(!got.is_empty(), "test data must produce candidates");
    }

    #[test]
    fn within_join_matches_brute_force() {
        let (a, b) = grids();
        let ta = RTree::bulk_load(a.clone());
        let tb = RTree::bulk_load(b.clone());
        for d in [0.0, 1.0, 3.0, 10.0] {
            let got = sorted(join_within_distance(&ta, &tb, d));
            let expected = brute(&a, &b, |x, y| x.min_dist(y) <= d);
            assert_eq!(got, expected, "d = {d}");
        }
    }

    #[test]
    fn join_with_inserted_trees() {
        let (a, b) = grids();
        let mut ta = RTree::new();
        for (r, v) in a.clone() {
            ta.insert(r, v);
        }
        let mut tb = RTree::new();
        for (r, v) in b.clone() {
            tb.insert(r, v);
        }
        let got = sorted(join_intersecting(&ta, &tb));
        assert_eq!(got, brute(&a, &b, |x, y| x.intersects(y)));
    }

    #[test]
    fn empty_and_singleton_trees() {
        let empty: RTree<usize> = RTree::new();
        let single = RTree::bulk_load(vec![(rect(0.0, 0.0, 1.0), 7usize)]);
        assert!(join_intersecting(&empty, &single).is_empty());
        assert!(join_intersecting(&single, &empty).is_empty());
        let other = RTree::bulk_load(vec![(rect(0.5, 0.5, 1.0), 9usize)]);
        assert_eq!(sorted(join_intersecting(&single, &other)), vec![(7, 9)]);
        let far = RTree::bulk_load(vec![(rect(100.0, 0.0, 1.0), 1usize)]);
        assert!(join_intersecting(&single, &far).is_empty());
        assert_eq!(
            sorted(join_within_distance(&single, &far, 99.5)),
            vec![(7, 1)]
        );
    }

    #[test]
    fn within_distance_zero_equals_intersection() {
        let (a, b) = grids();
        let ta = RTree::bulk_load(a);
        let tb = RTree::bulk_load(b);
        assert_eq!(
            sorted(join_within_distance(&ta, &tb, 0.0)),
            sorted(join_intersecting(&ta, &tb))
        );
    }

    #[test]
    fn unbalanced_heights_join_correctly() {
        // A big tree against a tiny one exercises the Leaf×Internal arms.
        let (a, _) = grids();
        let ta = RTree::bulk_load(a.clone());
        let tiny = RTree::bulk_load(vec![(rect(10.0, 10.0, 3.0), 0usize)]);
        let got = sorted(join_intersecting(&ta, &tiny));
        let expected = brute(&a, &[(rect(10.0, 10.0, 3.0), 0usize)], |x, y| {
            x.intersects(y)
        });
        assert_eq!(got, expected);
        // And the mirrored orientation.
        let mut got_rev: Vec<(usize, usize)> = join_intersecting(&tiny, &ta)
            .into_iter()
            .map(|(x, y)| (*y, *x))
            .collect();
        got_rev.sort_unstable();
        assert_eq!(got_rev, expected);
    }

    /// The scheduler invariant: the emitted candidate *sequence* — not
    /// merely the set — is identical across thread counts and unit sizes,
    /// `node_tests` is identical too, and the set is the brute-force one.
    #[test]
    fn candidate_order_invariant_across_filter_configs() {
        let (a, b) = grids();
        let ta = RTree::bulk_load(a.clone());
        let tb = RTree::bulk_load(b.clone());
        let mut ref_stats = FilterStats::default();
        let reference = unsorted(join_intersecting_with(
            &ta,
            &tb,
            &FilterConfig::default(),
            &mut ref_stats,
        ));
        let mut set = reference.clone();
        set.sort_unstable();
        assert_eq!(set, brute(&a, &b, |x, y| x.intersects(y)));
        assert!(ref_stats.node_tests > 0);
        assert!(ref_stats.work_units >= 1);
        for threads in [1usize, 2, 8] {
            for unit_pairs in [1usize, 3, 64] {
                let cfg = FilterConfig {
                    threads,
                    unit_pairs,
                };
                let mut stats = FilterStats::default();
                let got = unsorted(join_intersecting_with(&ta, &tb, &cfg, &mut stats));
                assert_eq!(
                    got, reference,
                    "order diverged at threads={threads} unit={unit_pairs}"
                );
                assert_eq!(
                    stats.node_tests, ref_stats.node_tests,
                    "node_tests diverged at threads={threads} unit={unit_pairs}"
                );
            }
        }
    }

    #[test]
    fn threaded_join_dispenses_multiple_units() {
        let (a, b) = grids();
        let ta = RTree::bulk_load(a);
        let tb = RTree::bulk_load(b);
        let cfg = FilterConfig {
            threads: 4,
            unit_pairs: 2,
        };
        let mut stats = FilterStats::default();
        let got = unsorted(join_intersecting_with(&ta, &tb, &cfg, &mut stats));
        assert!(stats.work_units > 1, "frontier should split into units");
        assert_eq!(got, unsorted(join_intersecting(&ta, &tb)));
    }
}
