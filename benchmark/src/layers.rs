//! The traced round's layer replays: each layer's *public* function,
//! re-invoked from outside on an op's own candidate pairs, one span per
//! layer. Nothing here runs during the untraced rounds.
//!
//! The replays follow the product's choreography (same regions, window
//! resolutions, line widths, batch sizes) but always record cold — the
//! product's skeleton cache is crate-private — so `testers.record` is the
//! miss cost, an upper bound on what a warm tester pays.

use crate::trace::Tracer;
use hwspatial::core::hw_intersect::HwTester;
use hwspatial::geom::{polygon_contained_in, polygons_intersect, within_distance, Polygon};
use hwspatial::raster::aa_line::DIAGONAL_WIDTH;
use hwspatial::raster::atlas::record_batch;
use hwspatial::raster::{
    AtlasJob, CommandList, DeviceKind, HwCostModel, OverlapStrategy, Viewport, MAX_AA_LINE_WIDTH,
};
use std::hint::black_box;

/// Candidate pairs replayed per op, at most.
pub const SAMPLE: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    Intersects,
    /// Pairs are `(inner, outer)`.
    ContainedIn,
    Within(f64),
    OverlapArea(usize),
}

/// The hardware plan whose choreography the replay records.
#[derive(Debug, Clone, Copy)]
pub struct HwPlan {
    pub resolution: usize,
    pub batch: usize,
}

fn segment_job(p: &Polygon, q: &Polygon, viewport: Viewport) -> AtlasJob {
    AtlasJob {
        viewport,
        first_segments: p.edges().collect(),
        first_points: Vec::new(),
        second_segments: q.edges().collect(),
        second_points: Vec::new(),
    }
}

/// Records the pairs' command lists the way the testers would on a cold
/// cache. Pairs the product would answer without the device (no shared
/// region, Equation (1) width over the limit) record nothing.
fn record(pairs: &[(&Polygon, &Polygon)], pred: Predicate, plan: HwPlan) -> Vec<CommandList> {
    let res = plan.resolution;
    match pred {
        Predicate::Intersects | Predicate::ContainedIn => {
            let regions = pairs.iter().filter_map(|&(p, q)| {
                let region = if pred == Predicate::ContainedIn {
                    Some(p.mbr())
                } else {
                    p.mbr().intersection(&q.mbr())
                };
                region.map(|r| (p, q, r))
            });
            if plan.batch > 1 {
                let jobs: Vec<AtlasJob> = regions
                    .map(|(p, q, r)| segment_job(p, q, Viewport::new(r, res, res)))
                    .collect();
                jobs.chunks(plan.batch)
                    .map(|chunk| record_batch(chunk, DIAGONAL_WIDTH, 1.0).0)
                    .collect()
            } else {
                regions
                    .map(|(p, q, r)| {
                        HwTester::record_segment_test(
                            r,
                            res,
                            OverlapStrategy::Accumulation,
                            p.edges(),
                            q.edges(),
                        )
                        .0
                    })
                    .collect()
            }
        }
        Predicate::Within(d) => pairs
            .iter()
            .filter_map(|&(p, q)| {
                let (small, large) = if p.mbr().area() <= q.mbr().area() {
                    (p, q)
                } else {
                    (q, p)
                };
                let half = d / 2.0;
                let region = small
                    .mbr()
                    .expanded(half)
                    .intersection(&large.mbr().expanded(half))?;
                let width = Viewport::uniform(region, res, res)
                    .line_width_for_distance(d.max(f64::MIN_POSITIVE));
                (width <= MAX_AA_LINE_WIDTH).then(|| {
                    HwTester::record_distance_test(
                        region,
                        res,
                        OverlapStrategy::Accumulation,
                        width,
                        small,
                        large,
                    )
                    .0
                })
            })
            .collect(),
        Predicate::OverlapArea(resolution) => pairs
            .iter()
            .filter_map(|&(p, q)| {
                let region = p.mbr().intersection(&q.mbr())?;
                (region.width() > 0.0 && region.height() > 0.0).then(|| {
                    HwTester::record_overlap_area(
                        region,
                        resolution,
                        p.vertices().iter().copied(),
                        q.vertices().iter().copied(),
                    )
                    .0
                })
            })
            .collect(),
    }
}

/// Spans `testers.record`, `raster.execute`, `raster.replay_cost` and
/// `geom.sweep` / `geom.mindist` over the sampled pairs of one op. With no
/// hardware plan (a pure-software engine) only the geometry span runs.
pub fn replay_refinement(
    tr: &mut Tracer,
    op: u32,
    pairs: &[(&Polygon, &Polygon)],
    pred: Predicate,
    plan: Option<HwPlan>,
) {
    if let Some(plan) = plan {
        replay_hardware(tr, op, pairs, pred, plan);
    }
    replay_geometry(tr, op, pairs, pred);
}

fn replay_hardware(
    tr: &mut Tracer,
    op: u32,
    pairs: &[(&Polygon, &Polygon)],
    pred: Predicate,
    plan: HwPlan,
) {
    let lists = tr.span("testers.record", op, |_| {
        let lists = record(pairs, pred, plan);
        let n = lists.len() as u64;
        (lists, n)
    });
    tr.span("raster.execute", op, |_| {
        let mut device = DeviceKind::default().build();
        for list in &lists {
            black_box(
                device
                    .execute(list)
                    .expect("the default device is infallible"),
            );
        }
        ((), lists.len() as u64)
    });
    tr.span("raster.replay_cost", op, |_| {
        let model = HwCostModel::default();
        for list in &lists {
            black_box(model.replay_cost(list));
        }
        ((), lists.len() as u64)
    });
}

fn replay_geometry(tr: &mut Tracer, op: u32, pairs: &[(&Polygon, &Polygon)], pred: Predicate) {
    match pred {
        Predicate::Intersects => tr.span("geom.sweep", op, |_| {
            for &(p, q) in pairs {
                black_box(polygons_intersect(p, q));
            }
            ((), pairs.len() as u64)
        }),
        Predicate::ContainedIn => tr.span("geom.sweep", op, |_| {
            for &(inner, outer) in pairs {
                black_box(polygon_contained_in(inner, outer));
            }
            ((), pairs.len() as u64)
        }),
        Predicate::Within(d) => tr.span("geom.mindist", op, |_| {
            for &(p, q) in pairs {
                black_box(within_distance(p, q, d));
            }
            ((), pairs.len() as u64)
        }),
        // The aggregation has no geometry-only path: its software side
        // replays the same recorded list (DESIGN.md §14).
        Predicate::OverlapArea(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::self_times;

    fn slabs() -> (Polygon, Polygon) {
        (
            Polygon::from_coords(&[(0.0, 0.0), (2.0, 0.0), (10.0, 8.0), (8.0, 8.0)]),
            Polygon::from_coords(&[(5.0, 0.0), (7.0, 0.0), (15.0, 8.0), (13.0, 8.0)]),
        )
    }

    #[test]
    fn every_predicate_records_and_replays() {
        let (a, b) = slabs();
        let pairs = [(&a, &b), (&b, &a), (&a, &b)];
        for (pred, batch, lists, geom) in [
            (Predicate::Intersects, 1, 3, Some("geom.sweep")),
            (Predicate::Intersects, 2, 2, Some("geom.sweep")),
            (Predicate::ContainedIn, 1, 3, Some("geom.sweep")),
            (Predicate::Within(1.0), 1, 3, Some("geom.mindist")),
            (Predicate::OverlapArea(16), 1, 3, None),
        ] {
            let mut tr = Tracer::new();
            let plan = Some(HwPlan {
                resolution: 8,
                batch,
            });
            tr.span("op", 0, |tr| {
                replay_refinement(tr, 0, &pairs, pred, plan);
                ((), 1)
            });
            let t = self_times(tr.spans());
            for name in ["testers.record", "raster.execute", "raster.replay_cost"] {
                assert_eq!(t[name].count, lists, "{pred:?} batch {batch} {name}");
            }
            match geom {
                Some(name) => assert_eq!(t[name].count, 3),
                None => assert!(!t.contains_key("geom.sweep") && !t.contains_key("geom.mindist")),
            }
        }
    }

    #[test]
    fn without_a_hardware_plan_only_geometry_is_replayed() {
        let (a, b) = slabs();
        let mut tr = Tracer::new();
        replay_refinement(&mut tr, 0, &[(&a, &b)], Predicate::Within(1.0), None);
        let names: Vec<_> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, ["geom.mindist"]);
    }

    #[test]
    fn a_width_over_the_hardware_limit_records_nothing() {
        let (a, b) = slabs();
        // The shared region is about as wide as d, so Equation (1) asks
        // for a line as wide as the window: 32 px, over the 10 px limit.
        let plan = HwPlan {
            resolution: 32,
            batch: 1,
        };
        assert!(record(&[(&a, &b)], Predicate::Within(1e6), plan).is_empty());
        assert_eq!(record(&[(&a, &b)], Predicate::Within(1.0), plan).len(), 1);
    }
}
