//! WKT in, queries out: load polygons from Well-Known Text (the exchange
//! format a DBMS integration would speak), index them, and run the
//! selection queries.
//!
//! ```bash
//! cargo run --release --example wkt_queries
//! ```

use hwspatial::core::engine::{EngineConfig, PreparedDataset, SpatialEngine};
use hwspatial::core::HwConfig;
use hwspatial::geom::wkt::{format_polygon, parse_polygon};

const PARCELS: &[&str] = &[
    "POLYGON ((10 10, 30 12, 28 30, 12 28, 10 10))",
    "POLYGON ((40 10, 60 10, 60 30, 40 30, 40 10))",
    "POLYGON ((70 12, 90 14, 88 32, 68 30, 70 12))",
    "POLYGON ((12 40, 30 42, 32 60, 10 58, 12 40))",
    "POLYGON ((42 44, 58 40, 62 58, 44 62, 42 44))",
    "POLYGON ((70 40, 92 42, 90 60, 72 62, 70 40))",
    "POLYGON ((10 70, 28 72, 30 92, 12 90, 10 70))",
    "POLYGON ((40 70, 62 68, 60 88, 42 92, 40 70))",
    "POLYGON ((70 70, 90 70, 90 90, 70 90, 70 70))",
];

fn main() {
    // Parse (and round-trip, to show the writer).
    let polygons: Vec<_> = PARCELS
        .iter()
        .map(|s| {
            let p = parse_polygon(s).expect("valid WKT");
            assert_eq!(parse_polygon(&format_polygon(&p)).unwrap(), p);
            p
        })
        .collect();
    let ds = PreparedDataset::new("parcels", polygons);
    println!("loaded {} parcels from WKT", ds.len());

    let query = parse_polygon("POLYGON ((25 25, 75 20, 80 75, 20 80, 25 25))").unwrap();
    let mut engine = SpatialEngine::new(EngineConfig::hardware(HwConfig::recommended()));

    let (intersecting, _) = engine.intersection_selection(&ds, &query);
    println!("parcels intersecting the zoning polygon: {intersecting:?}");

    let (contained, _) = engine.containment_selection(&ds, &query);
    println!("parcels strictly inside it:              {contained:?}");

    for &i in &contained {
        assert!(intersecting.contains(&i), "containment ⊆ intersection");
    }
}
