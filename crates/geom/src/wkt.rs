//! Minimal WKT (Well-Known Text) I/O for simple polygons.
//!
//! Supports the `POLYGON ((x y, x y, ...))` form used by the examples to
//! load and dump datasets. Interior rings are rejected — the paper's
//! algorithms operate on simple polygons without holes.

use crate::point::Point;
use crate::polygon::{Polygon, PolygonError};
use std::fmt::Write as _;

/// Errors from [`parse_polygon`].
#[derive(Debug, Clone, PartialEq)]
pub enum WktError {
    /// The string does not start with the `POLYGON` tag.
    NotAPolygon,
    /// Parenthesis structure is malformed.
    BadParens,
    /// A coordinate failed to parse as `f64`.
    BadNumber(String),
    /// More than one ring (holes are unsupported).
    HasInteriorRings,
    /// Structurally invalid polygon (too few vertices, duplicates...).
    Invalid(PolygonError),
}

impl std::fmt::Display for WktError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WktError::NotAPolygon => write!(f, "expected POLYGON tag"),
            WktError::BadParens => write!(f, "malformed parentheses"),
            WktError::BadNumber(s) => write!(f, "bad coordinate: {s:?}"),
            WktError::HasInteriorRings => write!(f, "interior rings not supported"),
            WktError::Invalid(e) => write!(f, "invalid polygon: {e}"),
        }
    }
}

impl std::error::Error for WktError {}

/// Parses a `POLYGON ((...))` string.
pub fn parse_polygon(s: &str) -> Result<Polygon, WktError> {
    let t = s.trim();
    let upper = t.to_ascii_uppercase();
    if !upper.starts_with("POLYGON") {
        return Err(WktError::NotAPolygon);
    }
    let rest = t["POLYGON".len()..].trim_start();
    let inner = rest
        .strip_prefix('(')
        .and_then(|r| r.trim_end().strip_suffix(')'))
        .ok_or(WktError::BadParens)?
        .trim();
    // Split rings at top level: inner should be "(ring1), (ring2)...".
    // Outside a ring only whitespace and the one comma between two rings
    // may appear.
    let mut rings: Vec<&str> = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    let mut ring_due = true;
    for (i, c) in inner.char_indices() {
        match c {
            '(' => {
                if depth == 0 {
                    if !ring_due {
                        return Err(WktError::BadParens);
                    }
                    ring_due = false;
                    start = i + 1;
                }
                depth += 1;
            }
            ')' => {
                if depth == 0 {
                    return Err(WktError::BadParens);
                }
                depth -= 1;
                if depth == 0 {
                    rings.push(&inner[start..i]);
                }
            }
            ',' if depth == 0 && !ring_due => ring_due = true,
            c if depth == 0 && !c.is_whitespace() => return Err(WktError::BadParens),
            _ => {}
        }
    }
    if depth != 0 || ring_due {
        return Err(WktError::BadParens);
    }
    if rings.len() > 1 {
        return Err(WktError::HasInteriorRings);
    }
    let mut vertices = Vec::new();
    for pair in rings[0].split(',') {
        let mut nums = pair.split_whitespace();
        let x: f64 = nums
            .next()
            .ok_or_else(|| WktError::BadNumber(pair.to_string()))?
            .parse()
            .map_err(|_| WktError::BadNumber(pair.to_string()))?;
        let y: f64 = nums
            .next()
            .ok_or_else(|| WktError::BadNumber(pair.to_string()))?
            .parse()
            .map_err(|_| WktError::BadNumber(pair.to_string()))?;
        if nums.next().is_some() {
            return Err(WktError::BadNumber(pair.to_string()));
        }
        vertices.push(Point::new(x, y));
    }
    Polygon::new(vertices).map_err(WktError::Invalid)
}

/// Formats a polygon as `POLYGON ((x y, ..., x0 y0))` with the standard
/// closing vertex.
pub fn format_polygon(poly: &Polygon) -> String {
    let mut out = String::from("POLYGON ((");
    for (i, v) in poly.vertices().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{} {}", v.x, v.y);
    }
    let first = poly.vertices()[0];
    let _ = write!(out, ", {} {}))", first.x, first.y);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let p = Polygon::from_coords(&[(0.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.5, 3.5)]);
        let s = format_polygon(&p);
        let q = parse_polygon(&s).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn parses_standard_form() {
        let p = parse_polygon("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))").unwrap();
        assert_eq!(p.vertex_count(), 4);
        assert_eq!(p.area(), 100.0);
    }

    #[test]
    fn parses_lowercase_and_whitespace() {
        let p = parse_polygon("  polygon(( 0 0 ,1 0, 1 1 ))  ").unwrap();
        assert_eq!(p.vertex_count(), 3);
    }

    #[test]
    fn parses_negative_and_decimal() {
        let p = parse_polygon("POLYGON ((-1.5 -2.25, 3.0 0, 0 4.125))").unwrap();
        assert_eq!(p.vertices()[0], Point::new(-1.5, -2.25));
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            parse_polygon("LINESTRING (0 0, 1 1)"),
            Err(WktError::NotAPolygon)
        );
        assert_eq!(parse_polygon("POLYGON 0 0, 1 1"), Err(WktError::BadParens));
        assert_eq!(
            parse_polygon("POLYGON ((0 0, 1 1"),
            Err(WktError::BadParens)
        );
        assert!(matches!(
            parse_polygon("POLYGON ((0 0, 1 x, 2 2))"),
            Err(WktError::BadNumber(_))
        ));
        assert!(matches!(
            parse_polygon("POLYGON ((0 0, 1 1 7, 2 2))"),
            Err(WktError::BadNumber(_))
        ));
    }

    #[test]
    fn rejects_interior_rings() {
        assert_eq!(
            parse_polygon("POLYGON ((0 0, 10 0, 10 10), (2 2, 3 2, 3 3))"),
            Err(WktError::HasInteriorRings)
        );
    }

    #[test]
    fn rejects_junk_outside_a_ring() {
        for junk in [
            "POLYGON ((0 0, 4 0, 4 4) oops)",
            "POLYGON (junk (0 0, 4 0, 4 4))",
            "POLYGON ((0 0, 4 0, 4 4), )",
            "POLYGON (, (0 0, 4 0, 4 4))",
            "POLYGON ((0 0, 4 0, 4 4) (1 1, 2 1, 2 2))",
            "POLYGON ((0 0, 4 0, 4 4),, (1 1, 2 1, 2 2))",
            "POLYGON ()",
        ] {
            assert_eq!(parse_polygon(junk), Err(WktError::BadParens), "{junk}");
        }
    }

    #[test]
    fn rejects_invalid_polygon() {
        assert!(matches!(
            parse_polygon("POLYGON ((0 0, 1 1))"),
            Err(WktError::Invalid(_))
        ));
    }
}
