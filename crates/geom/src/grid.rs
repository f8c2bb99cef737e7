//! Grid partition of a region into equal squares with a 4-coloring.
//!
//! This is the geometric core of LDP (Algorithm 1 of the paper) and of
//! the ApproxLogN baseline: the region is tiled with axis-aligned squares
//! of side `β_k`, colored with four colors so that no two adjacent
//! squares (sharing an edge or corner) have the same color. Two distinct
//! squares of the same color are then at least one full square apart in
//! every axis, i.e. any two points in distinct same-color squares are at
//! distance ≥ the square side.

use crate::point::Point2;
use crate::rect::Rect;
use serde::{Deserialize, Serialize};

/// Integer coordinates of a square in the grid (column `a`, row `b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CellIndex {
    /// Column (x direction).
    pub a: i64,
    /// Row (y direction).
    pub b: i64,
}

/// One of the four grid colors; the coloring pattern has period 2 in
/// both axes (Fig. 2(a) of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GridColor(pub u8);

impl GridColor {
    /// All four colors in order.
    pub const ALL: [GridColor; 4] = [GridColor(0), GridColor(1), GridColor(2), GridColor(3)];
}

/// A partition of (the plane around) a region into `cell × cell` squares.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridPartition {
    origin: Point2,
    cell: f64,
}

impl GridPartition {
    /// Creates a grid of squares of side `cell`, anchored at the
    /// region's lower-left corner.
    ///
    /// # Panics
    /// Panics if `cell` is not finite and positive.
    pub fn new(region: &Rect, cell: f64) -> Self {
        assert!(
            cell.is_finite() && cell > 0.0,
            "grid cell size must be finite and positive, got {cell}"
        );
        Self {
            origin: region.min(),
            cell,
        }
    }

    /// Side length of each square.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Index of the square containing `p` (squares are half-open
    /// `[a·β, (a+1)·β)` so every point belongs to exactly one square).
    #[inline]
    pub fn cell_of(&self, p: &Point2) -> CellIndex {
        CellIndex {
            a: ((p.x - self.origin.x) / self.cell).floor() as i64,
            b: ((p.y - self.origin.y) / self.cell).floor() as i64,
        }
    }

    /// The 4-coloring: color depends only on the parity of the cell
    /// coordinates, so same-color cells differ by an even count of cells
    /// in each axis.
    #[inline]
    pub fn color_of(&self, cell: CellIndex) -> GridColor {
        GridColor(((cell.a.rem_euclid(2)) + 2 * (cell.b.rem_euclid(2))) as u8)
    }

    /// Lower-left corner of a square.
    pub fn cell_origin(&self, cell: CellIndex) -> Point2 {
        Point2::new(
            self.origin.x + cell.a as f64 * self.cell,
            self.origin.y + cell.b as f64 * self.cell,
        )
    }

    /// Lower bound on the Euclidean distance between any point of square
    /// `a` and any point of square `b` (0 for equal/adjacent squares).
    pub fn min_point_distance(&self, a: CellIndex, b: CellIndex) -> f64 {
        let gap_x = ((a.a - b.a).abs() - 1).max(0) as f64;
        let gap_y = ((a.b - b.b).abs() - 1).max(0) as f64;
        self.cell * gap_x.hypot(gap_y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid(cell: f64) -> GridPartition {
        GridPartition::new(&Rect::square(100.0), cell)
    }

    #[test]
    fn cell_of_maps_points_to_tiles() {
        let g = grid(10.0);
        assert_eq!(g.cell_of(&Point2::new(0.0, 0.0)), CellIndex { a: 0, b: 0 });
        assert_eq!(
            g.cell_of(&Point2::new(9.999, 0.0)),
            CellIndex { a: 0, b: 0 }
        );
        assert_eq!(g.cell_of(&Point2::new(10.0, 0.0)), CellIndex { a: 1, b: 0 });
        assert_eq!(
            g.cell_of(&Point2::new(25.0, 37.0)),
            CellIndex { a: 2, b: 3 }
        );
    }

    #[test]
    fn negative_coordinates_are_handled() {
        let g = grid(10.0);
        assert_eq!(
            g.cell_of(&Point2::new(-0.5, -0.5)),
            CellIndex { a: -1, b: -1 }
        );
        // Color is still well-defined and periodic for negative cells.
        assert_eq!(
            g.color_of(CellIndex { a: -1, b: -1 }),
            g.color_of(CellIndex { a: 1, b: 1 })
        );
    }

    #[test]
    fn four_colors_cover_a_2x2_block() {
        let g = grid(1.0);
        let g = &g;
        let mut colors: Vec<u8> = (0..2)
            .flat_map(|a| (0..2).map(move |b| g.color_of(CellIndex { a, b }).0))
            .collect();
        colors.sort_unstable();
        assert_eq!(colors, vec![0, 1, 2, 3]);
    }

    #[test]
    fn adjacent_cells_never_share_color() {
        let g = grid(1.0);
        for a in -3..3i64 {
            for b in -3..3i64 {
                let c = g.color_of(CellIndex { a, b });
                for (da, db) in [(0, 1), (1, 0), (1, 1), (1, -1)] {
                    let n = CellIndex {
                        a: a + da,
                        b: b + db,
                    };
                    assert_ne!(c, g.color_of(n), "cells ({a},{b}) and {n:?} share color");
                }
            }
        }
    }

    #[test]
    fn same_color_cells_are_a_square_apart() {
        // The LDP feasibility proof relies on: points in distinct
        // same-color squares are at Euclidean distance ≥ cell size.
        let g = grid(7.0);
        for a in -4..4i64 {
            for b in -4..4i64 {
                let x = CellIndex { a, b };
                for a2 in -4..4i64 {
                    for b2 in -4..4i64 {
                        let y = CellIndex { a: a2, b: b2 };
                        if x != y && g.color_of(x) == g.color_of(y) {
                            assert!(
                                g.min_point_distance(x, y) >= g.cell_size() - 1e-12,
                                "{x:?} vs {y:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn min_point_distance_examples() {
        let g = grid(10.0);
        let o = CellIndex { a: 0, b: 0 };
        assert_eq!(g.min_point_distance(o, o), 0.0);
        assert_eq!(g.min_point_distance(o, CellIndex { a: 1, b: 0 }), 0.0);
        assert_eq!(g.min_point_distance(o, CellIndex { a: 2, b: 0 }), 10.0);
        let diag = g.min_point_distance(o, CellIndex { a: 2, b: 2 });
        assert!((diag - 10.0 * 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn cell_origin_roundtrip() {
        let g = grid(5.0);
        let c = CellIndex { a: 3, b: -2 };
        let p = g.cell_origin(c);
        assert_eq!(g.cell_of(&Point2::new(p.x + 0.1, p.y + 0.1)), c);
    }

    #[test]
    #[should_panic(expected = "cell size must be finite and positive")]
    fn rejects_nonpositive_cell() {
        grid(0.0);
    }

    proptest! {
        #[test]
        fn min_point_distance_is_a_true_lower_bound(
            px in 0.0f64..100.0, py in 0.0f64..100.0,
            qx in 0.0f64..100.0, qy in 0.0f64..100.0,
            cell in 0.5f64..20.0,
        ) {
            let g = grid(cell);
            let p = Point2::new(px, py);
            let q = Point2::new(qx, qy);
            let bound = g.min_point_distance(g.cell_of(&p), g.cell_of(&q));
            prop_assert!(p.distance(&q) >= bound - 1e-9);
        }

        #[test]
        fn color_has_period_two(a in -100i64..100, b in -100i64..100, cell in 0.5f64..20.0) {
            let g = grid(cell);
            let c = CellIndex { a, b };
            let shifted = CellIndex { a: a + 2, b: b - 2 };
            prop_assert_eq!(g.color_of(c), g.color_of(shifted));
        }
    }
}
