//! Scenario matrices: the cartesian product of named axes, as plain
//! data.
//!
//! A campaign is defined by its axes — e.g. `workload × interface` for
//! the §4.3 exploration, or `scenario × model` for the ablation
//! benches. The product is enumerated in row-major order (the first
//! axis varies slowest), which fixes the scenario index every other
//! part of the engine keys on: workers pull indices and results merge
//! in index order.

/// One named axis of a scenario matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Axis {
    /// Axis name, e.g. `"workload"`.
    name: String,
    /// The values the axis sweeps over, in sweep order.
    values: Vec<String>,
}

/// One point of the product: its global index plus the value index
/// along every axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioPoint {
    /// Position in row-major enumeration order (the merge key).
    pub index: usize,
    /// Per-axis value indices, in axis declaration order.
    pub coords: Vec<usize>,
}

/// The cartesian product of named axes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Matrix {
    axes: Vec<Axis>,
}

impl Matrix {
    /// An empty matrix (one implicit scenario once an axis is added;
    /// zero axes enumerate to a single empty point is *not* useful, so
    /// [`points`](Self::points) returns none until an axis exists).
    pub fn new() -> Self {
        Matrix::default()
    }

    /// Adds an axis; builder-style.
    ///
    /// # Panics
    ///
    /// Panics on an empty value list or a duplicate axis name —
    /// both would make scenario indices meaningless.
    pub fn axis<S: Into<String>>(
        mut self,
        name: &str,
        values: impl IntoIterator<Item = S>,
    ) -> Self {
        let values: Vec<String> = values.into_iter().map(Into::into).collect();
        assert!(!values.is_empty(), "axis {name:?} has no values");
        assert!(
            self.axes.iter().all(|a| a.name != name),
            "duplicate axis {name:?}"
        );
        self.axes.push(Axis {
            name: name.to_owned(),
            values,
        });
        self
    }

    /// Total number of scenarios (product of axis lengths; 0 with no
    /// axes).
    pub fn len(&self) -> usize {
        if self.axes.is_empty() {
            0
        } else {
            self.axes.iter().map(|a| a.values.len()).product()
        }
    }

    /// True if the matrix enumerates no scenarios.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enumerates every scenario point in row-major order (first axis
    /// slowest) — the canonical campaign order.
    pub fn points(&self) -> Vec<ScenarioPoint> {
        let n = self.len();
        let mut out = Vec::with_capacity(n);
        for index in 0..n {
            let mut rem = index;
            let mut coords = vec![0; self.axes.len()];
            for (i, axis) in self.axes.iter().enumerate().rev() {
                coords[i] = rem % axis.values.len();
                rem /= axis.values.len();
            }
            out.push(ScenarioPoint { index, coords });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::new()
            .axis("config", ["a", "b", "c"])
            .axis("workload", ["x", "y"])
    }

    #[test]
    fn row_major_enumeration_first_axis_slowest() {
        let m = sample();
        assert_eq!(m.len(), 6);
        let points = m.points();
        let coords: Vec<Vec<usize>> = points.iter().map(|p| p.coords.clone()).collect();
        assert_eq!(
            coords,
            [[0, 0], [0, 1], [1, 0], [1, 1], [2, 0], [2, 1]].map(Vec::from)
        );
        assert!(points.iter().enumerate().all(|(i, p)| p.index == i));
    }

    #[test]
    fn empty_matrix_has_no_points() {
        let m = Matrix::new();
        assert!(m.is_empty());
        assert!(m.points().is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate axis")]
    fn duplicate_axis_rejected() {
        let _ = Matrix::new().axis("a", ["1"]).axis("a", ["2"]);
    }

    #[test]
    #[should_panic(expected = "no values")]
    fn empty_axis_rejected() {
        let _ = Matrix::new().axis("a", Vec::<String>::new());
    }
}
