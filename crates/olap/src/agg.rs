//! Distributive aggregate functions.
//!
//! A distributive aggregate `af` can be computed on a set by partitioning
//! it, aggregating each part, and combining the partial results with a
//! (possibly different) aggregate `af^c` (footnote 1 of the paper):
//! `COUNT^c = SUM`, and `SUM`, `MIN`, `MAX` are their own combiners.

use std::fmt;

/// The distributive SQL aggregate functions of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFn {
    /// `SUM(m)`
    Sum,
    /// `COUNT(m)` (row count; the measure value is ignored)
    Count,
    /// `MIN(m)`
    Min,
    /// `MAX(m)`
    Max,
}

impl AggFn {
    /// All four functions, for exhaustive test sweeps.
    pub const ALL: [AggFn; 4] = [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max];

    /// Aggregates raw measure values. Returns `None` on an empty group
    /// (SQL would return NULL / no row; cube views simply omit the group).
    pub fn apply(self, values: &[i64]) -> Option<i64> {
        if values.is_empty() {
            return None;
        }
        match self {
            AggFn::Sum => Some(values.iter().sum()),
            AggFn::Count => Some(values.len() as i64),
            AggFn::Min => values.iter().min().copied(),
            AggFn::Max => values.iter().max().copied(),
        }
    }

    /// The combining function `af^c` used when re-aggregating partial
    /// aggregates.
    pub fn combiner(self) -> AggFn {
        match self {
            AggFn::Count => AggFn::Sum,
            other => other,
        }
    }

    /// Folds one more partial value into an accumulator using `af^c`.
    pub fn combine(self, acc: i64, next: i64) -> i64 {
        match self.combiner() {
            AggFn::Sum => acc + next,
            AggFn::Min => acc.min(next),
            AggFn::Max => acc.max(next),
            AggFn::Count => unreachable!("COUNT^c = SUM"),
        }
    }
}

impl fmt::Display for AggFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AggFn::Sum => "SUM",
            AggFn::Count => "COUNT",
            AggFn::Min => "MIN",
            AggFn::Max => "MAX",
        };
        write!(f, "{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_on_values() {
        let v = [3, 1, 4, 1, 5];
        assert_eq!(AggFn::Sum.apply(&v), Some(14));
        assert_eq!(AggFn::Count.apply(&v), Some(5));
        assert_eq!(AggFn::Min.apply(&v), Some(1));
        assert_eq!(AggFn::Max.apply(&v), Some(5));
    }

    #[test]
    fn empty_groups_yield_none() {
        for af in AggFn::ALL {
            assert_eq!(af.apply(&[]), None);
        }
    }

    #[test]
    fn count_combines_with_sum() {
        assert_eq!(AggFn::Count.combiner(), AggFn::Sum);
        assert_eq!(AggFn::Count.combine(2, 3), 5);
    }

    /// The distributivity law itself: af(all) == af^c over af(parts), for
    /// every partition of a sample vector.
    #[test]
    fn distributivity_over_partitions() {
        let v: Vec<i64> = vec![7, -2, 9, 9, 0, 3];
        for af in AggFn::ALL {
            let whole = af.apply(&v).unwrap();
            // Partition into prefix/suffix at every split point.
            for split in 1..v.len() {
                let a = af.apply(&v[..split]).unwrap();
                let b = af.apply(&v[split..]).unwrap();
                assert_eq!(af.combine(a, b), whole, "{af} split at {split}");
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(AggFn::Sum.to_string(), "SUM");
        assert_eq!(AggFn::Count.to_string(), "COUNT");
    }
}
