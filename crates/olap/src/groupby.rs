//! The group-by kernel behind fact-store materialization and cuboid
//! roll-up.
//!
//! Both are the roll-up operator of an OLAP algebra: map every input row
//! to one group per dimension, then fold each group's values with a
//! distributive aggregate. The kernel sees that operator in columnar
//! form. Each dimension contributes one `u32` column of group ids plus
//! the member each id stands for. Ids rank those members in index order,
//! so the mixed-radix *cell id* `((g0·n1 + g1)·n2 + g2)…` orders cells
//! exactly as their `Vec<Member>` keys compare.
//!
//! One pass folds the values into per-cell accumulators; nothing is
//! allocated per row. When the cell space (the product of the domain
//! sizes) is no larger than the row count, the accumulators form a dense
//! array indexed by cell id. Otherwise, the kernel sorts row indices by
//! their id tuples and folds each run of equal tuples. Either way, the
//! output comes out in key order and is built once.

use crate::agg::AggFn;
use odc_instance::Member;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// The group id of a row that has no ancestor at the grouping level.
/// Such a row drops out of the result.
pub const NO_GROUP: u32 = u32::MAX;

/// One grouping dimension: every input row's group id (or
/// [`NO_GROUP`]), and the member each id stands for.
#[derive(Debug, Clone, Copy)]
pub struct GroupColumn<'a> {
    /// Group id per input row, `< members.len()` or [`NO_GROUP`].
    pub ids: &'a [u32],
    /// `members[g]` is the member group id `g` stands for; ascending in
    /// member index.
    pub members: &'a [Member],
}

/// Groups `values` by their rows' id tuples and folds each group with
/// `agg`: `SUM`, `MIN` and `MAX` fold the values, and `COUNT` counts
/// rows. Rows with a [`NO_GROUP`] id in any column are dropped. Groups
/// that receive no row are absent.
///
/// # Panics
/// Panics when a column's length differs from `values.len()`, or an id
/// is out of its column's domain.
pub fn group_by(
    cols: &[GroupColumn<'_>],
    values: &[i64],
    agg: AggFn,
) -> BTreeMap<Vec<Member>, i64> {
    for c in cols {
        assert_eq!(c.ids.len(), values.len(), "group column length mismatch");
    }
    let cells = cols
        .iter()
        .try_fold(1usize, |n, c| n.checked_mul(c.members.len()));
    let groups = match cells {
        Some(n) if n <= values.len() => dense(cols, values, agg, n),
        _ => sorted(cols, values, agg),
    };
    groups.into_iter().collect()
}

/// What one row contributes to its group.
#[inline]
fn contribution(agg: AggFn, v: i64) -> i64 {
    if agg == AggFn::Count {
        1
    } else {
        v
    }
}

/// The output key of one id tuple.
fn key(cols: &[GroupColumn<'_>], ids: impl Iterator<Item = u32>) -> Vec<Member> {
    cols.iter()
        .zip(ids)
        .map(|(c, g)| c.members[g as usize])
        .collect()
}

/// The dense path: one accumulator per cell of the cell space.
fn dense(
    cols: &[GroupColumn<'_>],
    values: &[i64],
    agg: AggFn,
    cells: usize,
) -> Vec<(Vec<Member>, i64)> {
    let mut acc = vec![0i64; cells];
    let mut hit = vec![false; cells];
    'rows: for (i, &v) in values.iter().enumerate() {
        let mut cell = 0usize;
        for c in cols {
            let g = c.ids[i];
            if g == NO_GROUP {
                continue 'rows;
            }
            cell = cell * c.members.len() + g as usize;
        }
        let v = contribution(agg, v);
        acc[cell] = if hit[cell] {
            agg.combine(acc[cell], v)
        } else {
            v
        };
        hit[cell] = true;
    }
    // Walk the cells in id order with an odometer over the id tuple.
    let mut tuple = vec![0u32; cols.len()];
    let mut out = Vec::new();
    for (cell, &v) in acc.iter().enumerate() {
        if hit[cell] {
            out.push((key(cols, tuple.iter().copied()), v));
        }
        for (k, c) in cols.iter().enumerate().rev() {
            tuple[k] += 1;
            if (tuple[k] as usize) < c.members.len() {
                break;
            }
            tuple[k] = 0;
        }
    }
    out
}

/// The sorted path: row indices ordered by id tuple, one group per run.
fn sorted(cols: &[GroupColumn<'_>], values: &[i64], agg: AggFn) -> Vec<(Vec<Member>, i64)> {
    let tuple_cmp = |a: u32, b: u32| {
        cols.iter()
            .map(|c| c.ids[a as usize].cmp(&c.ids[b as usize]))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    };
    let mut order: Vec<u32> = (0..values.len() as u32)
        .filter(|&i| cols.iter().all(|c| c.ids[i as usize] != NO_GROUP))
        .collect();
    order.sort_unstable_by(|&a, &b| tuple_cmp(a, b));
    let mut out = Vec::new();
    for run in order.chunk_by(|&a, &b| tuple_cmp(a, b).is_eq()) {
        let v = run
            .iter()
            .map(|&i| contribution(agg, values[i as usize]))
            .reduce(|a, v| agg.combine(a, v))
            .unwrap_or_default();
        out.push((key(cols, cols.iter().map(|c| c.ids[run[0] as usize])), v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn members(n: usize) -> Vec<Member> {
        (0..n).map(|i| Member::from_index(10 + 2 * i)).collect()
    }

    /// The kernel's result computed the obvious way.
    fn naive(cols: &[GroupColumn<'_>], values: &[i64], agg: AggFn) -> BTreeMap<Vec<Member>, i64> {
        let mut groups: BTreeMap<Vec<Member>, Vec<i64>> = BTreeMap::new();
        'rows: for (i, &v) in values.iter().enumerate() {
            let mut k = Vec::new();
            for c in cols {
                if c.ids[i] == NO_GROUP {
                    continue 'rows;
                }
                k.push(c.members[c.ids[i] as usize]);
            }
            groups.entry(k).or_default().push(v);
        }
        groups
            .into_iter()
            .filter_map(|(k, vs)| Some((k, agg.apply(&vs)?)))
            .collect()
    }

    #[test]
    fn dense_and_sorted_paths_agree_with_the_naive_group_by() {
        let (ma, mb) = (members(3), members(4));
        // Sorted, the tuples (0, 3) and (1, 3) form adjacent runs that
        // share their last id.
        let a = [0, 2, NO_GROUP, 1, 2, 0, 1, 2, 0, 0, 2, 1, 2, 2];
        let b = [3, 0, 1, 3, 0, NO_GROUP, 3, 0, 3, 3, 2, 1, 0, 3];
        let v = [5, -7, 1, 4, 9, 2, -3, 0, 8, -1, 6, 6, -2, 11];
        let cols = [
            GroupColumn {
                ids: &a,
                members: &ma,
            },
            GroupColumn {
                ids: &b,
                members: &mb,
            },
        ];
        for agg in AggFn::ALL {
            // 12 cells, 14 rows: dense.
            assert_eq!(
                group_by(&cols, &v, agg),
                naive(&cols, &v, agg),
                "{agg} dense"
            );
            // The first 11 rows: 12 cells > 11 rows, sorted.
            let cut: Vec<GroupColumn<'_>> = cols
                .iter()
                .map(|c| GroupColumn {
                    ids: &c.ids[..11],
                    members: c.members,
                })
                .collect();
            assert_eq!(
                group_by(&cut, &v[..11], agg),
                naive(&cut, &v[..11], agg),
                "{agg} sorted"
            );
        }
    }

    #[test]
    fn no_rows_and_no_dimensions() {
        let m = members(2);
        let cols = [GroupColumn {
            ids: &[],
            members: &m,
        }];
        assert!(group_by(&cols, &[], AggFn::Sum).is_empty());
        // Zero dimensions: one grand-total cell keyed by the empty tuple.
        let total = group_by(&[], &[3, 4], AggFn::Count);
        assert_eq!(total, BTreeMap::from([(Vec::new(), 2)]));
        assert!(group_by(&[], &[], AggFn::Sum).is_empty());
    }
}
