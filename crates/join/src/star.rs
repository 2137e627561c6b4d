//! Star-join schema: a hub table plus dimension tables keyed by hub row.

use iam_data::{Interval, Table};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// One dimension table: content columns plus a foreign key into the hub.
#[derive(Debug, Clone)]
pub struct DimTable {
    /// The content table (does *not* include the key column).
    pub table: Table,
    /// Per-row foreign key: `fk[r]` is the hub row this row belongs to.
    pub fk: Vec<u32>,
    /// Rows grouped by hub row id (`rows_of[m]` lists row ids with fk = m).
    pub rows_of: Vec<Vec<u32>>,
}

impl DimTable {
    /// Build, grouping rows by hub id.
    pub fn new(table: Table, fk: Vec<u32>, hub_rows: usize) -> Self {
        assert_eq!(table.nrows(), fk.len());
        let mut rows_of = vec![Vec::new(); hub_rows];
        for (r, &m) in fk.iter().enumerate() {
            rows_of[m as usize].push(r as u32);
        }
        DimTable { table, fk, rows_of }
    }
}

/// Hub + dimensions, all joined on the hub key.
#[derive(Debug, Clone)]
pub struct StarSchema {
    /// The hub table (e.g. `title`); its implicit key is the row index.
    pub hub: Table,
    /// Dimension tables.
    pub dims: Vec<DimTable>,
}

/// A per-table conjunction of intervals (local predicates), aligned with
/// that table's own column indices.
pub type LocalRanges = Vec<Option<Interval>>;

impl StarSchema {
    /// Number of full-outer-join rows: `Σ_m Π_t max(cnt_t(m), 1)`.
    pub fn foj_size(&self) -> f64 {
        let mut total = 0.0f64;
        for m in 0..self.hub.nrows() {
            let mut w = 1.0f64;
            for d in &self.dims {
                w *= d.rows_of[m].len().max(1) as f64;
            }
            total += w;
        }
        total
    }

    /// Exact inner-join cardinality of a query: `join_tables[t]` marks which
    /// dimension tables participate; `hub_ranges` / `dim_ranges[t]` hold the
    /// per-table local predicates.
    pub fn exact_card(
        &self,
        join_tables: &[bool],
        hub_ranges: &LocalRanges,
        dim_ranges: &[LocalRanges],
    ) -> f64 {
        assert_eq!(join_tables.len(), self.dims.len());
        let nmovies = self.hub.nrows();
        // per-dimension, per-movie matching-row counts (only joined tables)
        let mut counts: Vec<Option<Vec<u32>>> = vec![None; self.dims.len()];
        for (t, dim) in self.dims.iter().enumerate() {
            if !join_tables[t] {
                continue;
            }
            let mut c = vec![0u32; nmovies];
            let ranges = &dim_ranges[t];
            'rows: for r in 0..dim.table.nrows() {
                for (ci, iv) in ranges.iter().enumerate() {
                    if let Some(iv) = iv {
                        if !iv.contains(dim.table.columns[ci].value_as_f64(r)) {
                            continue 'rows;
                        }
                    }
                }
                c[dim.fk[r] as usize] += 1;
            }
            counts[t] = Some(c);
        }
        let mut total = 0.0f64;
        'movies: for m in 0..nmovies {
            for (ci, iv) in hub_ranges.iter().enumerate() {
                if let Some(iv) = iv {
                    if !iv.contains(self.hub.columns[ci].value_as_f64(m)) {
                        continue 'movies;
                    }
                }
            }
            let mut w = 1.0f64;
            for c in counts.iter().flatten() {
                let k = c[m];
                if k == 0 {
                    continue 'movies;
                }
                w *= k as f64;
            }
            total += w;
        }
        total
    }

    /// Exact-Weight sampling of the full outer join: returns, per sample,
    /// the hub row and one optional row id per dimension.
    pub(crate) fn sample_foj(&self, n: usize, seed: u64) -> Vec<(u32, Vec<Option<u32>>)> {
        let nmovies = self.hub.nrows();
        let mut rng = StdRng::seed_from_u64(seed);
        // movie weights = Π max(cnt, 1)
        let mut cum = Vec::with_capacity(nmovies);
        let mut acc = 0.0f64;
        for m in 0..nmovies {
            let mut w = 1.0f64;
            for d in &self.dims {
                w *= d.rows_of[m].len().max(1) as f64;
            }
            acc += w;
            cum.push(acc);
        }
        (0..n)
            .map(|_| {
                let u = rng.random::<f64>() * acc;
                let m = cum.partition_point(|&c| c < u).min(nmovies - 1);
                let picks = self
                    .dims
                    .iter()
                    .map(|d| {
                        let rows = &d.rows_of[m];
                        if rows.is_empty() {
                            None
                        } else {
                            Some(rows[rng.random_range(0..rows.len())])
                        }
                    })
                    .collect();
                (m as u32, picks)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iam_data::column::{CatColumn, Column, ContColumn};
    use iam_data::query::Op;

    /// hub: 3 movies; dim0 has rows for movies 0 (×2) and 1 (×1);
    /// dim1 has rows for movies 1 (×1) and 2 (×3).
    fn tiny() -> StarSchema {
        let hub = Table::new(
            "hub",
            vec![Column::Categorical(CatColumn::from_codes_dense("kind", vec![0, 1, 0], 2))],
        )
        .unwrap();
        let d0 =
            Table::new("d0", vec![Column::Continuous(ContColumn::new("x", vec![1.0, 2.0, 3.0]))])
                .unwrap();
        let d1 = Table::new(
            "d1",
            vec![Column::Continuous(ContColumn::new("y", vec![10.0, 20.0, 30.0, 40.0]))],
        )
        .unwrap();
        StarSchema {
            hub: hub.clone(),
            dims: vec![
                DimTable::new(d0, vec![0, 0, 1], hub.nrows()),
                DimTable::new(d1, vec![1, 2, 2, 2], hub.nrows()),
            ],
        }
    }

    #[test]
    fn foj_size_is_product_of_padded_counts() {
        let s = tiny();
        // movie 0: 2×1, movie 1: 1×1, movie 2: 1×3 → 2 + 1 + 3 = 6
        assert_eq!(s.foj_size(), 6.0);
    }

    #[test]
    fn exact_card_inner_join() {
        let s = tiny();
        // join hub ⋈ d0 ⋈ d1, no predicates: only movie 1 has rows in both
        let card = s.exact_card(&[true, true], &vec![None; 1], &[vec![None; 1], vec![None; 1]]);
        assert_eq!(card, 1.0);
        // hub ⋈ d1 only: movies 1 (1 row) and 2 (3 rows)
        let card = s.exact_card(&[false, true], &vec![None; 1], &[vec![None; 1], vec![None; 1]]);
        assert_eq!(card, 4.0);
    }

    #[test]
    fn exact_card_with_predicates() {
        let s = tiny();
        // hub ⋈ d0 with x ≥ 2: movie 0 has one matching row (x=2), movie 1
        // has one (x=3)
        let mut d0r: LocalRanges = vec![None];
        d0r[0] = Some(Interval::from_op(Op::Ge, 2.0));
        let card = s.exact_card(&[true, false], &vec![None; 1], &[d0r, vec![None; 1]]);
        assert_eq!(card, 2.0);
        // plus hub predicate kind = 1 → only movie 1
        let mut hr: LocalRanges = vec![None];
        hr[0] = Some(Interval::point(1.0));
        let mut d0r: LocalRanges = vec![None];
        d0r[0] = Some(Interval::from_op(Op::Ge, 2.0));
        let card = s.exact_card(&[true, false], &hr, &[d0r, vec![None; 1]]);
        assert_eq!(card, 1.0);
    }

    #[test]
    fn foj_sampling_matches_weights() {
        let s = tiny();
        let samples = s.sample_foj(12_000, 1);
        let mut counts = [0usize; 3];
        for (m, picks) in &samples {
            counts[*m as usize] += 1;
            // NULL exactly when the movie has no rows in that dim
            assert_eq!(picks[0].is_none(), s.dims[0].rows_of[*m as usize].is_empty());
        }
        // weights 2 : 1 : 3
        let f0 = counts[0] as f64 / 12_000.0;
        let f2 = counts[2] as f64 / 12_000.0;
        assert!((f0 - 2.0 / 6.0).abs() < 0.02, "{f0}");
        assert!((f2 - 3.0 / 6.0).abs() < 0.02, "{f2}");
    }
}
