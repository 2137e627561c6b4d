//! Flattening full-outer-join samples into a single trainable table.
//!
//! Layout: the hub's columns first, then for each dimension table a
//! presence *indicator* column (0/1) followed by that table's content
//! columns. Absent rows are NULL-padded: categorical columns gain a `~null`
//! dictionary entry (sorting last), continuous columns use a sentinel below
//! the real minimum. [`FlatSchema::rewrite`] converts a join query into a
//! [`RangeQuery`] over this layout — requiring the indicator of every
//! joined table and clamping content intervals to the real (non-NULL)
//! value range.

use crate::star::StarSchema;
use crate::workload::JoinQuery;
use iam_data::column::{CatColumn, Column, ContColumn};
use iam_data::{Interval, RangeQuery, SelectivityEstimator, Table};

/// Column bookkeeping for the flat layout.
#[derive(Debug, Clone)]
pub struct FlatSchema {
    /// Number of hub columns.
    pub hub_cols: usize,
    /// Flat index of each dimension's indicator column.
    pub dim_offsets: Vec<usize>,
    /// Real (non-NULL) `(min, max)` per flat column.
    pub bounds: Vec<(f64, f64)>,
    /// Total flat columns.
    pub ncols: usize,
    /// |full outer join| of the schema the sample came from.
    pub foj_size: f64,
}

/// Materialise `n` Exact-Weight FOJ samples into a flat table.
pub fn flatten_foj(star: &StarSchema, n: usize, seed: u64) -> (Table, FlatSchema) {
    let samples = star.sample_foj(n, seed);
    let hub_cols = star.hub.ncols();

    let mut columns: Vec<Column> = Vec::new();
    let mut bounds: Vec<(f64, f64)> = Vec::new();
    let mut dim_offsets = Vec::new();

    let col_bounds = |c: &Column| -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for r in 0..c.len() {
            let v = c.value_as_f64(r);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        if lo > hi {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    };

    // hub columns (always present)
    for (ci, c) in star.hub.columns.iter().enumerate() {
        bounds.push(col_bounds(c));
        match c {
            Column::Categorical(cc) => {
                let codes = samples.iter().map(|&(m, _)| cc.codes[m as usize]).collect();
                columns.push(Column::Categorical(CatColumn::from_codes(
                    format!("title.{}", cc.name),
                    codes,
                    cc.dict.clone(),
                )));
            }
            Column::Continuous(cc) => {
                let values = samples.iter().map(|&(m, _)| cc.values[m as usize]).collect();
                columns.push(Column::Continuous(ContColumn::new(
                    format!("title.{}", cc.name),
                    values,
                )));
            }
        }
        let _ = ci;
    }

    // dimension columns with indicators and NULL padding
    for (t, dim) in star.dims.iter().enumerate() {
        dim_offsets.push(columns.len());
        let ind_codes: Vec<u32> =
            samples.iter().map(|(_, picks)| u32::from(picks[t].is_some())).collect();
        bounds.push((0.0, 1.0));
        columns.push(Column::Categorical(CatColumn::from_codes(
            format!("{}.__present", dim.table.name),
            ind_codes,
            vec!["0".into(), "1".into()],
        )));
        for c in &dim.table.columns {
            let (lo, hi) = col_bounds(c);
            bounds.push((lo, hi));
            match c {
                Column::Categorical(cc) => {
                    let null_code = cc.dict.len() as u32;
                    let codes = samples
                        .iter()
                        .map(|(_, picks)| picks[t].map_or(null_code, |r| cc.codes[r as usize]))
                        .collect();
                    let mut dict = cc.dict.clone();
                    dict.push("~null".into());
                    columns.push(Column::Categorical(CatColumn::from_codes(
                        format!("{}.{}", dim.table.name, cc.name),
                        codes,
                        dict,
                    )));
                }
                Column::Continuous(cc) => {
                    let sentinel = lo - (hi - lo).max(1.0);
                    let values = samples
                        .iter()
                        .map(|(_, picks)| picks[t].map_or(sentinel, |r| cc.values[r as usize]))
                        .collect();
                    columns.push(Column::Continuous(ContColumn::new(
                        format!("{}.{}", dim.table.name, cc.name),
                        values,
                    )));
                }
            }
        }
    }

    let ncols = columns.len();
    let table = Table::new("imdb_foj", columns).expect("sampled columns aligned");
    let schema = FlatSchema { hub_cols, dim_offsets, bounds, ncols, foj_size: star.foj_size() };
    (table, schema)
}

impl FlatSchema {
    /// Flat column index of dimension `t`'s content column `ci`.
    pub(crate) fn dim_col(&self, t: usize, ci: usize) -> usize {
        self.dim_offsets[t] + 1 + ci
    }

    /// Rewrite a join query into a flat-table range query.
    pub fn rewrite(&self, q: &JoinQuery) -> RangeQuery {
        let mut rq = RangeQuery::unconstrained(self.ncols);
        let clamp = |iv: &Interval, flat_col: usize| -> Interval {
            let (lo, hi) = self.bounds[flat_col];
            iv.intersect(&Interval::closed(lo, hi))
        };
        for (ci, iv) in q.hub.iter().enumerate() {
            if let Some(iv) = iv {
                rq.cols[ci] = Some(clamp(iv, ci));
            }
        }
        for (t, &joined) in q.join_dims.iter().enumerate() {
            if joined {
                rq.cols[self.dim_offsets[t]] = Some(Interval::point(1.0));
            }
            for (ci, iv) in q.dims[t].iter().enumerate() {
                if let Some(iv) = iv {
                    let fc = self.dim_col(t, ci);
                    rq.cols[fc] = Some(clamp(iv, fc));
                }
            }
        }
        rq
    }

    /// Estimated inner-join cardinality of `q` under a flat-table
    /// estimator: `sel(rewrite(q)) × |FOJ|`.
    pub fn estimate_card(&self, est: &dyn SelectivityEstimator, q: &JoinQuery) -> f64 {
        est.estimate(&self.rewrite(q)) * self.foj_size
    }
}

/// Build the per-table `LocalRanges` triple used by
/// [`StarSchema::exact_card`] from a join query.
pub fn exact_card(star: &StarSchema, q: &JoinQuery) -> f64 {
    star.exact_card(&q.join_dims, &q.hub, &q.dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imdb::{synthetic_imdb, ImdbConfig};
    use crate::workload::JoinWorkloadGenerator;
    use iam_data::estimator::ExactOracle;

    fn setup() -> (StarSchema, Table, FlatSchema) {
        let star = synthetic_imdb(&ImdbConfig { movies: 800, seed: 3 });
        let (flat, schema) = flatten_foj(&star, 20_000, 4);
        (star, flat, schema)
    }

    #[test]
    fn flat_layout_bookkeeping() {
        let (star, flat, schema) = setup();
        assert_eq!(schema.hub_cols, star.hub.ncols());
        assert_eq!(flat.ncols(), schema.ncols);
        // 6 hub + 5 indicators + (3+4+1+1+3) content = 23
        assert_eq!(schema.ncols, 23);
        assert_eq!(flat.nrows(), 20_000);
    }

    #[test]
    fn foj_oracle_estimates_join_cards() {
        // an ExactOracle over the FOJ *sample* approximates true cards via
        // sel × |FOJ| — validating both the sampler and the rewrite
        let (star, flat, schema) = setup();
        let foj = schema.foj_size;
        let oracle = ExactOracle::new(flat);
        let mut gen = JoinWorkloadGenerator::new(&star, 11);
        let mut ok = 0;
        let queries: Vec<JoinQuery> = (0..30).map(|_| gen.gen_query()).collect();
        for q in &queries {
            let truth = exact_card(&star, q);
            let est_card = schema.estimate_card(&oracle, q);
            // sample-based: require agreement within 3× when truth is
            // non-trivial relative to the sampling resolution
            if truth >= foj / 2000.0 {
                let ratio = (est_card.max(1.0) / truth.max(1.0)).max(truth / est_card.max(1.0));
                if ratio < 3.0 {
                    ok += 1;
                }
            } else {
                ok += 1; // below sampling resolution: skip
            }
        }
        assert!(ok >= 25, "only {ok}/30 within tolerance");
    }

    #[test]
    fn rewrite_requires_indicators() {
        let (star, _, schema) = setup();
        let mut gen = JoinWorkloadGenerator::new(&star, 5);
        let q = gen.gen_query();
        let rq = schema.rewrite(&q);
        for (t, &joined) in q.join_dims.iter().enumerate() {
            let ind = &rq.cols[schema.dim_offsets[t]];
            if joined {
                assert_eq!(*ind, Some(Interval::point(1.0)));
            } else {
                assert!(ind.is_none());
            }
        }
    }
}
