//! Lowering from the SQL AST onto the IAM library surface.
//!
//! * `WHERE` conjuncts become [`iam_data::Predicate`]s and normalise into
//!   a [`RangeQuery`] via [`iam_data::Query::normalize`] — the *same*
//!   normalisation the line protocol's `col=lo..hi` grammar reaches, so a
//!   `SELECT COUNT(*)` lowers to a query with the same
//!   [`RangeQuery::canonical_key`] as its line-protocol equivalent and the
//!   estimate comes back bit-identical (same per-query sampling seed, same
//!   cache entry).
//! * `EXPLAIN` builds a [`JoinQuery`] over the statement's tables, asks a
//!   [`CardSource`] for each table's filtered cardinality, and runs the
//!   `iam-opt` subset-DP optimizer under the independence assumption
//!   `card(S) = Π card_t / |from|^{|S|−1}` — per-node estimated
//!   cardinalities are rendered into the plan text.

use crate::parser::{CmpOp, ColRef, Cond, Select};
use crate::SqlError;
use iam_data::query::{Op, Predicate, Query};
use iam_data::RangeQuery;
use iam_join::JoinQuery;
use iam_opt::{JoinCardEstimator, TableRef};

/// Map a SQL comparison onto the predicate operator space.
fn to_op(op: CmpOp) -> Op {
    match op {
        CmpOp::Eq => Op::Eq,
        CmpOp::Lt => Op::Lt,
        CmpOp::Le => Op::Le,
        CmpOp::Gt => Op::Gt,
        CmpOp::Ge => Op::Ge,
    }
}

/// Check that `col` refers to `table` (unqualified references do) and
/// bounds-check the index against `ncols`.
fn check_col(col: &ColRef, table: &str, ncols: usize) -> Result<usize, SqlError> {
    if let Some(q) = &col.table {
        if q != table {
            return Err(SqlError::new(format!(
                "column {col} references table {q:?}, expected {table:?}"
            )));
        }
    }
    if col.col >= ncols {
        return Err(SqlError::new(format!(
            "column c{} out of range (table {table:?} has {ncols} columns)",
            col.col
        )));
    }
    Ok(col.col)
}

/// Lower `conds` (all referring to `table`, qualified or not) into a
/// [`RangeQuery`] over `ncols` columns.
pub fn lower_conjuncts(conds: &[Cond], table: &str, ncols: usize) -> Result<RangeQuery, SqlError> {
    let mut predicates = Vec::with_capacity(conds.len());
    for c in conds {
        match c {
            Cond::Cmp { col, op, value } => {
                let col = check_col(col, table, ncols)?;
                predicates.push(Predicate { col, op: to_op(*op), value: *value });
            }
            Cond::Between { col, lo, hi } => {
                let col = check_col(col, table, ncols)?;
                predicates.push(Predicate { col, op: Op::Ge, value: *lo });
                predicates.push(Predicate { col, op: Op::Le, value: *hi });
            }
        }
    }
    let (rq, nes) = Query::new(predicates)
        .normalize(ncols)
        .map_err(|e| SqlError::new(format!("lowering failed: {e:?}")))?;
    debug_assert!(nes.is_empty(), "the grammar cannot produce Ne predicates");
    Ok(rq)
}

/// Lower a single-table `SELECT` (no `JOIN` clauses) into a
/// [`RangeQuery`]. Errors if the statement joins, or if any predicate
/// references another table or an out-of-range column.
pub fn lower_single_table(sel: &Select, ncols: usize) -> Result<RangeQuery, SqlError> {
    if !sel.joins.is_empty() {
        return Err(SqlError::new("single-table lowering cannot handle JOIN clauses"));
    }
    lower_conjuncts(&sel.conds, &sel.table, ncols)
}

/// Resolve the `SUM`/`AVG` target column of a single-table statement.
pub fn resolve_target(col: &ColRef, sel: &Select, ncols: usize) -> Result<usize, SqlError> {
    check_col(col, &sel.table, ncols)
}

/// Supplies per-table filtered cardinalities to [`explain`]: given a table
/// name and the conjuncts that constrain it, return
/// `(selectivity, table_rows)`. The serve layer implements this against
/// its local model; the dist coordinator implements it with one
/// `SELECT COUNT(*)` RPC per table.
pub trait CardSource {
    /// Estimated selectivity of `conds` on `table`, plus the table's row
    /// count.
    fn table_sel(&mut self, table: &str, conds: &[Cond]) -> Result<(f64, u64), SqlError>;
}

/// Fixed per-table cardinalities under the independence assumption —
/// the [`JoinCardEstimator`] fed to the subset-DP optimizer by
/// [`explain`].
struct SqlIndependence {
    /// Filtered cardinality per table (index 0 = the FROM table).
    cards: Vec<f64>,
    /// FROM-table row count (the `|from|` of the key-matching divisor).
    from_rows: f64,
}

impl JoinCardEstimator for SqlIndependence {
    fn name(&self) -> &str {
        "sql-independence"
    }

    fn card(&self, _q: &JoinQuery, include_hub: bool, dims: &[bool]) -> f64 {
        let mut card = 1.0f64;
        let mut ntables = 0usize;
        if include_hub {
            card *= self.cards.first().copied().unwrap_or(0.0);
            ntables += 1;
        }
        for (t, &inc) in dims.iter().enumerate() {
            if inc {
                card *= self.cards.get(t + 1).copied().unwrap_or(0.0);
                ntables += 1;
            }
        }
        if ntables > 1 && self.from_rows > 0.0 {
            card /= self.from_rows.powi(ntables as i32 - 1);
        }
        card.max(0.0)
    }
}

/// Partition the statement's conjuncts by owning table (unqualified
/// conjuncts belong to the `FROM` table). Errors on a qualifier that
/// names no table in the statement.
fn conds_by_table(sel: &Select, tables: &[&str]) -> Result<Vec<Vec<Cond>>, SqlError> {
    let mut per: Vec<Vec<Cond>> = vec![Vec::new(); tables.len()];
    for c in &sel.conds {
        let owner = c.col().table.as_deref().unwrap_or(&sel.table);
        let idx = tables
            .iter()
            .position(|t| *t == owner)
            .ok_or_else(|| SqlError::new(format!("predicate on unknown table {owner:?}")))?;
        per[idx].push(c.clone());
    }
    Ok(per)
}

/// Run the join-order optimizer over an `EXPLAIN SELECT` and render the
/// chosen plan with per-node estimated cardinalities:
///
/// ```text
/// PLAN est_cost=123.456
/// scan hub est_card=1000.000
/// join d0 est_card=93.200
/// join d1 est_card=4.700
/// ```
///
/// Each `est_card` is the estimated cardinality of the join prefix up to
/// and including that node, under the independence assumption over
/// per-table cardinalities supplied by `src`.
pub fn explain(sel: &Select, src: &mut dyn CardSource) -> Result<String, SqlError> {
    let mut tables: Vec<&str> = vec![&sel.table];
    for j in &sel.joins {
        tables.push(&j.table);
    }
    for (i, t) in tables.iter().enumerate() {
        if tables[..i].contains(t) {
            return Err(SqlError::new(format!("duplicate table {t:?} in statement")));
        }
    }
    if tables.len() > 16 {
        return Err(SqlError::new("EXPLAIN caps at 16 tables (subset-DP optimizer limit)"));
    }
    let per_table = conds_by_table(sel, &tables)?;

    let mut cards = Vec::with_capacity(tables.len());
    let mut from_rows = 0.0f64;
    for (i, t) in tables.iter().enumerate() {
        let (s, n) = src.table_sel(t, &per_table[i])?;
        let s = if s.is_finite() { s.clamp(0.0, 1.0) } else { 0.0 };
        if i == 0 {
            from_rows = n as f64;
        }
        cards.push(s * n as f64);
    }
    let est = SqlIndependence { cards, from_rows };

    // the optimizer works over hub-plus-dims shapes: the FROM table plays
    // the hub, each JOINed table a dimension; predicate details are
    // already folded into `est`, so the JoinQuery carries structure only
    let ndims = tables.len() - 1;
    let jq =
        JoinQuery { join_dims: vec![true; ndims], hub: Vec::new(), dims: vec![Vec::new(); ndims] };
    let plan = iam_opt::optimize(&jq, &est);

    let name_of = |r: TableRef| match r {
        TableRef::Hub => tables[0],
        // Dim(d) indexes sel.joins, which tables[1..] mirrors in order
        TableRef::Dim(d) => tables.get(d + 1).copied().unwrap_or("?"),
    };
    let mut out = format!("PLAN est_cost={:.3}", plan.est_cost);
    let mut include_hub = false;
    let mut dims = vec![false; ndims];
    for (i, r) in plan.order.iter().enumerate() {
        match r {
            TableRef::Hub => include_hub = true,
            TableRef::Dim(d) => {
                if let Some(slot) = dims.get_mut(*d) {
                    *slot = true;
                }
            }
        }
        let prefix_card = est.card(&jq, include_hub, &dims);
        let verb = if i == 0 { "scan" } else { "join" };
        out.push_str(&format!("\n{verb} {} est_card={prefix_card:.3}", name_of(*r)));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, Statement};
    use iam_data::Interval;

    fn sel(text: &str) -> Select {
        match parse(text).unwrap() {
            Statement::Select(s) | Statement::Explain(s) => s,
        }
    }

    #[test]
    fn lowering_matches_line_protocol_normalisation() {
        let s = sel("SELECT COUNT(*) FROM t WHERE c0 = 3 AND c1 BETWEEN 2.5 AND 9");
        let rq = lower_single_table(&s, 3).unwrap();
        assert_eq!(rq.cols[0], Some(Interval::point(3.0)));
        assert_eq!(rq.cols[1], Some(Interval::closed(2.5, 9.0)));
        assert_eq!(rq.cols[2], None);
    }

    #[test]
    fn repeated_conjuncts_intersect() {
        let s = sel("SELECT COUNT(*) FROM t WHERE c0 >= 1 AND c0 <= 10 AND c0 >= 5");
        let rq = lower_single_table(&s, 1).unwrap();
        assert_eq!(rq.cols[0], Some(Interval::closed(5.0, 10.0)));
    }

    #[test]
    fn rejects_foreign_and_out_of_range_columns() {
        let s = sel("SELECT COUNT(*) FROM t WHERE other.c0 = 1");
        assert!(lower_single_table(&s, 4).is_err());
        let s = sel("SELECT COUNT(*) FROM t WHERE c9 = 1");
        assert!(lower_single_table(&s, 4).is_err());
        let s = sel("SELECT COUNT(*) FROM t JOIN d ON t.c0 = d.c0");
        assert!(lower_single_table(&s, 4).is_err());
    }

    /// Fixed-card source for plan tests.
    struct Fixed(Vec<(f64, u64)>);
    impl CardSource for Fixed {
        fn table_sel(&mut self, table: &str, _conds: &[Cond]) -> Result<(f64, u64), SqlError> {
            let idx: usize = table
                .strip_prefix('t')
                .and_then(|d| d.parse().ok())
                .ok_or_else(|| SqlError::new("unknown table"))?;
            self.0.get(idx).copied().ok_or_else(|| SqlError::new("unknown table"))
        }
    }

    #[test]
    fn explain_orders_selective_tables_first() {
        // t0 (FROM) is large; t1 is highly selective, t2 barely filtered —
        // the optimizer should join t1 before t2
        let s = sel("EXPLAIN SELECT COUNT(*) FROM t0 \
             JOIN t1 ON t0.c0 = t1.c0 JOIN t2 ON t0.c1 = t2.c0 \
             WHERE t1.c1 = 5");
        let mut src = Fixed(vec![(1.0, 10_000), (0.001, 10_000), (0.9, 10_000)]);
        let plan = explain(&s, &mut src).unwrap();
        let lines: Vec<&str> = plan.lines().collect();
        assert!(lines[0].starts_with("PLAN est_cost="), "{plan}");
        assert_eq!(lines.len(), 4, "{plan}");
        let t1_pos = lines.iter().position(|l| l.contains(" t1 ")).unwrap();
        let t2_pos = lines.iter().position(|l| l.contains(" t2 ")).unwrap();
        assert!(t1_pos < t2_pos, "selective table should join earlier:\n{plan}");
    }

    #[test]
    fn explain_single_table_is_a_scan() {
        let s = sel("EXPLAIN SELECT COUNT(*) FROM t0 WHERE c0 <= 3");
        let mut src = Fixed(vec![(0.25, 1000)]);
        let plan = explain(&s, &mut src).unwrap();
        assert_eq!(plan, "PLAN est_cost=250.000\nscan t0 est_card=250.000");
    }

    #[test]
    fn explain_rejects_duplicate_and_unknown_tables() {
        let s = sel("EXPLAIN SELECT COUNT(*) FROM t0 JOIN t0 ON t0.c0 = t0.c1");
        assert!(explain(&s, &mut Fixed(vec![(1.0, 10); 2])).is_err());
        let s = sel("EXPLAIN SELECT COUNT(*) FROM t0 WHERE nope.c0 = 1");
        assert!(explain(&s, &mut Fixed(vec![(1.0, 10)])).is_err());
    }
}
