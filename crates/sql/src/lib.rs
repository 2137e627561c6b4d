//! SQL subset front-end for the IAM estimation stack.
//!
//! The paper's served surface ends at cardinalities over a bespoke
//! `col=lo..hi` line protocol; this crate gives the whole repo a query
//! language. A hand-rolled (zero-dependency, matching workspace policy)
//! lexer + recursive-descent parser accepts
//!
//! ```text
//! SELECT COUNT(*) | SUM(cN) | AVG(cN)
//!   FROM <table>
//!   [JOIN <table> ON <t>.cN = <t>.cM]*
//!   [WHERE <pred> [AND <pred>]*]
//! ```
//!
//! with predicates `cN <op> <number>` (`=, <, <=, >, >=`) or
//! `cN BETWEEN <number> AND <number>`, plus `EXPLAIN SELECT ...` for
//! join-order plans. Columns are addressed positionally as `c0, c1, …`
//! (optionally qualified, `t.c0`) because IAM schemas carry no column
//! names.
//!
//! Statements lower onto the existing library surface (see [`lower`]):
//! `COUNT(*)` becomes a [`iam_data::RangeQuery`] answered by the
//! estimator — bit-identical to the equivalent line-protocol query, since
//! both paths normalise to the same canonical predicate key — `SUM`/`AVG`
//! route to `core::aqp`, and `EXPLAIN` feeds per-table estimated
//! cardinalities into the `iam-opt` join-order optimizer and renders the
//! chosen plan with per-node estimates.
//!
//! Everything here is panic-free on arbitrary input (the iam-audit
//! `wire-panic` lint covers these modules, and a seeded fuzz target
//! mutates valid statements against the parser): errors are returned as
//! [`SqlError`], never thrown.

#![deny(missing_docs)]

mod lexer;
pub mod lower;
mod parser;

pub use lower::{explain, lower_single_table, resolve_target, CardSource};
pub use parser::{parse, Agg, CmpOp, ColRef, Cond, JoinClause, Select, Statement};

/// An error from lexing, parsing, or lowering a SQL statement. Carries a
/// human-readable message surfaced verbatim in `ERR` protocol replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlError {
    /// What went wrong, in one line.
    pub msg: String,
}

impl SqlError {
    /// Build an error from anything displayable.
    pub fn new(msg: impl Into<String>) -> Self {
        SqlError { msg: msg.into() }
    }
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for SqlError {}
