//! Per-column handling, the AR slot layout, row encoding and query
//! construction (paper §5.1).
//!
//! Each table column maps to one of three handlers:
//!
//! * **Direct** — the ordinal encoding of the column's distinct values is
//!   fed to the AR model as-is (small domains);
//! * **Reduced** — a [`Reducer`] (GMM in IAM proper) replaces each
//!   value by its reduced value `a'` (large continuous domains);
//! * **Factorized** — Neurocard's column factorisation splits the ordinal
//!   code `v` into `(v / base, v % base)`, two AR *slots* (large domains
//!   that are not reduced — categorical keys, or any large column when the
//!   Neurocard baseline disables reduction).
//!
//! The AR model sees a sequence of *slots*; a factorised column contributes
//! two consecutive slots, everything else one.

use crate::config::{IamConfig, ReducerKind};
use crate::reduce::{GmmReducer, HistReducer, Reducer, SplineReducer, UmmReducer};
use iam_data::{Column, ColumnEncoding, RangeQuery, Table};
use std::borrow::Cow;

/// How one table column is presented to the AR model.
#[derive(Clone)]
pub enum ColumnHandler {
    /// Ordinal encoding used directly.
    Direct(ColumnEncoding),
    /// Domain reduced by a mixture/histogram model.
    Reduced(Reducer),
    /// Ordinal encoding split into two subcolumns of size `≤ base`.
    Factorized {
        /// The ordinal encoding of the raw domain.
        enc: ColumnEncoding,
        /// Subcolumn base: code `v` becomes `(v / base, v % base)`.
        base: usize,
    },
}

/// The role of one AR slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotRole {
    /// The only slot of column `col`.
    Whole {
        /// Table column index.
        col: usize,
    },
    /// High-order subcolumn of a factorised column.
    FactorHi {
        /// Table column index.
        col: usize,
    },
    /// Low-order subcolumn of a factorised column (immediately follows its
    /// `FactorHi`).
    FactorLo {
        /// Table column index.
        col: usize,
    },
}

impl SlotRole {
    /// The table column this slot belongs to.
    pub fn col(&self) -> usize {
        match *self {
            SlotRole::Whole { col } | SlotRole::FactorHi { col } | SlotRole::FactorLo { col } => {
                col
            }
        }
    }
}

/// Per-slot constraint derived from a query (§5.1's constructed query `q'`).
#[derive(Debug, Clone, PartialEq)]
pub enum SlotConstraint {
    /// Unconstrained column: skipped (wildcard skipping) or sampled over the
    /// full domain.
    Wildcard,
    /// Inclusive ordinal range `[lo, hi]` on the slot's domain.
    Range(usize, usize),
    /// The reduced-column case: `R'` is the whole reduced domain and this
    /// weight vector `P̂_GMM(R)` re-weights the AR conditional (§5.2).
    Weights(Vec<f64>),
    /// Low subcolumn of a factorised range: the admissible `[lo, hi]`
    /// depends on the sampled high subcolumn (previous slot).
    FactorLo {
        /// Ordinal range start on the *raw* (unfactorised) domain.
        lo_idx: usize,
        /// Ordinal range end (inclusive).
        hi_idx: usize,
        /// Factorisation base.
        base: usize,
    },
}

/// The full slot layout for one table.
#[derive(Clone)]
pub struct IamSchema {
    /// Per-column handlers.
    pub handlers: Vec<ColumnHandler>,
    /// Slot roles, in AR order.
    pub slots: Vec<SlotRole>,
    /// Slot domain sizes (the AR model's `domain_sizes`).
    pub slot_domains: Vec<usize>,
    /// Treat unconstrained columns as wildcards (skip) at inference.
    pub wildcard_skipping: bool,
    /// Ablation: binarise the reduced-column correction weights.
    pub hard_range_weights: bool,
}

impl IamSchema {
    /// Decide handlers for every column of `table` per `cfg`, fitting
    /// reducers on the data, and lay out the AR slots.
    pub fn build(table: &Table, cfg: &IamConfig) -> Self {
        let handlers: Vec<ColumnHandler> =
            table.columns.iter().map(|c| Self::handler_for(c, cfg)).collect();
        let mut schema = Self::from_handlers(handlers, cfg.wildcard_skipping);
        schema.hard_range_weights = cfg.hard_range_weights;
        schema
    }

    /// Build from pre-made handlers (used by joins and tests).
    pub(crate) fn from_handlers(handlers: Vec<ColumnHandler>, wildcard_skipping: bool) -> Self {
        let mut slots = Vec::new();
        let mut slot_domains = Vec::new();
        for (col, h) in handlers.iter().enumerate() {
            match h {
                ColumnHandler::Direct(enc) => {
                    slots.push(SlotRole::Whole { col });
                    slot_domains.push(enc.domain_size().max(1));
                }
                ColumnHandler::Reduced(r) => {
                    slots.push(SlotRole::Whole { col });
                    slot_domains.push(r.k());
                }
                ColumnHandler::Factorized { enc, base } => {
                    let d = enc.domain_size().max(1);
                    slots.push(SlotRole::FactorHi { col });
                    slot_domains.push(d.div_ceil(*base));
                    slots.push(SlotRole::FactorLo { col });
                    slot_domains.push((*base).min(d));
                }
            }
        }
        IamSchema { handlers, slots, slot_domains, wildcard_skipping, hard_range_weights: false }
    }

    fn handler_for(column: &Column, cfg: &IamConfig) -> ColumnHandler {
        let enc = ColumnEncoding::from_column(column);
        let domain = enc.domain_size();
        let reduce =
            column.is_continuous() && cfg.reduce_continuous && domain > cfg.reduce_threshold;
        if reduce {
            let values = match column {
                Column::Continuous(c) => &c.values,
                Column::Categorical(_) => unreachable!("reduce only targets continuous"),
            };
            // fit on a bounded sample for speed; the joint loop refines GMMs
            let sample: Cow<[f64]> = if values.len() > 20_000 {
                let stride = values.len() / 20_000 + 1;
                Cow::Owned(values.iter().copied().step_by(stride).collect())
            } else {
                Cow::Borrowed(values)
            };
            let reducer = match cfg.reducer {
                ReducerKind::Gmm => Reducer::Gmm(GmmReducer::new(
                    iam_gmm::fit_em(&sample, cfg.components, 40, 1e-7).gmm,
                )),
                ReducerKind::Hist => Reducer::Hist(HistReducer::fit(&sample, cfg.components)),
                ReducerKind::Spline => Reducer::Spline(SplineReducer::fit(&sample, cfg.components)),
                ReducerKind::Umm => Reducer::Umm(UmmReducer::fit(&sample, cfg.components, 25)),
            };
            ColumnHandler::Reduced(reducer)
        } else if domain > cfg.factorize_threshold {
            ColumnHandler::Factorized { enc, base: cfg.factorize_threshold }
        } else {
            ColumnHandler::Direct(enc)
        }
    }

    /// Number of AR slots.
    pub fn nslots(&self) -> usize {
        self.slots.len()
    }

    /// Encode one raw row (projected to `f64` per column) into slot values.
    ///
    /// # Panics
    /// Panics if a direct/factorised value is absent from its dictionary —
    /// training rows must come from the table the encodings were built on.
    pub(crate) fn encode_row(&self, row: &[f64], out: &mut Vec<usize>) {
        out.clear();
        for (col, h) in self.handlers.iter().enumerate() {
            let v = row[col];
            match h {
                ColumnHandler::Direct(enc) => {
                    out.push(enc.encode(v).expect("value missing from dictionary"));
                }
                ColumnHandler::Reduced(r) => out.push(r.reduce(v)),
                ColumnHandler::Factorized { enc, base } => {
                    let idx = enc.encode(v).expect("value missing from dictionary");
                    out.push(idx / base);
                    out.push(idx % base);
                }
            }
        }
    }

    /// Construct the per-slot constraints for a range query (§5.1).
    ///
    /// Returns `None` when some constrained column provably selects nothing
    /// (e.g. an empty ordinal range), in which case the selectivity is 0.
    pub fn query_plan(&self, rq: &RangeQuery) -> Option<Vec<SlotConstraint>> {
        let plan = self.query_plan_inner(rq);
        if plan.is_none() {
            crate::probes::plan().empty_plans.inc();
        }
        plan
    }

    fn query_plan_inner(&self, rq: &RangeQuery) -> Option<Vec<SlotConstraint>> {
        assert_eq!(rq.cols.len(), self.handlers.len(), "query arity mismatch");
        let mut plan = Vec::with_capacity(self.nslots());
        for (col, h) in self.handlers.iter().enumerate() {
            let constraint = rq.cols[col].as_ref();
            match h {
                ColumnHandler::Direct(enc) => match constraint {
                    None => plan.push(self.wildcard(enc.domain_size())),
                    Some(iv) if iv.is_full() => plan.push(self.wildcard(enc.domain_size())),
                    Some(iv) => {
                        let (a, b) = enc.index_range(iv)?;
                        plan.push(SlotConstraint::Range(a, b));
                    }
                },
                ColumnHandler::Reduced(r) => match constraint {
                    None => plan.push(self.wildcard(r.k())),
                    Some(iv) if iv.is_full() => plan.push(self.wildcard(r.k())),
                    Some(iv) => {
                        let mut w = Vec::new();
                        r.range_mass(iv, &mut w);
                        if self.hard_range_weights {
                            // biased ablation: component either "in" or "out"
                            for x in &mut w {
                                *x = f64::from(u8::from(*x > 0.01));
                            }
                        }
                        // §5.1 widening: the slot's support becomes the full
                        // reduced domain, re-weighted by P̂_GMM(R_i)
                        let p = crate::probes::plan();
                        p.widened_fanout.observe(w.len() as u64);
                        p.component_nnz.observe(w.iter().filter(|&&x| x > 1e-12).count() as u64);
                        plan.push(SlotConstraint::Weights(w));
                    }
                },
                ColumnHandler::Factorized { enc, base } => {
                    let d = enc.domain_size().max(1);
                    match constraint {
                        None => {
                            plan.push(self.wildcard(d.div_ceil(*base)));
                            plan.push(self.wildcard((*base).min(d)));
                        }
                        Some(iv) if iv.is_full() => {
                            plan.push(self.wildcard(d.div_ceil(*base)));
                            plan.push(self.wildcard((*base).min(d)));
                        }
                        Some(iv) => {
                            let (a, b) = enc.index_range(iv)?;
                            plan.push(SlotConstraint::Range(a / base, b / base));
                            plan.push(SlotConstraint::FactorLo {
                                lo_idx: a,
                                hi_idx: b,
                                base: *base,
                            });
                        }
                    }
                }
            }
        }
        Some(plan)
    }

    fn wildcard(&self, domain: usize) -> SlotConstraint {
        if self.wildcard_skipping {
            SlotConstraint::Wildcard
        } else {
            SlotConstraint::Range(0, domain.saturating_sub(1))
        }
    }

    /// Sum of reducer model sizes (the AR network is accounted separately).
    pub(crate) fn reducers_size_bytes(&self) -> usize {
        self.handlers
            .iter()
            .map(|h| match h {
                ColumnHandler::Reduced(r) => r.size_bytes(),
                _ => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iam_data::column::{CatColumn, ContColumn};
    use iam_data::query::{Interval, Op, Predicate, Query};

    fn table() -> Table {
        // categorical(5), continuous large (2000 distinct), categorical large (5000)
        let n = 10_000u32;
        Table::new(
            "t",
            vec![
                Column::Categorical(CatColumn::from_codes_dense(
                    "small_cat",
                    (0..n).map(|i| i % 5).collect(),
                    5,
                )),
                Column::Continuous(ContColumn::new(
                    "big_cont",
                    (0..n).map(|i| (i % 2000) as f64 + 0.5).collect(),
                )),
                Column::Categorical(CatColumn::from_codes_dense(
                    "big_cat",
                    (0..n).map(|i| i % 5000).collect(),
                    5000,
                )),
            ],
        )
        .unwrap()
    }

    fn cfg() -> IamConfig {
        IamConfig {
            components: 8,
            reduce_threshold: 1000,
            factorize_threshold: 1 << 11,
            ..IamConfig::small()
        }
    }

    #[test]
    fn handler_assignment_follows_paper_rules() {
        let t = table();
        let s = IamSchema::build(&t, &cfg());
        assert!(matches!(s.handlers[0], ColumnHandler::Direct(_)));
        assert!(matches!(s.handlers[1], ColumnHandler::Reduced(_)));
        assert!(matches!(s.handlers[2], ColumnHandler::Factorized { .. }));
        // slots: 1 + 1 + 2
        assert_eq!(s.nslots(), 4);
        assert_eq!(s.slot_domains[0], 5);
        assert_eq!(s.slot_domains[1], 8); // K components
        assert_eq!(s.slot_domains[2], 5000usize.div_ceil(2048)); // hi
        assert_eq!(s.slot_domains[3], 2048); // lo
    }

    #[test]
    fn neurocard_mode_factorises_continuous() {
        let t = table();
        let c = IamConfig { reduce_continuous: false, ..cfg() };
        let s = IamSchema::build(&t, &c);
        assert!(matches!(s.handlers[1], ColumnHandler::Direct(_)), "2000 ≤ 2048 stays direct");
        let c2 = IamConfig { reduce_continuous: false, factorize_threshold: 512, ..cfg() };
        let s2 = IamSchema::build(&t, &c2);
        assert!(matches!(s2.handlers[1], ColumnHandler::Factorized { .. }));
    }

    #[test]
    fn encode_row_round_trip() {
        let t = table();
        let s = IamSchema::build(&t, &cfg());
        let mut row = Vec::new();
        t.row_as_f64(4321, &mut row);
        let mut slots = Vec::new();
        s.encode_row(&row, &mut slots);
        assert_eq!(slots.len(), 4);
        assert_eq!(slots[0], (4321 % 5) as usize);
        // factorised round trip: hi*base + lo == ordinal code
        let code = slots[2] * 2048 + slots[3];
        assert_eq!(code, 4321);
        assert!(slots[1] < 8);
    }

    #[test]
    fn query_plan_shapes() {
        let t = table();
        let s = IamSchema::build(&t, &cfg());
        let q = Query::new(vec![
            Predicate { col: 0, op: Op::Eq, value: 3.0 },
            Predicate { col: 1, op: Op::Le, value: 1000.0 },
            Predicate { col: 2, op: Op::Ge, value: 4000.0 },
        ]);
        let (rq, _) = q.normalize(3).unwrap();
        let plan = s.query_plan(&rq).unwrap();
        assert_eq!(plan.len(), 4);
        assert_eq!(plan[0], SlotConstraint::Range(3, 3));
        assert!(matches!(&plan[1], SlotConstraint::Weights(w) if w.len() == 8));
        assert!(matches!(plan[2], SlotConstraint::Range(_, _)));
        assert!(matches!(
            plan[3],
            SlotConstraint::FactorLo { lo_idx: 4000, hi_idx: 4999, base: 2048 }
        ));
    }

    #[test]
    fn wildcards_skip_or_expand_per_config() {
        let t = table();
        let s = IamSchema::build(&t, &cfg());
        let rq = RangeQuery::unconstrained(3);
        let plan = s.query_plan(&rq).unwrap();
        assert!(plan.iter().all(|c| *c == SlotConstraint::Wildcard));

        let mut s2 = s.clone();
        s2.wildcard_skipping = false;
        let plan2 = s2.query_plan(&rq).unwrap();
        assert_eq!(plan2[0], SlotConstraint::Range(0, 4));
    }

    #[test]
    fn empty_range_yields_none() {
        let t = table();
        let s = IamSchema::build(&t, &cfg());
        // factorised column: codes live in 0..5000, so this is provably empty
        let mut rq = RangeQuery::unconstrained(3);
        rq.cols[2] = Some(Interval::closed(6000.0, 7000.0));
        assert!(s.query_plan(&rq).is_none());
        // reduced (GMM) column: emptiness is *soft* — the plan exists but
        // carries (near-)zero weights (values live in [0.5, 1999.5])
        let mut rq2 = RangeQuery::unconstrained(3);
        rq2.cols[1] = Some(Interval::closed(50_000.0, 60_000.0));
        let plan = s.query_plan(&rq2).unwrap();
        match &plan[1] {
            SlotConstraint::Weights(w) => {
                assert!(w.iter().all(|&m| m < 1e-6), "weights should vanish: {w:?}")
            }
            other => panic!("expected weights, got {other:?}"),
        }
    }

    #[test]
    fn reducer_size_accounting() {
        let t = table();
        let s = IamSchema::build(&t, &cfg());
        assert_eq!(s.reducers_size_bytes(), 3 * 8 * 8); // 3 params × K=8 × 8 bytes
    }
}
