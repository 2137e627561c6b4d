//! Conjunctive predicates and their normalised per-column range form.

use crate::error::DataError;

/// Comparison operators supported by predicates (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

/// A single-attribute predicate `A_col op value`.
///
/// For categorical columns `value` is the dictionary code (as `f64`);
/// for continuous columns it is the raw value. Codes below 2^53 are exact
/// in `f64`, so the shared comparison space loses nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Predicate {
    /// Column index within the table.
    pub col: usize,
    /// Comparison operator.
    pub op: Op,
    /// Operand in the shared `f64` space.
    pub value: f64,
}

impl Predicate {
    /// Evaluate the predicate against a single value.
    #[inline]
    pub fn matches(&self, v: f64) -> bool {
        match self.op {
            Op::Eq => v == self.value,
            Op::Ne => v != self.value,
            Op::Lt => v < self.value,
            Op::Le => v <= self.value,
            Op::Gt => v > self.value,
            Op::Ge => v >= self.value,
        }
    }
}

/// A conjunction of predicates over one table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// The conjuncts. Multiple predicates may reference the same column
    /// (e.g. `30 ≤ A ∧ A ≤ 100`).
    pub predicates: Vec<Predicate>,
}

impl Query {
    /// Build a query from predicate triples.
    pub fn new(predicates: Vec<Predicate>) -> Self {
        Query { predicates }
    }

    /// Normalise the conjunction into one optional [`Interval`] per column.
    ///
    /// `Ne` predicates cannot be expressed as a single interval; they are
    /// returned separately so the harness can apply inclusion–exclusion
    /// (`sel(A≠v ∧ rest) = sel(rest) − sel(A=v ∧ rest)`).
    pub fn normalize(&self, ncols: usize) -> Result<(RangeQuery, Vec<Predicate>), DataError> {
        let mut ranges: Vec<Option<Interval>> = vec![None; ncols];
        let mut nes = Vec::new();
        for p in &self.predicates {
            if p.col >= ncols {
                return Err(DataError::ColumnOutOfBounds { col: p.col, ncols });
            }
            if p.op == Op::Ne {
                nes.push(*p);
                continue;
            }
            let iv = Interval::from_op(p.op, p.value);
            let slot = &mut ranges[p.col];
            *slot = Some(match slot.take() {
                Some(prev) => prev.intersect(&iv),
                None => iv,
            });
        }
        Ok((RangeQuery { cols: ranges }, nes))
    }
}

/// A (possibly half-open) interval over the shared `f64` comparison space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound (`-inf` if unbounded).
    pub lo: f64,
    /// Upper bound (`+inf` if unbounded).
    pub hi: f64,
    /// When true the lower bound is exclusive.
    pub lo_strict: bool,
    /// When true the upper bound is exclusive.
    pub hi_strict: bool,
}

impl Interval {
    /// The full line `(-inf, +inf)`.
    pub fn full() -> Self {
        Interval { lo: f64::NEG_INFINITY, hi: f64::INFINITY, lo_strict: false, hi_strict: false }
    }

    /// Closed interval `[lo, hi]`.
    pub fn closed(lo: f64, hi: f64) -> Self {
        Interval { lo, hi, lo_strict: false, hi_strict: false }
    }

    /// Degenerate point interval `[v, v]`.
    pub fn point(v: f64) -> Self {
        Self::closed(v, v)
    }

    /// The interval equivalent of `op value` (for all ops except `Ne`).
    pub fn from_op(op: Op, value: f64) -> Self {
        match op {
            Op::Eq => Self::point(value),
            Op::Lt => {
                Interval { lo: f64::NEG_INFINITY, hi: value, lo_strict: false, hi_strict: true }
            }
            Op::Le => {
                Interval { lo: f64::NEG_INFINITY, hi: value, lo_strict: false, hi_strict: false }
            }
            Op::Gt => Interval { lo: value, hi: f64::INFINITY, lo_strict: true, hi_strict: false },
            Op::Ge => Interval { lo: value, hi: f64::INFINITY, lo_strict: false, hi_strict: false },
            Op::Ne => panic!("Ne is not an interval; handled via inclusion-exclusion"),
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, v: f64) -> bool {
        let lo_ok = if self.lo_strict { v > self.lo } else { v >= self.lo };
        let hi_ok = if self.hi_strict { v < self.hi } else { v <= self.hi };
        lo_ok && hi_ok
    }

    /// Intersection of two intervals (possibly empty).
    pub fn intersect(&self, other: &Interval) -> Interval {
        let (lo, lo_strict) = if self.lo > other.lo {
            (self.lo, self.lo_strict)
        } else if other.lo > self.lo {
            (other.lo, other.lo_strict)
        } else {
            (self.lo, self.lo_strict || other.lo_strict)
        };
        let (hi, hi_strict) = if self.hi < other.hi {
            (self.hi, self.hi_strict)
        } else if other.hi < self.hi {
            (other.hi, other.hi_strict)
        } else {
            (self.hi, self.hi_strict || other.hi_strict)
        };
        Interval { lo, hi, lo_strict, hi_strict }
    }

    /// True when no value can satisfy the interval.
    pub fn is_empty(&self) -> bool {
        self.lo > self.hi || (self.lo == self.hi && (self.lo_strict || self.hi_strict))
    }

    /// True when the interval is the full line.
    pub fn is_full(&self) -> bool {
        self.lo == f64::NEG_INFINITY && self.hi == f64::INFINITY
    }
}

/// A query normalised to one optional interval per table column.
///
/// `cols[i] == None` means column `i` is unconstrained (a *wildcard*).
#[derive(Debug, Clone, PartialEq)]
pub struct RangeQuery {
    /// Per-column constraint.
    pub cols: Vec<Option<Interval>>,
}

impl RangeQuery {
    /// An unconstrained query over `ncols` columns (selectivity 1).
    pub fn unconstrained(ncols: usize) -> Self {
        RangeQuery { cols: vec![None; ncols] }
    }

    /// Number of constrained columns.
    pub fn num_constrained(&self) -> usize {
        self.cols.iter().filter(|c| c.is_some()).count()
    }

    /// True when a full row (projected to `f64`) satisfies every constraint.
    #[inline]
    pub fn matches_row(&self, row: &[f64]) -> bool {
        self.cols.iter().zip(row).all(|(c, v)| c.as_ref().is_none_or(|iv| iv.contains(*v)))
    }

    /// A canonical 64-bit fingerprint of the query: FNV-1a over the
    /// constrained columns in index order, with endpoints normalised
    /// (`-0.0` → `0.0`, full intervals treated as unconstrained). Two
    /// queries that constrain the same columns to the same ranges hash
    /// identically, independent of how they were constructed.
    ///
    /// The serving layer keys its result cache on this value, and
    /// deterministic inference derives per-query sampling seeds from it,
    /// so a query's estimate is a pure function of (model, query) — which
    /// is exactly what makes cached and freshly computed results agree.
    pub fn canonical_key(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x100_0000_01b3;
        #[inline]
        fn mix(h: u64, v: u64) -> u64 {
            let mut h = h;
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
            h
        }
        #[inline]
        fn norm_bits(v: f64) -> u64 {
            // collapse -0.0 / +0.0; NaN endpoints are rejected upstream but
            // canonicalise anyway so the hash is total
            if v == 0.0 {
                0.0f64.to_bits()
            } else if v.is_nan() {
                f64::NAN.to_bits()
            } else {
                v.to_bits()
            }
        }
        let mut h = mix(OFFSET, self.cols.len() as u64);
        for (col, iv) in self.cols.iter().enumerate() {
            let Some(iv) = iv else { continue };
            if iv.is_full() {
                continue;
            }
            h = mix(h, col as u64);
            h = mix(h, norm_bits(iv.lo));
            h = mix(h, norm_bits(iv.hi));
            h = mix(h, (iv.lo_strict as u64) << 1 | iv.hi_strict as u64);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_ops_match_semantics() {
        let cases = [
            (Op::Eq, 2.0, vec![(2.0, true), (3.0, false)]),
            (Op::Ne, 2.0, vec![(2.0, false), (3.0, true)]),
            (Op::Lt, 2.0, vec![(1.9, true), (2.0, false)]),
            (Op::Le, 2.0, vec![(2.0, true), (2.1, false)]),
            (Op::Gt, 2.0, vec![(2.1, true), (2.0, false)]),
            (Op::Ge, 2.0, vec![(2.0, true), (1.9, false)]),
        ];
        for (op, value, checks) in cases {
            let p = Predicate { col: 0, op, value };
            for (v, want) in checks {
                assert_eq!(p.matches(v), want, "{op:?} {value} vs {v}");
            }
        }
    }

    #[test]
    fn normalize_intersects_same_column() {
        // 30 <= A0 <= 100
        let q = Query::new(vec![
            Predicate { col: 0, op: Op::Ge, value: 30.0 },
            Predicate { col: 0, op: Op::Le, value: 100.0 },
        ]);
        let (rq, nes) = q.normalize(2).unwrap();
        assert!(nes.is_empty());
        let iv = rq.cols[0].unwrap();
        assert!(iv.contains(30.0) && iv.contains(100.0));
        assert!(!iv.contains(29.9) && !iv.contains(100.1));
        assert!(rq.cols[1].is_none());
        assert_eq!(rq.num_constrained(), 1);
    }

    #[test]
    fn normalize_separates_ne() {
        let q = Query::new(vec![Predicate { col: 1, op: Op::Ne, value: 5.0 }]);
        let (rq, nes) = q.normalize(2).unwrap();
        assert!(rq.cols[1].is_none());
        assert_eq!(nes.len(), 1);
    }

    #[test]
    fn normalize_rejects_out_of_bounds() {
        let q = Query::new(vec![Predicate { col: 9, op: Op::Eq, value: 0.0 }]);
        assert!(q.normalize(2).is_err());
    }

    #[test]
    fn interval_intersection_and_emptiness() {
        let a = Interval::from_op(Op::Ge, 1.0);
        let b = Interval::from_op(Op::Lt, 1.0);
        assert!(a.intersect(&b).is_empty());
        let c = Interval::from_op(Op::Le, 1.0);
        let ac = a.intersect(&c);
        assert!(!ac.is_empty());
        assert!(ac.contains(1.0));
        // strictness is kept when bounds tie
        let d = Interval::from_op(Op::Gt, 1.0).intersect(&a);
        assert!(!d.contains(1.0));
    }

    #[test]
    fn empty_intersection_point() {
        let p = Interval::point(3.0);
        let q = Interval::from_op(Op::Gt, 3.0);
        assert!(p.intersect(&q).is_empty());
    }

    #[test]
    fn range_query_row_match() {
        let mut rq = RangeQuery::unconstrained(3);
        rq.cols[0] = Some(Interval::closed(0.0, 1.0));
        rq.cols[2] = Some(Interval::point(5.0));
        assert!(rq.matches_row(&[0.5, 99.0, 5.0]));
        assert!(!rq.matches_row(&[0.5, 99.0, 4.0]));
        assert!(!rq.matches_row(&[2.0, 99.0, 5.0]));
    }
}
