//! Property-based tests (proptest) on the core invariants:
//! interval algebra vs. exact scans, encodings, q-error axioms, GMM
//! numerics and factorised range semantics.

use iam_data::column::{CatColumn, Column, ContColumn};
use iam_data::query::{Interval, Op, Predicate, Query};
use iam_data::{exact_selectivity, q_error, ColumnEncoding, Table};
use iam_gmm::Gmm1d;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Normalising predicates to intervals preserves exact selectivity —
    /// exactly, on multi-column tables mixing categorical and continuous
    /// columns, with strict and non-strict bounds that land on stored
    /// values — and both columnar scans agree with a row-at-a-time scan.
    #[test]
    fn normalisation_preserves_selectivity(
        n in 1usize..200,
        // half-integers, so bounds drawn from the same grid hit values
        xs in prop::collection::vec(-20i32..20, 200),
        ys in prop::collection::vec(-20i32..20, 200),
        codes in prop::collection::vec(0u32..6, 200),
        cols in prop::collection::vec(0usize..3, 1..7),
        ops in prop::collection::vec(0usize..5, 7),
        bounds in prop::collection::vec(-22i32..22, 7),
    ) {
        let halves = |v: &[i32]| v[..n].iter().map(|&i| i as f64 * 0.5).collect();
        let table = Table::new(
            "p",
            vec![
                Column::Continuous(ContColumn::new("x", halves(&xs))),
                Column::Categorical(CatColumn::from_codes_dense("c", codes[..n].to_vec(), 6)),
                Column::Continuous(ContColumn::new("y", halves(&ys))),
            ],
        ).unwrap();
        let preds: Vec<Predicate> = cols
            .iter()
            .zip(ops.iter().zip(&bounds))
            .map(|(&col, (&o, &b))| Predicate {
                col,
                op: [Op::Eq, Op::Lt, Op::Le, Op::Gt, Op::Ge][o],
                // categorical operands are codes; some fall outside 0..6
                value: if col == 1 { (b / 3) as f64 } else { b as f64 * 0.5 },
            })
            .collect();
        let q = Query::new(preds);
        let row_matches =
            |r: usize| q.predicates.iter().all(|p| p.matches(table.columns[p.col].value_as_f64(r)));
        let by_row = (0..table.nrows()).filter(|&r| row_matches(r)).count();
        prop_assert_eq!(iam_data::exec::exact_count(&table, &q), by_row);
        let truth = exact_selectivity(&table, &q);
        let (rq, _) = q.normalize(3).unwrap();
        let via_ranges = iam_data::exec::exact_selectivity_ranges(&table, &rq);
        prop_assert_eq!(truth, via_ranges);
    }

    /// Interval intersection is commutative and conservative.
    #[test]
    fn interval_intersection_properties(
        a in -50.0f64..50.0, b in -50.0f64..50.0,
        c in -50.0f64..50.0, d in -50.0f64..50.0,
        probe in -60.0f64..60.0,
    ) {
        let i1 = Interval::closed(a.min(b), a.max(b));
        let i2 = Interval::closed(c.min(d), c.max(d));
        let both = i1.intersect(&i2);
        let flipped = i2.intersect(&i1);
        prop_assert_eq!(both, flipped);
        prop_assert_eq!(
            both.contains(probe),
            i1.contains(probe) && i2.contains(probe)
        );
    }

    /// Encoding round-trips and preserves order.
    #[test]
    fn encoding_round_trip(values in prop::collection::vec(-1e6f64..1e6, 1..300)) {
        let col = Column::Continuous(ContColumn::new("x", values.clone()));
        let enc = ColumnEncoding::from_column(&col);
        for &v in &values {
            let idx = enc.encode(v).expect("present value must encode");
            prop_assert_eq!(enc.decode(idx), v);
        }
        // order preservation
        for w in enc.distinct.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
    }

    /// Q-error axioms: ≥ 1, symmetric, identity at equality.
    #[test]
    fn q_error_axioms(a in 0.0f64..1.0, b in 0.0f64..1.0, n in 10usize..100_000) {
        let e = q_error(a, b, n);
        prop_assert!(e >= 1.0);
        prop_assert!((q_error(b, a, n) - e).abs() < 1e-9);
        prop_assert!((q_error(a, a, n) - 1.0).abs() < 1e-12);
    }

    /// GMM posteriors are a distribution and argmax assignment is their
    /// maximiser; exact range mass is monotone in the range.
    #[test]
    fn gmm_invariants(
        means in prop::collection::vec(-50.0f64..50.0, 2..6),
        x in -60.0f64..60.0,
        lo in -60.0f64..0.0,
        width in 0.0f64..80.0,
    ) {
        let k = means.len();
        let gmm = Gmm1d::new(vec![1.0; k], means, vec![2.0; k]);
        let post = gmm.posteriors(x);
        prop_assert!((post.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let assigned = gmm.assign(x);
        let best = post
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        // ties broken consistently; probabilities must match at least
        prop_assert!((post[assigned] - post[best]).abs() < 1e-12);

        let small = gmm.range_mass_exact(lo, lo + width / 2.0);
        let large = gmm.range_mass_exact(lo, lo + width);
        for (s, l) in small.iter().zip(&large) {
            prop_assert!(l + 1e-12 >= *s, "range mass must grow with the range");
        }
    }

    /// Factorised encoding `(v / base, v % base)` round-trips and range
    /// decomposition covers exactly the ordinal range.
    #[test]
    fn factorised_range_cover(
        domain in 10usize..5000,
        base in 2usize..64,
        a_frac in 0.0f64..1.0,
        b_frac in 0.0f64..1.0,
    ) {
        let a = ((domain - 1) as f64 * a_frac.min(b_frac)) as usize;
        let b = ((domain - 1) as f64 * a_frac.max(b_frac)) as usize;
        // reconstruct the admissible (hi, lo) pairs exactly as the sampler
        // does and verify they tile [a, b]
        let mut covered = Vec::new();
        for hi in a / base..=b / base {
            let lo_start = if hi == a / base { a % base } else { 0 };
            let lo_end = if hi == b / base { b % base } else { base - 1 };
            for lo in lo_start..=lo_end {
                let v = hi * base + lo;
                if v < domain {
                    covered.push(v);
                }
            }
        }
        let want: Vec<usize> = (a..=b).collect();
        prop_assert_eq!(covered, want);
    }
}
