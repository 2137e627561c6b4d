//! Debug-build runtime invariants for the numeric hot paths.
//!
//! The estimator's unbiasedness rests on a handful of numeric invariants
//! that no type can express: softmax outputs carry unit mass, reducer
//! range-mass vectors are non-negative probabilities, CDFs are monotone,
//! selectivities live in `[0, 1]`, and the distributed merge writes every
//! answer slot exactly once. This module turns each of those into an
//! executable check that is **active in debug builds** (and in release
//! builds compiled with the `invariants` feature) and **compiles to
//! nothing** otherwise — every release-mode function body below is an
//! empty `#[inline(always)]` stub, so the serving hot path pays zero
//! instructions for them.
//!
//! Callers in other crates that need to *prepare* data for a check (e.g.
//! the coordinator's answer-coverage bitmap) should gate that work on
//! [`ACTIVE`], which is a compile-time constant and dead-code-eliminates
//! the whole branch in release builds.
//!
//! A violated invariant panics with an `iam invariant violated:` prefix —
//! these are programming errors (a biased sampler, a torn merge), never
//! input errors, so failing loudly in tests and fuzz runs is the point.

/// Whether the invariant checks are compiled in. `true` in debug builds
/// and under `--features invariants`; `false` (a compile-time constant,
/// enabling dead-code elimination of caller-side preparation) otherwise.
pub const ACTIVE: bool = cfg!(any(debug_assertions, feature = "invariants"));

/// Absolute tolerance for softmax unit-mass checks. Softmax over f32
/// logits accumulates one rounding error per term; 1e-3 is ~100× looser
/// than the worst drift seen over the paper's domain sizes (≤ 4096-wide
/// rows) yet still catches every real normalization bug (a dropped term,
/// a stale denominator, an un-renormalised distribution).
pub const SOFTMAX_MASS_TOL: f64 = 1e-3;

/// Assert that `probs` (one softmax row) carries total mass ≈ 1 and no
/// negative or non-finite entries.
#[cfg(any(debug_assertions, feature = "invariants"))]
pub fn check_softmax_mass(probs: &[f32], context: &str) {
    let mut mass = 0.0f64;
    for (i, &p) in probs.iter().enumerate() {
        if !p.is_finite() || p < 0.0 {
            panic!("iam invariant violated: softmax[{i}] = {p} in {context}");
        }
        mass += p as f64;
    }
    if (mass - 1.0).abs() > SOFTMAX_MASS_TOL {
        panic!(
            "iam invariant violated: softmax mass {mass} (|mass-1| > {SOFTMAX_MASS_TOL}) \
             over {} entries in {context}",
            probs.len()
        );
    }
}

/// Assert that every entry of `mass` is a finite, non-negative
/// probability mass (reducer `range_mass` vectors, bias-corrected
/// sampling weights).
#[cfg(any(debug_assertions, feature = "invariants"))]
pub fn check_mass_vector(mass: &[f64], context: &str) {
    for (i, &m) in mass.iter().enumerate() {
        if !m.is_finite() || m < 0.0 {
            panic!("iam invariant violated: mass[{i}] = {m} in {context}");
        }
    }
}

/// Assert that `cdf` values are non-decreasing and within `[0, 1]`
/// (spline knots, prefix-summed mixture CDFs).
#[cfg(any(debug_assertions, feature = "invariants"))]
pub fn check_cdf_monotone(cdf: &[f64], context: &str) {
    let mut prev = 0.0f64;
    for (i, &f) in cdf.iter().enumerate() {
        if !f.is_finite() || !(0.0..=1.0).contains(&f) {
            panic!("iam invariant violated: cdf[{i}] = {f} outside [0,1] in {context}");
        }
        if f < prev {
            panic!("iam invariant violated: cdf[{i}] = {f} < cdf[{}] = {prev} in {context}", i - 1);
        }
        prev = f;
    }
}

/// Assert that a finished selectivity estimate is a probability:
/// finite and inside `[0, 1]`.
#[cfg(any(debug_assertions, feature = "invariants"))]
pub fn check_selectivity(sel: f64, context: &str) {
    if !sel.is_finite() || !(0.0..=1.0).contains(&sel) {
        panic!("iam invariant violated: selectivity {sel} outside [0,1] in {context}");
    }
}

/// Assert a caller-stated condition with the invariant prefix; `ACTIVE`
/// gates the *preparation* of `cond` on the caller's side, this gates the
/// check itself. Used where the condition doesn't fit a shape above
/// (e.g. the coordinator's write-once answer-slot merge).
#[cfg(any(debug_assertions, feature = "invariants"))]
pub fn check(cond: bool, context: &str) {
    if !cond {
        panic!("iam invariant violated: {context}");
    }
}

// --- release stubs: empty bodies, guaranteed zero code -------------------

#[cfg(not(any(debug_assertions, feature = "invariants")))]
#[allow(missing_docs)]
mod stubs {
    #[inline(always)]
    pub fn check_softmax_mass(_probs: &[f32], _context: &str) {}
    #[inline(always)]
    pub fn check_mass_vector(_mass: &[f64], _context: &str) {}
    #[inline(always)]
    pub fn check_cdf_monotone(_cdf: &[f64], _context: &str) {}
    #[inline(always)]
    pub fn check_selectivity(_sel: f64, _context: &str) {}
    #[inline(always)]
    pub fn check(_cond: bool, _context: &str) {}
}
#[cfg(not(any(debug_assertions, feature = "invariants")))]
pub use stubs::*;

#[cfg(all(test, any(debug_assertions, feature = "invariants")))]
mod tests {
    use super::*;

    #[test]
    fn well_formed_values_pass() {
        check_softmax_mass(&[0.25, 0.25, 0.5], "test");
        check_softmax_mass(&[0.2500004, 0.25, 0.5], "test"); // f32 round-off
        check_mass_vector(&[0.0, 1e-300, 1.0], "test");
        check_cdf_monotone(&[0.0, 0.1, 0.1, 1.0], "test");
        check_selectivity(0.0, "test");
        check_selectivity(1.0, "test");
        check(true, "test");
    }

    #[test]
    #[should_panic(expected = "iam invariant violated: softmax mass")]
    fn softmax_mass_deficit_is_caught() {
        // a mass-normalization bug: one term dropped from the denominator
        check_softmax_mass(&[0.5, 0.4], "injected");
    }

    #[test]
    #[should_panic(expected = "iam invariant violated: softmax")]
    fn softmax_nan_is_caught() {
        check_softmax_mass(&[f32::NAN, 1.0], "injected");
    }

    #[test]
    #[should_panic(expected = "iam invariant violated: mass")]
    fn negative_mass_is_caught() {
        check_mass_vector(&[0.1, -1e-9], "injected");
    }

    #[test]
    #[should_panic(expected = "iam invariant violated: cdf")]
    fn non_monotone_cdf_is_caught() {
        check_cdf_monotone(&[0.0, 0.5, 0.4999], "injected");
    }

    #[test]
    #[should_panic(expected = "iam invariant violated: selectivity")]
    fn out_of_range_selectivity_is_caught() {
        check_selectivity(1.0000001, "injected");
    }
}
