//! A Selinger-style join-order optimizer and executor for the end-to-end
//! experiment (paper §6.4, Figure 5).
//!
//! The paper plugs each estimator's sub-query cardinalities into Postgres's
//! optimizer and measures execution time. This crate reproduces the
//! mechanism: [`optimizer::optimize`] runs dynamic programming over join
//! subsets using a pluggable [`cardinality::JoinCardEstimator`] and a
//! cost model of summed intermediate cardinalities; [`executor::execute`]
//! runs the chosen left-deep plan with hash joins over the star schema and
//! reports real work done. Better estimates → better orders → smaller
//! intermediates → faster execution.

#![deny(missing_docs)]

mod cardinality;
mod executor;
mod optimizer;

pub use cardinality::{
    ExactCardEstimator, FlatCardEstimator, IndependenceCardEstimator, JoinCardEstimator,
};
pub use executor::{execute, ExecReport};
pub use optimizer::{optimize, Plan, TableRef};
