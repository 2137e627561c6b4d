//! Multi-table substrate: the synthetic IMDB star schema, full-outer-join
//! semantics with Exact-Weight sampling, the JOB-light-style join workload
//! and exact join cardinalities.
//!
//! The paper (following NeuroCard) trains a single AR model on unbiased
//! samples of the *full outer join* of the schema. For a star schema whose
//! joins all share one key (`movie_id`), the full outer join factorises per
//! movie into the cross product of that movie's rows in each table
//! (NULL-padded when a table has none), and the Exact-Weight sampler
//! specialises to: draw a movie proportional to `Π_t max(cnt_t(m), 1)`,
//! then one row (or NULL) uniformly per table. [`star::StarSchema`]
//! implements exactly that, [`flat`] materialises the flat training table
//! with per-table presence indicators, and [`workload`] generates join
//! queries whose ground truth [`star::StarSchema::exact_card`] computes in
//! closed form per movie.

#![deny(missing_docs)]

pub mod flat;
pub mod imdb;
pub mod star;
pub mod workload;

pub use flat::FlatSchema;
pub use imdb::{synthetic_imdb, ImdbConfig};
pub use star::{DimTable, StarSchema};
pub use workload::{JoinQuery, JoinWorkloadGenerator};
