//! The synthetic IMDB dataset (paper §6.1.1).
//!
//! A star schema around `title` with five dimension tables, mimicking the
//! JOB-light slice of IMDB: 13 categorical columns across the schema plus
//! the 5 continuous columns the paper grafts on (`x`,`y`,`z` sensor axes on
//! `movie_info`; `latitude`,`longitude` on `title`). Fanouts are Zipf-like
//! and column values correlate with the movie's `kind_id`/`production_year`
//! so joins carry real signal.

use crate::star::{DimTable, StarSchema};
use iam_data::column::{CatColumn, Column, ContColumn};
use iam_data::synth::{cumsum, normal, sample_cdf, zipf_weights};
use iam_data::Table;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Scale knobs for the generator.
#[derive(Debug, Clone)]
pub struct ImdbConfig {
    /// Number of `title` (hub) rows.
    ///
    /// Ledger: tests/end_to_end_join.rs
    pub movies: usize,
    /// RNG seed.
    ///
    /// Ledger: tests/end_to_end_join.rs
    pub seed: u64,
}

impl Default for ImdbConfig {
    fn default() -> Self {
        ImdbConfig { movies: 8000, seed: 42 }
    }
}

/// Generate the star schema.
pub fn synthetic_imdb(cfg: &ImdbConfig) -> StarSchema {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x1BDB);
    let n = cfg.movies;

    // --- hub: title(kind_id 7, production_year 140, imdb_index 26,
    //          series_years 50, latitude, longitude) -------------------
    let kind_cdf = cumsum(&zipf_weights(7, 0.8));
    let mut kind = Vec::with_capacity(n);
    let mut year = Vec::with_capacity(n);
    let mut index = Vec::with_capacity(n);
    let mut series = Vec::with_capacity(n);
    let mut lat = Vec::with_capacity(n);
    let mut lon = Vec::with_capacity(n);
    // spatial clusters keyed by kind (grafted TWI-style columns)
    let clusters: Vec<(f64, f64, f64)> = (0..7)
        .map(|_| {
            (
                25.0 + 23.0 * rng.random::<f64>(),
                -124.0 + 57.0 * rng.random::<f64>(),
                0.3 + 1.2 * rng.random::<f64>(),
            )
        })
        .collect();
    for _ in 0..n {
        let k = sample_cdf(&mut rng, &kind_cdf);
        kind.push(k as u32);
        // year skews recent, correlated with kind
        let base = 1880.0 + 140.0 * (rng.random::<f64>().powf(0.4));
        let y = (base + k as f64 * 2.0).clamp(1880.0, 2019.0);
        year.push((y - 1880.0) as u32);
        index.push(rng.random_range(0..26u32));
        series.push(((y - 1880.0) as u32 / 3).min(49));
        let (clat, clon, sigma) = clusters[k];
        lat.push((clat + sigma * normal(&mut rng)).clamp(24.0, 49.5));
        lon.push((clon + sigma * 1.4 * normal(&mut rng)).clamp(-125.0, -66.0));
    }
    let hub = Table::new(
        "title",
        vec![
            Column::Categorical(CatColumn::from_codes_dense("kind_id", kind.clone(), 7)),
            Column::Categorical(CatColumn::from_codes_dense("production_year", year.clone(), 140)),
            Column::Categorical(CatColumn::from_codes_dense("imdb_index", index, 26)),
            Column::Categorical(CatColumn::from_codes_dense("series_years", series, 50)),
            Column::Continuous(ContColumn::new("latitude", lat)),
            Column::Continuous(ContColumn::new("longitude", lon)),
        ],
    )
    .expect("hub columns aligned");

    // helper: draw a fanout with P(0) and a geometric-ish tail
    let fanout = |rng: &mut StdRng, p0: f64, mean: f64| -> usize {
        if rng.random::<f64>() < p0 {
            0
        } else {
            let mut k = 1usize;
            while k < 12 && rng.random::<f64>() < 1.0 - 1.0 / mean {
                k += 1;
            }
            k
        }
    };

    // --- movie_companies(company_id 500, company_type_id 4, note_type 10)
    let company_cdf = cumsum(&zipf_weights(500, 1.1));
    let mut mc_fk = Vec::new();
    let (mut mc_cid, mut mc_ct, mut mc_note) = (Vec::new(), Vec::new(), Vec::new());
    for m in 0..n {
        for _ in 0..fanout(&mut rng, 0.15, 2.2) {
            mc_fk.push(m as u32);
            // company pool shifts with production year
            let shift = (year[m] / 20) as usize * 37;
            let cid = (sample_cdf(&mut rng, &company_cdf) + shift) % 500;
            mc_cid.push(cid as u32);
            mc_ct.push(rng.random_range(0..4u32));
            mc_note.push((kind[m] + rng.random_range(0..4u32)) % 10);
        }
    }
    let movie_companies = Table::new(
        "movie_companies",
        vec![
            Column::Categorical(CatColumn::from_codes_dense("company_id", mc_cid, 500)),
            Column::Categorical(CatColumn::from_codes_dense("company_type_id", mc_ct, 4)),
            Column::Categorical(CatColumn::from_codes_dense("note_type", mc_note, 10)),
        ],
    )
    .expect("aligned");

    // --- movie_info(info_type_id 71, x, y, z) — grafted WISDM-style axes
    let sigs: Vec<([f64; 3], f64)> = (0..71)
        .map(|_| {
            (
                [
                    -10.0 + 20.0 * rng.random::<f64>(),
                    -10.0 + 20.0 * rng.random::<f64>(),
                    -10.0 + 20.0 * rng.random::<f64>(),
                ],
                0.4 + 2.0 * rng.random::<f64>(),
            )
        })
        .collect();
    let mut mi_fk = Vec::new();
    let (mut mi_it, mut mi_x, mut mi_y, mut mi_z) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (m, &k) in kind.iter().enumerate().take(n) {
        for _ in 0..fanout(&mut rng, 0.1, 3.0) {
            mi_fk.push(m as u32);
            let it = ((k as usize * 11) + rng.random_range(0..30usize)) % 71;
            mi_it.push(it as u32);
            let (mean, s) = &sigs[it];
            let shared = normal(&mut rng);
            mi_x.push(mean[0] + s * (0.7 * shared + 0.7 * normal(&mut rng)));
            mi_y.push(mean[1] + s * (0.7 * shared + 0.7 * normal(&mut rng)));
            mi_z.push(mean[2] + s * (0.7 * shared + 0.7 * normal(&mut rng)));
        }
    }
    let movie_info = Table::new(
        "movie_info",
        vec![
            Column::Categorical(CatColumn::from_codes_dense("info_type_id", mi_it, 71)),
            Column::Continuous(ContColumn::new("x", mi_x)),
            Column::Continuous(ContColumn::new("y", mi_y)),
            Column::Continuous(ContColumn::new("z", mi_z)),
        ],
    )
    .expect("aligned");

    // --- movie_info_idx(info_type_id 5)
    let mut mii_fk = Vec::new();
    let mut mii_it = Vec::new();
    for (m, &k) in kind.iter().enumerate().take(n) {
        for _ in 0..fanout(&mut rng, 0.3, 1.5) {
            mii_fk.push(m as u32);
            mii_it.push((k + rng.random_range(0..2u32)) % 5);
        }
    }
    let movie_info_idx = Table::new(
        "movie_info_idx",
        vec![Column::Categorical(CatColumn::from_codes_dense("info_type_id", mii_it, 5))],
    )
    .expect("aligned");

    // --- movie_keyword(keyword_id 1000)
    let keyword_cdf = cumsum(&zipf_weights(1000, 1.0));
    let mut mk_fk = Vec::new();
    let mut mk_kid = Vec::new();
    for (m, &k) in kind.iter().enumerate().take(n) {
        for _ in 0..fanout(&mut rng, 0.25, 2.5) {
            mk_fk.push(m as u32);
            let kid = (sample_cdf(&mut rng, &keyword_cdf) + k as usize * 101) % 1000;
            mk_kid.push(kid as u32);
        }
    }
    let movie_keyword = Table::new(
        "movie_keyword",
        vec![Column::Categorical(CatColumn::from_codes_dense("keyword_id", mk_kid, 1000))],
    )
    .expect("aligned");

    // --- cast_info(role_id 11, person_role 2000, nr_order 100)
    let person_cdf = cumsum(&zipf_weights(2000, 0.9));
    let mut ci_fk = Vec::new();
    let (mut ci_role, mut ci_person, mut ci_order) = (Vec::new(), Vec::new(), Vec::new());
    for m in 0..n {
        let cast = fanout(&mut rng, 0.05, 4.0);
        for ord in 0..cast {
            ci_fk.push(m as u32);
            ci_role.push(rng.random_range(0..11u32));
            ci_person.push(sample_cdf(&mut rng, &person_cdf) as u32);
            ci_order.push((ord as u32).min(99));
        }
    }
    let cast_info = Table::new(
        "cast_info",
        vec![
            Column::Categorical(CatColumn::from_codes_dense("role_id", ci_role, 11)),
            Column::Categorical(CatColumn::from_codes_dense("person_role_id", ci_person, 2000)),
            Column::Categorical(CatColumn::from_codes_dense("nr_order", ci_order, 100)),
        ],
    )
    .expect("aligned");

    let hub_rows = hub.nrows();
    StarSchema {
        hub,
        dims: vec![
            DimTable::new(movie_companies, mc_fk, hub_rows),
            DimTable::new(movie_info, mi_fk, hub_rows),
            DimTable::new(movie_info_idx, mii_fk, hub_rows),
            DimTable::new(movie_keyword, mk_fk, hub_rows),
            DimTable::new(cast_info, ci_fk, hub_rows),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_shape_matches_paper_profile() {
        let s = synthetic_imdb(&ImdbConfig { movies: 1000, seed: 1 });
        assert_eq!(s.dims.len(), 5);
        // 13 categorical + 5 continuous across the schema
        let mut cats = 0;
        let mut conts = 0;
        for c in s.hub.columns.iter().chain(s.dims.iter().flat_map(|d| d.table.columns.iter())) {
            if c.is_continuous() {
                conts += 1;
            } else {
                cats += 1;
            }
        }
        assert_eq!(cats, 13, "categorical column count");
        assert_eq!(conts, 5, "continuous column count");
    }

    #[test]
    fn deterministic() {
        let a = synthetic_imdb(&ImdbConfig { movies: 300, seed: 9 });
        let b = synthetic_imdb(&ImdbConfig { movies: 300, seed: 9 });
        assert_eq!(a.hub.columns, b.hub.columns);
        assert_eq!(a.dims[1].fk, b.dims[1].fk);
    }

    #[test]
    fn fanouts_are_plausible() {
        let s = synthetic_imdb(&ImdbConfig { movies: 2000, seed: 2 });
        for (d, dim) in s.dims.iter().enumerate() {
            let avg = dim.table.nrows() as f64 / 2000.0;
            assert!((0.3..8.0).contains(&avg), "dimension {d} fanout {avg}");
        }
        // FOJ is much larger than any single table
        assert!(s.foj_size() > s.dims[1].table.nrows() as f64);
    }
}
