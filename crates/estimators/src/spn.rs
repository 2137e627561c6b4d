//! DeepDB-style sum-product network (LearnSPN-lite).
//!
//! Structure learning follows the LearnSPN recipe DeepDB uses: recursively
//! try to split the *columns* into groups with no pairwise correlation
//! above a threshold (→ product node, independence across groups); when no
//! such split exists, split the *rows* into two clusters by a lightweight
//! 2-means (→ sum node weighted by cluster fractions). Leaves are
//! single-column histograms — uniform within buckets for continuous data,
//! exact frequencies for small categorical domains. These leaf/independence
//! choices are exactly the weaknesses the paper observes (§6.2: tail errors
//! on correlated, non-linear data).

use iam_data::{Column, Interval, RangeQuery, SelectivityEstimator, Table};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Structure learning stops splitting rows below this count.
const MIN_ROWS: usize = 512;

/// Absolute correlation below which columns are declared independent.
const INDEPENDENCE_THRESHOLD: f64 = 0.3;

/// Histogram buckets per continuous leaf.
const LEAF_BUCKETS: usize = 64;

/// RNG seed for row clustering.
const SEED: u64 = 42;

enum Node {
    Sum {
        weights: Vec<f64>,
        children: Vec<Node>,
    },
    Product {
        children: Vec<Node>,
    },
    /// Histogram leaf over one column.
    Leaf {
        col: usize,
        /// Bucket edges (`nb + 1`).
        edges: Vec<f64>,
        /// Bucket mass (sums to 1).
        mass: Vec<f64>,
        /// Exact categorical frequencies when the domain was small.
        exact: bool,
    },
}

/// The SPN estimator.
pub struct SpnEstimator {
    root: Node,
    ncols: usize,
    size: usize,
}

impl SpnEstimator {
    /// Learn an SPN from `table`.
    pub fn new(table: &Table) -> Self {
        let n = table.nrows();
        let ncols = table.ncols();
        assert!(n > 0 && ncols >= 1);
        let data: Vec<Vec<f64>> =
            table.columns.iter().map(|c| (0..n).map(|r| c.value_as_f64(r)).collect()).collect();
        let cat_domain: Vec<Option<usize>> = table
            .columns
            .iter()
            .map(|c| match c {
                Column::Categorical(cc) if cc.domain_size() <= 256 => Some(cc.domain_size()),
                _ => None,
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(SEED);
        let rows: Vec<usize> = (0..n).collect();
        let cols: Vec<usize> = (0..ncols).collect();
        let root = Self::learn(&data, &cat_domain, rows, cols, &mut rng, 0);
        let mut size = 0;
        Self::measure(&root, &mut size);
        SpnEstimator { root, ncols, size }
    }

    fn measure(node: &Node, size: &mut usize) {
        match node {
            Node::Sum { weights, children } => {
                *size += weights.len() * 8;
                children.iter().for_each(|c| Self::measure(c, size));
            }
            Node::Product { children } => {
                children.iter().for_each(|c| Self::measure(c, size));
            }
            Node::Leaf { edges, mass, .. } => *size += (edges.len() + mass.len()) * 8,
        }
    }

    fn learn(
        data: &[Vec<f64>],
        cat_domain: &[Option<usize>],
        rows: Vec<usize>,
        cols: Vec<usize>,
        rng: &mut StdRng,
        depth: usize,
    ) -> Node {
        if cols.len() == 1 {
            return Self::leaf(data, cat_domain, &rows, cols[0]);
        }
        if rows.len() < MIN_ROWS || depth > 24 {
            // fully factorise the remainder
            let children = cols.iter().map(|&c| Self::leaf(data, cat_domain, &rows, c)).collect();
            return Node::Product { children };
        }

        // try a column split: connected components of the |ρ| > τ graph
        let groups = Self::correlation_groups(data, &rows, &cols, INDEPENDENCE_THRESHOLD);
        if groups.len() > 1 {
            let children = groups
                .into_iter()
                .map(|g| Self::learn(data, cat_domain, rows.clone(), g, rng, depth + 1))
                .collect();
            return Node::Product { children };
        }

        // otherwise split rows: 2-means on per-column standardised values
        match Self::two_means(data, &rows, &cols, rng) {
            Some((a, b)) => {
                let total = rows.len() as f64;
                let weights = vec![a.len() as f64 / total, b.len() as f64 / total];
                let children = vec![
                    Self::learn(data, cat_domain, a, cols.clone(), rng, depth + 1),
                    Self::learn(data, cat_domain, b, cols, rng, depth + 1),
                ];
                Node::Sum { weights, children }
            }
            None => {
                let children =
                    cols.iter().map(|&c| Self::leaf(data, cat_domain, &rows, c)).collect();
                Node::Product { children }
            }
        }
    }

    /// Pearson |ρ| connected components over the candidate columns.
    fn correlation_groups(
        data: &[Vec<f64>],
        rows: &[usize],
        cols: &[usize],
        threshold: f64,
    ) -> Vec<Vec<usize>> {
        let k = cols.len();
        let nf = rows.len() as f64;
        let stats: Vec<(f64, f64)> = cols
            .iter()
            .map(|&c| {
                let mean = rows.iter().map(|&r| data[c][r]).sum::<f64>() / nf;
                let var = rows.iter().map(|&r| (data[c][r] - mean).powi(2)).sum::<f64>() / nf;
                (mean, var.sqrt().max(1e-12))
            })
            .collect();
        // union-find
        let mut parent: Vec<usize> = (0..k).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        for i in 0..k {
            for j in (i + 1)..k {
                let (mi, si) = stats[i];
                let (mj, sj) = stats[j];
                let cov = rows
                    .iter()
                    .map(|&r| (data[cols[i]][r] - mi) * (data[cols[j]][r] - mj))
                    .sum::<f64>()
                    / nf;
                if (cov / (si * sj)).abs() > threshold {
                    let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                    parent[ri] = rj;
                }
            }
        }
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (i, &c) in cols.iter().enumerate().take(k) {
            let r = find(&mut parent, i);
            groups[r].push(c);
        }
        groups.retain(|g| !g.is_empty());
        groups
    }

    /// Lightweight 2-means over standardised columns.
    fn two_means(
        data: &[Vec<f64>],
        rows: &[usize],
        cols: &[usize],
        rng: &mut StdRng,
    ) -> Option<(Vec<usize>, Vec<usize>)> {
        let nf = rows.len() as f64;
        let stats: Vec<(f64, f64)> = cols
            .iter()
            .map(|&c| {
                let mean = rows.iter().map(|&r| data[c][r]).sum::<f64>() / nf;
                let var = rows.iter().map(|&r| (data[c][r] - mean).powi(2)).sum::<f64>() / nf;
                (mean, var.sqrt().max(1e-12))
            })
            .collect();
        let feat = |r: usize, out: &mut Vec<f64>| {
            out.clear();
            for (ci, &c) in cols.iter().enumerate() {
                out.push((data[c][r] - stats[ci].0) / stats[ci].1);
            }
        };
        let mut ca = Vec::new();
        let mut cb = Vec::new();
        feat(rows[rng.random_range(0..rows.len())], &mut ca);
        feat(rows[rng.random_range(0..rows.len())], &mut cb);
        let mut assign = vec![false; rows.len()];
        let mut buf = Vec::new();
        for _ in 0..8 {
            // assignment
            for (i, &r) in rows.iter().enumerate() {
                feat(r, &mut buf);
                let da: f64 = buf.iter().zip(&ca).map(|(x, c)| (x - c) * (x - c)).sum();
                let db: f64 = buf.iter().zip(&cb).map(|(x, c)| (x - c) * (x - c)).sum();
                assign[i] = db < da;
            }
            // update
            let (mut na, mut nb) = (0usize, 0usize);
            let mut suma = vec![0.0; cols.len()];
            let mut sumb = vec![0.0; cols.len()];
            for (i, &r) in rows.iter().enumerate() {
                feat(r, &mut buf);
                if assign[i] {
                    nb += 1;
                    for (s, x) in sumb.iter_mut().zip(&buf) {
                        *s += x;
                    }
                } else {
                    na += 1;
                    for (s, x) in suma.iter_mut().zip(&buf) {
                        *s += x;
                    }
                }
            }
            if na == 0 || nb == 0 {
                return None;
            }
            for (c, s) in ca.iter_mut().zip(&suma) {
                *c = s / na as f64;
            }
            for (c, s) in cb.iter_mut().zip(&sumb) {
                *c = s / nb as f64;
            }
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (i, &r) in rows.iter().enumerate() {
            if assign[i] {
                b.push(r);
            } else {
                a.push(r);
            }
        }
        if a.is_empty() || b.is_empty() {
            None
        } else {
            Some((a, b))
        }
    }

    fn leaf(data: &[Vec<f64>], cat_domain: &[Option<usize>], rows: &[usize], col: usize) -> Node {
        let nf = rows.len() as f64;
        if let Some(domain) = cat_domain[col] {
            // exact categorical frequencies; edges are the code points
            let mut mass = vec![0.0f64; domain];
            for &r in rows {
                mass[data[col][r] as usize] += 1.0;
            }
            for m in &mut mass {
                *m /= nf;
            }
            let edges = (0..=domain).map(|c| c as f64).collect();
            return Node::Leaf { col, edges, mass, exact: true };
        }
        // equi-depth continuous histogram
        let mut vals: Vec<f64> = rows.iter().map(|&r| data[col][r]).collect();
        vals.sort_unstable_by(f64::total_cmp);
        let nb = LEAF_BUCKETS.min(vals.len()).max(1);
        let mut edges = Vec::with_capacity(nb + 1);
        for k in 0..=nb {
            edges.push(vals[(k * (vals.len() - 1)) / nb]);
        }
        let mass = vec![1.0 / nb as f64; nb];
        Node::Leaf { col, edges, mass, exact: false }
    }

    fn eval(node: &Node, q: &RangeQuery) -> f64 {
        match node {
            Node::Sum { weights, children } => {
                weights.iter().zip(children).map(|(&w, c)| w * Self::eval(c, q)).sum()
            }
            Node::Product { children } => children.iter().map(|c| Self::eval(c, q)).product(),
            Node::Leaf { col, edges, mass, exact } => match &q.cols[*col] {
                None => 1.0,
                Some(iv) => Self::leaf_mass(edges, mass, *exact, iv),
            },
        }
    }

    fn leaf_mass(edges: &[f64], mass: &[f64], exact: bool, iv: &Interval) -> f64 {
        if exact {
            // per-code mass: edges are 0..=domain, mass[c] is P(code = c)
            return mass
                .iter()
                .enumerate()
                .filter(|(c, _)| iv.contains(*c as f64))
                .map(|(_, &m)| m)
                .sum();
        }
        let nb = mass.len();
        let lo = if iv.lo == f64::NEG_INFINITY { edges[0] } else { iv.lo };
        let hi = if iv.hi == f64::INFINITY { edges[nb] } else { iv.hi };
        let mut total = 0.0;
        for j in 0..nb {
            let (blo, bhi) = (edges[j], edges[j + 1]);
            let width = bhi - blo;
            let overlap = (hi.min(bhi) - lo.max(blo)).max(0.0);
            total += mass[j]
                * if width > 0.0 {
                    (overlap / width).min(1.0)
                } else {
                    f64::from(u8::from(lo <= blo && blo <= hi))
                };
        }
        total
    }
}

impl SelectivityEstimator for SpnEstimator {
    fn name(&self) -> &str {
        "DeepDB"
    }

    fn estimate(&self, q: &RangeQuery) -> f64 {
        assert_eq!(q.cols.len(), self.ncols);
        Self::eval(&self.root, q).clamp(0.0, 1.0)
    }

    fn model_size_bytes(&self) -> usize {
        self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iam_data::column::{CatColumn, ContColumn};
    use iam_data::query::{Op, Predicate, Query};
    use iam_data::{exact_selectivity, Table};

    fn clustered(n: usize, seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cat = Vec::new();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..n {
            let c = rng.random_range(0..3u32);
            cat.push(c);
            a.push(c as f64 * 100.0 + rng.random::<f64>() * 10.0);
            b.push(c as f64 * -50.0 + rng.random::<f64>() * 5.0);
        }
        Table::new(
            "cl",
            vec![
                Column::Categorical(CatColumn::from_codes_dense("c", cat, 3)),
                Column::Continuous(ContColumn::new("a", a)),
                Column::Continuous(ContColumn::new("b", b)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn learns_cluster_structure() {
        let t = clustered(6000, 1);
        let spn = SpnEstimator::new(&t);
        // cluster-consistent query
        let q = Query::new(vec![
            Predicate { col: 0, op: Op::Eq, value: 2.0 },
            Predicate { col: 1, op: Op::Ge, value: 150.0 },
        ]);
        let (rq, _) = q.normalize(3).unwrap();
        let truth = exact_selectivity(&t, &q);
        let est = spn.estimate(&rq);
        assert!((est - truth).abs() < 0.05, "est {est} truth {truth}");
        // cluster-contradicting query ≈ 0
        let q0 = Query::new(vec![
            Predicate { col: 0, op: Op::Eq, value: 0.0 },
            Predicate { col: 1, op: Op::Ge, value: 150.0 },
        ]);
        let (rq0, _) = q0.normalize(3).unwrap();
        assert!(spn.estimate(&rq0) < 0.03, "{}", spn.estimate(&rq0));
    }

    #[test]
    fn marginals_are_accurate() {
        let t = clustered(6000, 2);
        let spn = SpnEstimator::new(&t);
        let q = Query::new(vec![Predicate { col: 0, op: Op::Le, value: 0.0 }]);
        let (rq, _) = q.normalize(3).unwrap();
        let truth = exact_selectivity(&t, &q);
        assert!((spn.estimate(&rq) - truth).abs() < 0.02);
    }

    #[test]
    fn unconstrained_is_one() {
        let t = clustered(1000, 3);
        let spn = SpnEstimator::new(&t);
        assert!((spn.estimate(&RangeQuery::unconstrained(3)) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn model_size_positive_and_bounded() {
        let t = clustered(3000, 4);
        let spn = SpnEstimator::new(&t);
        assert!(spn.model_size_bytes() > 0);
        assert!(spn.model_size_bytes() < 4_000_000);
    }
}
