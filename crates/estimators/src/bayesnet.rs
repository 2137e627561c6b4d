//! Chow-Liu tree Bayesian network (the paper's BayesNet baseline).
//!
//! Columns are discretised (identity bins for small categorical domains,
//! equi-depth bins otherwise — the "discretisation information loss" the
//! paper cites), pairwise mutual information is measured on the bins, and a
//! maximum-spanning tree (Prim) defines the dependency structure. CPTs are
//! Laplace-smoothed counts. Range queries are answered exactly over the
//! discretised model by bottom-up message passing with per-bin fractional
//! coverage weights.

use iam_data::{Column, Interval, RangeQuery, SelectivityEstimator, Table};

/// Per-column discretisation.
enum Bins {
    /// One bin per categorical code.
    Identity {
        /// Domain size.
        domain: usize,
    },
    /// Equi-depth bins over a continuous (or large) domain.
    EquiDepth {
        /// `nb + 1` edges.
        edges: Vec<f64>,
    },
}

impl Bins {
    fn nbins(&self) -> usize {
        match self {
            Bins::Identity { domain } => *domain,
            Bins::EquiDepth { edges } => edges.len() - 1,
        }
    }

    fn bin_of(&self, v: f64) -> usize {
        match self {
            Bins::Identity { domain } => (v as usize).min(domain - 1),
            Bins::EquiDepth { edges } => {
                let nb = edges.len() - 1;
                edges[1..nb].partition_point(|&e| e <= v).min(nb - 1)
            }
        }
    }

    /// Fractional coverage of each bin by `iv` (uniform-within-bin).
    fn coverage(&self, iv: &Interval, out: &mut Vec<f64>) {
        out.clear();
        match self {
            Bins::Identity { domain } => {
                for code in 0..*domain {
                    out.push(f64::from(u8::from(iv.contains(code as f64))));
                }
            }
            Bins::EquiDepth { edges } => {
                let nb = edges.len() - 1;
                let lo = if iv.lo == f64::NEG_INFINITY { edges[0] } else { iv.lo };
                let hi = if iv.hi == f64::INFINITY { edges[nb] } else { iv.hi };
                for j in 0..nb {
                    let (blo, bhi) = (edges[j], edges[j + 1]);
                    let width = bhi - blo;
                    let overlap = (hi.min(bhi) - lo.max(blo)).max(0.0);
                    out.push(if width > 0.0 {
                        (overlap / width).min(1.0)
                    } else {
                        f64::from(u8::from(lo <= blo && blo <= hi))
                    });
                }
            }
        }
    }
}

/// The Chow-Liu estimator.
pub struct ChowLiuNet {
    bins: Vec<Bins>,
    /// `parent[c]` is `None` for the root.
    parent: Vec<Option<usize>>,
    /// Children lists (derived from `parent`).
    children: Vec<Vec<usize>>,
    /// Root marginal and per-edge CPTs. `cpt[c][p_bin * nb_c + c_bin]` =
    /// `P(c_bin | p_bin)`; for the root, `cpt[root][b]` = `P(b)`.
    cpt: Vec<Vec<f64>>,
    root: usize,
}

/// Maximum bins per column.
const MAX_BINS: usize = 64;

impl ChowLiuNet {
    /// Learn structure and CPTs from `table`.
    pub fn new(table: &Table) -> Self {
        let n = table.nrows();
        let d = table.ncols();
        assert!(n > 0 && d >= 1);

        let bins: Vec<Bins> = table
            .columns
            .iter()
            .map(|c| match c {
                Column::Categorical(cc) if cc.domain_size() <= MAX_BINS => {
                    Bins::Identity { domain: cc.domain_size().max(1) }
                }
                _ => {
                    let mut vals: Vec<f64> = (0..n).map(|r| c.value_as_f64(r)).collect();
                    vals.sort_unstable_by(f64::total_cmp);
                    let nb = MAX_BINS.min(n);
                    let mut edges = Vec::with_capacity(nb + 1);
                    for k in 0..=nb {
                        edges.push(vals[(k * (n - 1)) / nb]);
                    }
                    Bins::EquiDepth { edges }
                }
            })
            .collect();

        // binned data, column-major
        let binned: Vec<Vec<usize>> = (0..d)
            .map(|c| {
                let col = &table.columns[c];
                (0..n).map(|r| bins[c].bin_of(col.value_as_f64(r))).collect()
            })
            .collect();

        // pairwise mutual information
        let mi = |a: usize, b: usize| -> f64 {
            let (na, nb) = (bins[a].nbins(), bins[b].nbins());
            let mut joint = vec![0u32; na * nb];
            let mut ma = vec![0u32; na];
            let mut mb = vec![0u32; nb];
            for (&x, &y) in binned[a].iter().zip(&binned[b]).take(n) {
                joint[x * nb + y] += 1;
                ma[x] += 1;
                mb[y] += 1;
            }
            let nf = n as f64;
            let mut total = 0.0;
            for x in 0..na {
                for y in 0..nb {
                    let c = joint[x * nb + y];
                    if c == 0 {
                        continue;
                    }
                    let pxy = c as f64 / nf;
                    total += pxy * (pxy / (ma[x] as f64 / nf * mb[y] as f64 / nf)).ln();
                }
            }
            total
        };

        // Prim's maximum spanning tree over MI
        let root = 0usize;
        let mut in_tree = vec![false; d];
        let mut best_gain = vec![f64::NEG_INFINITY; d];
        let mut best_link = vec![0usize; d];
        let mut parent: Vec<Option<usize>> = vec![None; d];
        in_tree[root] = true;
        for c in 1..d {
            best_gain[c] = mi(root, c);
            best_link[c] = root;
        }
        for _ in 1..d {
            let Some(next) = (0..d)
                .filter(|&c| !in_tree[c])
                .max_by(|&a, &b| best_gain[a].total_cmp(&best_gain[b]))
            else {
                break;
            };
            in_tree[next] = true;
            parent[next] = Some(best_link[next]);
            for c in 0..d {
                if !in_tree[c] {
                    let g = mi(next, c);
                    if g > best_gain[c] {
                        best_gain[c] = g;
                        best_link[c] = next;
                    }
                }
            }
        }

        let mut children = vec![Vec::new(); d];
        for (c, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                children[p].push(c);
            }
        }

        // CPTs with Laplace smoothing
        let mut cpt = Vec::with_capacity(d);
        for c in 0..d {
            let nc = bins[c].nbins();
            match parent[c] {
                None => {
                    let mut counts = vec![1.0f64; nc]; // +1 smoothing
                    for r in 0..n {
                        counts[binned[c][r]] += 1.0;
                    }
                    let total: f64 = counts.iter().sum();
                    cpt.push(counts.into_iter().map(|x| x / total).collect());
                }
                Some(p) => {
                    let np = bins[p].nbins();
                    let mut counts = vec![1.0f64; np * nc];
                    for r in 0..n {
                        counts[binned[p][r] * nc + binned[c][r]] += 1.0;
                    }
                    for pb in 0..np {
                        let row = &mut counts[pb * nc..(pb + 1) * nc];
                        let total: f64 = row.iter().sum();
                        for x in row {
                            *x /= total;
                        }
                    }
                    cpt.push(counts);
                }
            }
        }

        ChowLiuNet { bins, parent, children, cpt, root }
    }

    /// Message from node `c` to its parent: for each parent bin, the
    /// probability that `c`'s subtree satisfies the query.
    fn message(&self, c: usize, coverage: &[Vec<f64>]) -> Vec<f64> {
        let nc = self.bins[c].nbins();
        // own factor per bin × product of child messages per bin
        let mut own: Vec<f64> = coverage[c].clone();
        for &child in &self.children[c] {
            let m = self.message(child, coverage);
            for (o, mi) in own.iter_mut().zip(&m) {
                *o *= mi;
            }
        }
        match self.parent[c] {
            None => own, // root: caller combines with the marginal
            Some(p) => {
                let np = self.bins[p].nbins();
                let table = &self.cpt[c];
                let mut msg = vec![0.0f64; np];
                for (pb, slot) in msg.iter_mut().enumerate() {
                    let row = &table[pb * nc..(pb + 1) * nc];
                    *slot = row.iter().zip(&own).map(|(&p, &o)| p * o).sum();
                }
                msg
            }
        }
    }
}

impl SelectivityEstimator for ChowLiuNet {
    fn name(&self) -> &str {
        "BayesNet"
    }

    fn estimate(&self, q: &RangeQuery) -> f64 {
        let d = self.bins.len();
        assert_eq!(q.cols.len(), d);
        let coverage: Vec<Vec<f64>> = (0..d)
            .map(|c| {
                let mut w = Vec::new();
                match &q.cols[c] {
                    None => w.extend(std::iter::repeat_n(1.0, self.bins[c].nbins())),
                    Some(iv) => self.bins[c].coverage(iv, &mut w),
                }
                w
            })
            .collect();
        let root_factor = self.message(self.root, &coverage);
        let marginal = &self.cpt[self.root];
        let sel: f64 = marginal.iter().zip(&root_factor).map(|(&p, &f)| p * f).sum();
        sel.clamp(0.0, 1.0)
    }

    fn model_size_bytes(&self) -> usize {
        let cpts: usize = self.cpt.iter().map(|t| t.len() * 8).sum();
        let edges: usize = self
            .bins
            .iter()
            .map(|b| match b {
                Bins::Identity { .. } => 8,
                Bins::EquiDepth { edges } => edges.len() * 8,
            })
            .sum();
        cpts + edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iam_data::column::{CatColumn, ContColumn};
    use iam_data::query::{Op, Predicate, Query};
    use iam_data::{exact_selectivity, Table};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Chain-correlated data: a → b → c.
    fn chain_table(n: usize, seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Vec::new();
        let mut b = Vec::new();
        let mut c = Vec::new();
        for _ in 0..n {
            let x = rng.random_range(0..8u32);
            let y = if rng.random::<f64>() < 0.85 { x } else { rng.random_range(0..8) };
            let z = (y as f64) * 10.0 + rng.random::<f64>();
            a.push(x);
            b.push(y);
            c.push(z);
        }
        Table::new(
            "chain",
            vec![
                Column::Categorical(CatColumn::from_codes_dense("a", a, 8)),
                Column::Categorical(CatColumn::from_codes_dense("b", b, 8)),
                Column::Continuous(ContColumn::new("c", c)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn tree_edges_follow_dependencies() {
        let t = chain_table(6000, 1);
        let net = ChowLiuNet::new(&t);
        // every non-root node has exactly one parent; the tree is connected
        assert_eq!(net.parent.iter().filter(|p| p.is_none()).count(), 1);
        // b should attach to a (or vice versa through the chain)
        assert!(net.parent[1] == Some(0) || net.parent[0] == Some(1) || net.parent[1] == Some(2));
    }

    #[test]
    fn captures_pairwise_correlation() {
        let t = chain_table(8000, 2);
        let net = ChowLiuNet::new(&t);
        // a=3 AND b=3 is far more likely than independence suggests
        let q = Query::new(vec![
            Predicate { col: 0, op: Op::Eq, value: 3.0 },
            Predicate { col: 1, op: Op::Eq, value: 3.0 },
        ]);
        let (rq, _) = q.normalize(3).unwrap();
        let truth = exact_selectivity(&t, &q);
        let est = net.estimate(&rq);
        assert!(
            (est - truth).abs() < 0.02,
            "est {est} truth {truth} (independence would give ~{})",
            (1.0 / 8.0) * (0.85 + 0.15 / 8.0) / 8.0
        );
    }

    #[test]
    fn range_on_continuous_child() {
        let t = chain_table(8000, 3);
        let net = ChowLiuNet::new(&t);
        let q = Query::new(vec![
            Predicate { col: 1, op: Op::Eq, value: 5.0 },
            Predicate { col: 2, op: Op::Ge, value: 50.0 },
            Predicate { col: 2, op: Op::Le, value: 51.0 },
        ]);
        let (rq, _) = q.normalize(3).unwrap();
        let truth = exact_selectivity(&t, &q);
        let est = net.estimate(&rq);
        assert!((est - truth).abs() < 0.05, "est {est} truth {truth}");
    }

    #[test]
    fn unconstrained_is_one() {
        let t = chain_table(1000, 4);
        let net = ChowLiuNet::new(&t);
        assert!((net.estimate(&RangeQuery::unconstrained(3)) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn single_column_table() {
        let t = Table::new(
            "one",
            vec![Column::Continuous(ContColumn::new("x", (0..1000).map(|i| i as f64).collect()))],
        )
        .unwrap();
        let net = ChowLiuNet::new(&t);
        let q = Query::new(vec![Predicate { col: 0, op: Op::Le, value: 249.0 }]);
        let (rq, _) = q.normalize(1).unwrap();
        assert!((net.estimate(&rq) - 0.25).abs() < 0.03);
    }
}
