//! Configuration of the IAM estimator.

/// Which domain-reduction family to use for large-domain continuous
/// attributes (§6.6 compares all four).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReducerKind {
    /// Gaussian mixture model — the paper's choice.
    Gmm,
    /// Equi-depth histogram.
    Hist,
    /// Spline-based histogram (error-minimising CDF knots).
    Spline,
    /// Uniform mixture model (overlapping buckets).
    Umm,
}

impl ReducerKind {
    /// Display name used in Tables 9–11.
    pub fn name(self) -> &'static str {
        match self {
            ReducerKind::Gmm => "GMM",
            ReducerKind::Hist => "Hist",
            ReducerKind::Spline => "Spline",
            ReducerKind::Umm => "UMM",
        }
    }
}

/// Full configuration of [`crate::IamEstimator`].
#[derive(Debug, Clone)]
pub struct IamConfig {
    /// Number of mixture components `K` per reduced column (paper: 30).
    /// EM initialises each GMM with exactly `K`; the paper's VBGM init,
    /// which picks fewer, lost the tail when measured (EXPERIMENTS.md).
    pub components: usize,
    /// Reduce a column when its domain size exceeds this (paper: 1000).
    pub reduce_threshold: usize,
    /// Which reducer family to use.
    pub reducer: ReducerKind,
    /// Reduce large-domain continuous columns at all. `false` gives the
    /// Neurocard-style baseline: continuous columns are ordinally encoded
    /// and column-factorised instead.
    pub reduce_continuous: bool,
    /// Factorise *unreduced* columns whose domain exceeds this into two
    /// subcolumns (Neurocard's column factorisation; paper: 2^11).
    pub factorize_threshold: usize,
    /// Hidden layer widths of the ResMADE (paper: 256/128/128/256).
    pub hidden: Vec<usize>,
    /// Per-column embedding width.
    pub embed_dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Train GMMs jointly with the AR model (Eq. 6). When false the
    /// reducers are fitted once up-front ("separate training").
    pub joint_training: bool,
    /// Enable wildcard skipping (mask a random subset of input columns per
    /// training tuple, skip unqueried columns at inference).
    pub wildcard_skipping: bool,
    /// Ablation switch: replace the soft `P̂_GMM(R)` correction vector by a
    /// hard 0/1 "component intersects R" indicator. Biased; exists to
    /// demonstrate why the unbiased correction matters (§5.2).
    pub hard_range_weights: bool,
    /// Number of progressive samples `S_p` per query.
    pub samples: usize,
    /// Worker threads for the training pipeline (GMM steps, batch
    /// encoding, sharded AR backprop). `0` = one per available core. The
    /// value never changes training results — gradient shards are reduced
    /// in a fixed order — only wall time (see
    /// `MadeNet::train_batch_sharded`).
    pub train_threads: usize,
    /// RNG seed (training shuffles, sampling).
    pub seed: u64,
}

impl Default for IamConfig {
    fn default() -> Self {
        IamConfig {
            components: 30,
            reduce_threshold: 1000,
            reducer: ReducerKind::Gmm,
            reduce_continuous: true,
            factorize_threshold: 1 << 11,
            hidden: vec![256, 128, 128, 256],
            embed_dim: 16,
            epochs: 10,
            batch_size: 512,
            lr: 2e-3,
            joint_training: true,
            wildcard_skipping: true,
            hard_range_weights: false,
            samples: 512,
            train_threads: 1,
            seed: 42,
        }
    }
}

impl IamConfig {
    /// Resolve [`Self::train_threads`]: `0` means one worker per available
    /// core, anything else is taken literally.
    pub fn effective_train_threads(&self) -> usize {
        match self.train_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            t => t,
        }
    }

    /// A small fast profile for tests and examples.
    pub fn small() -> Self {
        IamConfig {
            components: 12,
            hidden: vec![64, 64],
            embed_dim: 8,
            epochs: 4,
            batch_size: 256,
            samples: 200,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = IamConfig::default();
        assert_eq!(c.components, 30);
        assert_eq!(c.reduce_threshold, 1000);
        assert_eq!(c.hidden, vec![256, 128, 128, 256]);
        assert_eq!(c.factorize_threshold, 2048);
        assert_eq!(c.reducer.name(), "GMM");
    }
}
