//! The public IAM estimator and its Neurocard-style ablation.

use crate::config::IamConfig;
use crate::infer;
use crate::probes;
use crate::schema::IamSchema;
use crate::train::{self, EpochStats};
use iam_data::{RangeQuery, SelectivityEstimator, Table};
use iam_gmm::GmmSgdTrainer;
use iam_nn::{Adam, AdamConfig, FusedTables, MadeConfig, MadeNet};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The IAM selectivity estimator (GMMs + ResMADE + unbiased progressive
/// sampling). With [`IamConfig::reduce_continuous`] = false it degrades to
/// the Neurocard-style baseline (column factorisation, no reduction) —
/// see [`neurocard_lite`].
pub struct IamEstimator {
    /// Active configuration.
    pub cfg: IamConfig,
    /// Column handling and slot layout.
    pub schema: IamSchema,
    net: MadeNet,
    opt: Adam,
    gmm_trainers: Vec<Option<GmmSgdTrainer>>,
    nrows: usize,
    /// Training's stream: the epoch shuffle and the wildcard masks. Only
    /// [`Self::train_epochs`] draws from it; estimates never do, so asking
    /// a model for estimates cannot change what it trains into.
    rng: StdRng,
    /// Fused embedding→layer-1 token tables of `net`'s *current*
    /// parameters: rebuilt wherever the parameters change, never absent.
    fused: FusedTables,
    pool: infer::ScratchPool,
    name: String,
    /// Loss curve, one entry per trained epoch.
    pub stats: Vec<EpochStats>,
}

impl IamEstimator {
    /// Fit reducers and build the (untrained) network for `table`.
    pub fn build(table: &Table, cfg: IamConfig) -> Self {
        Self::build_named(table, cfg, None)
    }

    /// Like [`Self::build`] but with an explicit display name.
    pub fn build_named(table: &Table, cfg: IamConfig, name: Option<&str>) -> Self {
        let schema = {
            // reducer fitting (EM init of each GMM, or Hist/Spline/UMM fits)
            // is the "reduction fit" phase of the timing breakdown
            let _span = iam_obs::span!("build.reduce");
            IamSchema::build(table, &cfg)
        };
        debug_assert!(train::check_slot_layout(&schema));
        let name = name.unwrap_or(if cfg.reduce_continuous { "IAM" } else { "Neurocard" });
        Self::from_parts(cfg, schema, table.nrows(), name)
    }

    /// Train for `epochs` additional epochs (resumable — Figure 6 evaluates
    /// the model between calls).
    pub fn train_epochs(&mut self, table: &Table, epochs: usize) {
        for _ in 0..epochs {
            let s = train::train_epoch(
                table,
                &mut self.schema,
                &mut self.net,
                &mut self.opt,
                &mut self.gmm_trainers,
                &self.cfg,
                &mut self.rng,
            );
            self.stats.push(s);
        }
        self.prepare_inference();
    }

    /// Rebuild the inference tables now: precompute the per-(slot, token)
    /// embedding→layer-1 contribution tables the forward path sums instead
    /// of running an embedding gather plus a matrix multiply (bitwise
    /// identical to that plain forward, see [`FusedTables`]). Called
    /// wherever the parameters change — construction, the end of
    /// [`Self::train_epochs`], [`Self::with_net_mut`], snapshot load — so
    /// the tables are never stale; harmless to call again.
    pub fn prepare_inference(&mut self) {
        self.fused = build_tables(&self.net);
    }

    /// Assemble an estimator around a fitted schema: the network is
    /// constructed deterministically from the config and schema. `persist`
    /// rebuilds loaded models through this and then overwrites the
    /// parameters via [`Self::with_net_mut`].
    pub(crate) fn from_parts(cfg: IamConfig, schema: IamSchema, nrows: usize, name: &str) -> Self {
        let net = MadeNet::new(MadeConfig {
            domain_sizes: schema.slot_domains.clone(),
            hidden: cfg.hidden.clone(),
            embed_dim: cfg.embed_dim,
            residual: true,
            seed: cfg.seed,
        });
        let opt = Adam::new(AdamConfig { lr: cfg.lr });
        let gmm_trainers = train::make_gmm_trainers(&schema, &cfg);
        IamEstimator {
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xD1CE),
            schema,
            fused: build_tables(&net),
            net,
            opt,
            gmm_trainers,
            nrows,
            pool: infer::ScratchPool::new(),
            name: name.to_string(),
            stats: Vec::new(),
            cfg,
        }
    }

    /// Number of rows of the table the model was trained on.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// The (possibly persisted-and-reloaded) configuration. Lets callers
    /// that receive models from untrusted bytes inspect cost knobs (e.g.
    /// the per-query sample budget) before issuing estimates.
    pub fn config(&self) -> &IamConfig {
        &self.cfg
    }

    /// Build and train in one call using `cfg.epochs`.
    pub fn fit(table: &Table, cfg: IamConfig) -> Self {
        let epochs = cfg.epochs;
        let mut est = Self::build(table, cfg);
        est.train_epochs(table, epochs);
        est
    }

    /// Deterministic, shareable batched inference (§5.3, "Batch Query
    /// Inference"): `&self`, so a single trained model behind an `Arc` can
    /// serve many threads concurrently.
    ///
    /// Each query's sampling seed is derived from the model's
    /// [`Self::sampling_salt`] and the query's
    /// [`RangeQuery::canonical_key`], making every estimate a pure function
    /// of (model, query): independent of batch composition, of `threads`,
    /// and of calls that came before. The serving layer relies on this for
    /// bitwise-reproducible responses and a coherent result cache.
    ///
    /// `threads > 1` fans the batch out with `std::thread::scope`
    /// (see [`infer::estimate_batch`]).
    pub fn estimate_batch_shared(&self, queries: &[RangeQuery], threads: usize) -> Vec<f64> {
        let salt = self.sampling_salt();
        let seeds: Vec<u64> = queries.iter().map(|q| salt ^ q.canonical_key()).collect();
        self.estimate_seeded(queries, &seeds, threads)
    }

    /// Batched inference with caller-chosen sampling seeds, one per query:
    /// `seeds[i]` drives query `i`'s progressive sampling, so distinct
    /// seeds give independent Monte-Carlo runs of the same model (the
    /// unbiasedness tests average over them).
    pub fn estimate_seeded(
        &self,
        queries: &[RangeQuery],
        seeds: &[u64],
        threads: usize,
    ) -> Vec<f64> {
        assert_eq!(queries.len(), seeds.len(), "one seed per query");
        let plans: Vec<_> = queries.iter().map(|q| self.schema.query_plan(q)).collect();
        infer::estimate_batch(
            &self.net,
            &self.schema,
            &plans,
            self.cfg.samples,
            seeds,
            &self.fused,
            threads,
            &self.pool,
        )
    }

    /// Salt mixed into per-query sampling seeds by
    /// [`Self::estimate_batch_shared`]. Derived from the persisted config
    /// seed, so a saved-then-loaded model reproduces identical estimates.
    pub fn sampling_salt(&self) -> u64 {
        self.cfg.seed ^ 0x5A17_BA7C
    }

    /// Set the training worker-thread count for subsequent
    /// [`Self::train_epochs`] calls (e.g. a serving-side model refresh).
    /// Never changes training results — only wall time.
    pub fn set_train_threads(&mut self, threads: usize) {
        self.cfg.train_threads = threads;
    }

    /// Number of trainable scalar parameters.
    pub fn num_params(&self) -> usize {
        let mut n = 0;
        self.net.for_each_param(&mut |p| n += p.len());
        n
    }

    /// Shared read access to the underlying AR network (diagnostics: e.g.
    /// exhaustively enumerating the model's implied distribution).
    pub fn net(&self) -> &MadeNet {
        &self.net
    }

    /// The fused inference tables of the current parameters.
    pub(crate) fn fused(&self) -> &FusedTables {
        &self.fused
    }

    /// Scoped mutable access to the AR network: `f` may change parameters,
    /// and the fused inference tables are rebuilt from them before this
    /// returns — `&self` estimates can never observe stale tables.
    pub fn with_net_mut<R>(&mut self, f: impl FnOnce(&mut MadeNet) -> R) -> R {
        let out = f(&mut self.net);
        self.prepare_inference();
        out
    }
}

/// Build `net`'s fused tables and publish their size.
fn build_tables(net: &MadeNet) -> FusedTables {
    let tables = net.build_fused_tables();
    probes::infer().table_bytes.set(tables.size_bytes() as i64);
    tables
}

impl SelectivityEstimator for IamEstimator {
    fn name(&self) -> &str {
        &self.name
    }

    fn estimate(&self, q: &RangeQuery) -> f64 {
        self.estimate_batch_shared(std::slice::from_ref(q), 1)[0]
    }

    fn model_size_bytes(&self) -> usize {
        // network parameters (f32) + reducer parameters; ordinal
        // dictionaries are excluded for every estimator alike (see DESIGN.md)
        self.num_params() * 4 + self.schema.reducers_size_bytes()
    }
}

impl Clone for IamEstimator {
    /// Clones share the trained model, so they answer every query with the
    /// same bits. The training RNG (`StdRng` is not cloneable) restarts
    /// from a fixed seed: only further training on the clone sees it.
    fn clone(&self) -> Self {
        IamEstimator {
            cfg: self.cfg.clone(),
            schema: self.schema.clone(),
            net: self.net.clone(),
            opt: self.opt.clone(),
            gmm_trainers: self.gmm_trainers.clone(),
            nrows: self.nrows,
            rng: StdRng::seed_from_u64(self.cfg.seed ^ 0xC10E),
            fused: self.fused.clone(),
            pool: infer::ScratchPool::new(),
            name: self.name.clone(),
            stats: self.stats.clone(),
        }
    }
}

/// The Neurocard-style configuration: identical AR model and training, but
/// no domain reduction — large continuous domains are ordinally encoded and
/// column-factorised, exactly the baseline IAM is compared against.
pub fn neurocard_lite(base: IamConfig) -> IamConfig {
    IamConfig { reduce_continuous: false, ..base }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iam_data::column::{CatColumn, Column, ContColumn};
    use iam_data::query::{Interval, Op, Predicate, Query};
    use iam_data::{exact_selectivity, Table, WorkloadConfig, WorkloadGenerator};
    use rand::RngExt;

    /// A small correlated table: categorical cluster id + a continuous value
    /// whose location depends on the cluster.
    fn corr_table(n: usize, seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cats = Vec::with_capacity(n);
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            let c = rng.random_range(0..4u32);
            let center = c as f64 * 10.0;
            let v = center + iam_data::synth::normal(&mut rng);
            cats.push(c);
            vals.push(v);
        }
        Table::new(
            "corr",
            vec![
                Column::Categorical(CatColumn::from_codes_dense("c", cats, 4)),
                Column::Continuous(ContColumn::new("x", vals)),
            ],
        )
        .unwrap()
    }

    fn quick_cfg() -> IamConfig {
        IamConfig {
            components: 8,
            reduce_threshold: 100,
            epochs: 6,
            hidden: vec![48, 48],
            embed_dim: 8,
            batch_size: 256,
            samples: 300,
            seed: 7,
            ..IamConfig::default()
        }
    }

    #[test]
    fn training_loss_decreases() {
        let t = corr_table(4000, 1);
        let est = IamEstimator::fit(&t, quick_cfg());
        let first = est.stats.first().unwrap().ar_loss;
        let last = est.stats.last().unwrap().ar_loss;
        assert!(last < first, "AR loss should fall: {first} -> {last}");
    }

    #[test]
    fn unconstrained_query_estimates_one() {
        let t = corr_table(2000, 2);
        let est = IamEstimator::fit(&t, quick_cfg());
        let sel = est.estimate(&RangeQuery::unconstrained(2));
        assert!((sel - 1.0).abs() < 1e-9, "{sel}");
    }

    #[test]
    fn impossible_query_estimates_zero() {
        let t = corr_table(2000, 3);
        let est = IamEstimator::fit(&t, quick_cfg());
        let mut rq = RangeQuery::unconstrained(2);
        rq.cols[1] = Some(Interval::closed(1e6, 2e6));
        assert_eq!(est.estimate(&rq), 0.0);
    }

    #[test]
    fn estimates_track_truth_on_correlated_data() {
        let t = corr_table(8000, 4);
        let est = IamEstimator::fit(&t, quick_cfg());
        let mut gen = WorkloadGenerator::new(&t, WorkloadConfig::default(), 99);
        let mut errs = Vec::new();
        for q in gen.gen_queries(40) {
            let truth = exact_selectivity(&t, &q);
            let (rq, _) = q.normalize(2).unwrap();
            let sel = est.estimate(&rq);
            errs.push(iam_data::q_error(truth, sel, t.nrows()));
        }
        errs.sort_by(f64::total_cmp);
        let median = errs[errs.len() / 2];
        assert!(median < 2.0, "median q-error too high: {median} ({errs:?})");
    }

    #[test]
    fn conditional_structure_is_learned() {
        // query: cluster = 3 AND x in cluster-3's range should be ≈ P(c=3);
        // cluster = 3 AND x in cluster-0's range should be ≈ 0
        let t = corr_table(8000, 5);
        let est = IamEstimator::fit(&t, quick_cfg());
        let q_hit = Query::new(vec![
            Predicate { col: 0, op: Op::Eq, value: 3.0 },
            Predicate { col: 1, op: Op::Ge, value: 27.0 },
        ]);
        let q_miss = Query::new(vec![
            Predicate { col: 0, op: Op::Eq, value: 3.0 },
            Predicate { col: 1, op: Op::Le, value: 3.0 },
        ]);
        let (rq_hit, _) = q_hit.normalize(2).unwrap();
        let (rq_miss, _) = q_miss.normalize(2).unwrap();
        let sel_hit = est.estimate(&rq_hit);
        let sel_miss = est.estimate(&rq_miss);
        let truth_hit = exact_selectivity(&t, &q_hit);
        assert!((sel_hit - truth_hit).abs() < 0.08, "hit: est {sel_hit} truth {truth_hit}");
        assert!(sel_miss < 0.02, "miss: {sel_miss}");
    }

    #[test]
    fn neurocard_mode_also_works() {
        let t = corr_table(4000, 6);
        let cfg = neurocard_lite(IamConfig { factorize_threshold: 512, ..quick_cfg() });
        let est = IamEstimator::fit(&t, cfg);
        assert_eq!(est.name(), "Neurocard");
        // continuous column (≈4000 distinct > 512) must be factorised
        assert!(est.schema.nslots() == 3, "nslots = {}", est.schema.nslots());
        let mut gen = WorkloadGenerator::new(&t, WorkloadConfig::default(), 77);
        let mut errs = Vec::new();
        for q in gen.gen_queries(30) {
            let truth = exact_selectivity(&t, &q);
            let (rq, _) = q.normalize(2).unwrap();
            errs.push(iam_data::q_error(truth, est.estimate(&rq), t.nrows()));
        }
        errs.sort_by(f64::total_cmp);
        assert!(errs[errs.len() / 2] < 3.0, "median {}", errs[errs.len() / 2]);
    }

    #[test]
    fn single_and_batch_inference_agree_bitwise() {
        let t = corr_table(4000, 8);
        let est = IamEstimator::fit(&t, quick_cfg());
        let mut gen = WorkloadGenerator::new(&t, WorkloadConfig::default(), 13);
        let queries = gen.gen_queries(8);
        let rqs: Vec<RangeQuery> = queries.iter().map(|q| q.normalize(2).unwrap().0).collect();
        let batch = est.estimate_batch_shared(&rqs, 1);
        for (rq, b) in rqs.iter().zip(&batch) {
            let single = est.estimate(rq);
            assert_eq!(single.to_bits(), b.to_bits(), "single {single} vs batch {b}");
        }
    }

    #[test]
    fn evaluation_does_not_perturb_training() {
        let t = corr_table(2000, 16);
        let cfg = IamConfig { epochs: 2, ..quick_cfg() };
        let mut gen = WorkloadGenerator::new(&t, WorkloadConfig::default(), 17);
        let rqs: Vec<RangeQuery> =
            gen.gen_queries(50).iter().map(|q| q.normalize(2).unwrap().0).collect();
        let mut probed = IamEstimator::build(&t, cfg.clone());
        probed.train_epochs(&t, 1);
        for rq in &rqs {
            probed.estimate(rq);
        }
        probed.train_epochs(&t, 1);
        let plain = IamEstimator::fit(&t, cfg);
        let bytes = |e: &IamEstimator| {
            let mut buf = Vec::new();
            e.save(&mut buf).unwrap();
            buf
        };
        assert!(bytes(&probed) == bytes(&plain), "estimates between epochs changed the model");
    }

    #[test]
    fn shared_inference_is_deterministic_and_thread_invariant() {
        let t = corr_table(3000, 12);
        let est = IamEstimator::fit(&t, quick_cfg());
        let mut gen = WorkloadGenerator::new(&t, WorkloadConfig::default(), 21);
        let rqs: Vec<RangeQuery> =
            gen.gen_queries(12).iter().map(|q| q.normalize(2).unwrap().0).collect();

        let seq = est.estimate_batch_shared(&rqs, 1);
        let par = est.estimate_batch_shared(&rqs, 4);
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.to_bits(), b.to_bits(), "thread count changed an estimate");
        }
        // composition independence: a query answered alone must match the
        // same query answered inside the batch, bit for bit
        for (i, rq) in rqs.iter().enumerate() {
            let solo = est.estimate_batch_shared(std::slice::from_ref(rq), 1)[0];
            assert_eq!(solo.to_bits(), seq[i].to_bits(), "query {i} batch-dependent");
        }
    }

    #[test]
    fn scoped_net_mutation_leaves_tables_matching_the_parameters() {
        use iam_nn::Parameters;
        let t = corr_table(2000, 15);
        let mut est = IamEstimator::fit(&t, IamConfig { epochs: 1, ..quick_cfg() });
        let mut gen = WorkloadGenerator::new(&t, WorkloadConfig::default(), 41);
        let rqs: Vec<RangeQuery> =
            gen.gen_queries(8).iter().map(|q| q.normalize(2).unwrap().0).collect();
        let bits = |e: &IamEstimator| -> Vec<u64> {
            e.estimate_batch_shared(&rqs, 1).iter().map(|v| v.to_bits()).collect()
        };
        let before = bits(&est);
        est.with_net_mut(|net| net.visit_params(&mut |p, _| p.iter_mut().for_each(|w| *w *= 0.5)));
        let after = bits(&est);
        assert_ne!(before, after, "the parameter change must reach `&self` estimates");
        // a reloaded snapshot builds its tables from the saved parameters:
        // equal bits mean the mutator left no stale table behind
        let mut framed = Vec::new();
        est.save_framed(&mut framed).unwrap();
        let loaded = IamEstimator::load_framed(&mut framed.as_slice()).unwrap();
        assert_eq!(after, bits(&loaded));
    }

    #[test]
    fn model_size_reflects_reduction() {
        let t = corr_table(4000, 9);
        let iam = IamEstimator::fit(&t, quick_cfg());
        let nc = IamEstimator::fit(
            &t,
            neurocard_lite(IamConfig { factorize_threshold: 512, ..quick_cfg() }),
        );
        assert!(
            iam.model_size_bytes() < nc.model_size_bytes(),
            "IAM {} should be smaller than Neurocard {}",
            iam.model_size_bytes(),
            nc.model_size_bytes()
        );
    }
}
