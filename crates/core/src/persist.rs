//! Model persistence: save a trained [`IamEstimator`] to a compact binary
//! snapshot and load it back for inference.
//!
//! The format is self-contained and dependency-free (little-endian, magic
//! `IAM2`; an older `IAM1` snapshot is a `BadFormat`): the configuration,
//! the per-column handlers (ordinal dictionaries, reducer parameters,
//! factorisation bases) and the AR network's parameters as one flat tensor
//! in `Parameters::visit_params` order — network reconstruction is
//! deterministic given the config, so masks and shapes rebuild identically
//! and only the weights need storing.
//!
//! Loaded estimators are fully functional for estimation and can even
//! resume training (GMM trainers are re-initialised from the loaded
//! mixtures; the Adam moments start fresh).

use crate::config::{IamConfig, ReducerKind};
use crate::estimator::IamEstimator;
use crate::reduce::{GmmReducer, HistReducer, Reducer, SplineReducer, UmmReducer};
use crate::schema::{ColumnHandler, IamSchema};
use iam_data::{ColumnEncoding, SelectivityEstimator};
use iam_gmm::Gmm1d;
use iam_nn::{MadeNet, Parameters};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"IAM2";
/// Magic prefix of the framed snapshot envelope (see
/// [`IamEstimator::save_framed`]).
pub(crate) const FRAME_MAGIC: &[u8; 4] = b"IAMF";
/// Upper bound on a framed snapshot's payload length; longer length
/// prefixes are rejected as corrupt before any allocation happens.
pub(crate) const MAX_SNAPSHOT_BYTES: u64 = 1 << 32;
/// Upper bound on the AR network parameter count a snapshot may declare
/// (2²⁷ f32s ≈ 512 MiB). The count is computed analytically from the
/// snapshot's config *before* any network allocation, so a hostile
/// few-hundred-byte header cannot request a terabyte-scale build.
pub(crate) const MAX_SNAPSHOT_PARAMS: u64 = 1 << 27;
/// Element cap for upfront `Vec` capacity while deserialising: lengths
/// are attacker-controlled until the reads behind them succeed, so
/// buffers start no larger than this and grow only as bytes actually
/// arrive (allocation tracks delivered input, not declared input).
const MAX_PREALLOC_ELEMS: usize = 1 << 16;
/// Caps on snapshot-declared shapes that feed allocations or loop
/// bounds downstream of the parse. Generous for every real model, tight
/// enough that a corrupt-but-checksummed snapshot fails cleanly.
const MAX_HIDDEN_LAYERS: usize = 64;
const MAX_COMPONENTS: usize = 1 << 16;
const MAX_HANDLERS: usize = 1 << 16;
const MAX_SAMPLES: usize = 1 << 20;
const MAX_FACTOR_BASE: usize = 1 << 20;

/// Errors raised by save/load.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not an IAM snapshot or is from an incompatible version.
    BadFormat(&'static str),
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
            PersistError::BadFormat(m) => write!(f, "bad snapshot: {m}"),
        }
    }
}

impl std::error::Error for PersistError {}

// --- tiny codec ---------------------------------------------------------

fn w_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_vec_f64<W: Write>(w: &mut W, v: &[f64]) -> io::Result<()> {
    w_u64(w, v.len() as u64)?;
    for &x in v {
        w_f64(w, x)?;
    }
    Ok(())
}
fn w_vec_f32<W: Write>(w: &mut W, v: &[f32]) -> io::Result<()> {
    w_u64(w, v.len() as u64)?;
    for &x in v {
        w.write_all(&x.to_le_bytes())?;
    }
    Ok(())
}
fn w_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    w_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

fn r_u64<R: Read>(r: &mut R) -> Result<u64, PersistError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}
fn r_f64<R: Read>(r: &mut R) -> Result<f64, PersistError> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}
fn r_len<R: Read>(r: &mut R) -> Result<usize, PersistError> {
    let n = r_u64(r)?;
    if n > (1 << 34) {
        return Err(PersistError::BadFormat("implausible length"));
    }
    usize::try_from(n).map_err(|_| PersistError::BadFormat("length exceeds platform usize"))
}
fn r_vec_f64<R: Read>(r: &mut R) -> Result<Vec<f64>, PersistError> {
    let n = r_len(r)?;
    // capacity capped: the declared length is untrusted until the reads
    // behind it succeed, so memory grows with delivered bytes only
    let mut out = Vec::with_capacity(n.min(MAX_PREALLOC_ELEMS));
    for _ in 0..n {
        out.push(r_f64(r)?);
    }
    Ok(out)
}
fn r_vec_f32<R: Read>(r: &mut R) -> Result<Vec<f32>, PersistError> {
    let n = r_len(r)?;
    let mut out = Vec::with_capacity(n.min(MAX_PREALLOC_ELEMS));
    for _ in 0..n {
        let mut b = [0u8; 4];
        r.read_exact(&mut b)?;
        out.push(f32::from_le_bytes(b));
    }
    Ok(out)
}
/// Read exactly `n` bytes in bounded chunks — allocation tracks the
/// bytes actually delivered, never the (untrusted) declared length.
fn r_bytes_chunked<R: Read>(r: &mut R, n: usize) -> Result<Vec<u8>, PersistError> {
    let mut out = Vec::with_capacity(n.min(1 << 20));
    let mut chunk = [0u8; 16 * 1024];
    let mut remaining = n;
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        r.read_exact(&mut chunk[..take])?;
        out.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    Ok(out)
}
fn r_str<R: Read>(r: &mut R) -> Result<String, PersistError> {
    let n = r_len(r)?;
    let b = r_bytes_chunked(r, n)?;
    String::from_utf8(b).map_err(|_| PersistError::BadFormat("non-utf8 string"))
}

// --- reducer round-trip --------------------------------------------------

fn write_reducer<W: Write>(w: &mut W, r: &Reducer) -> io::Result<()> {
    match r {
        Reducer::Gmm(g) => {
            let g = g.gmm();
            w.write_all(&[0u8])?;
            w_vec_f64(w, &g.weights)?;
            w_vec_f64(w, &g.means)?;
            w_vec_f64(w, &g.stds)
        }
        Reducer::Hist(h) => {
            w.write_all(&[1u8])?;
            w_vec_f64(w, &h.bounds)
        }
        Reducer::Spline(s) => {
            w.write_all(&[2u8])?;
            w_vec_f64(w, &s.knots_x)?;
            w_vec_f64(w, &s.knots_f)
        }
        Reducer::Umm(u) => {
            w.write_all(&[3u8])?;
            w_vec_f64(w, &u.lo)?;
            w_vec_f64(w, &u.hi)?;
            w_vec_f64(w, &u.weights)
        }
    }
}

/// Every reducer constructor below has preconditions that `fit` upholds
/// but wire bytes may not (`SplineReducer::from_knots` asserts, a
/// zero-width GMM std turns masses into NaN, …). A snapshot that passed
/// its checksum can still encode any of those — bit-rot on disk, or a
/// hostile peer on the `iam-dist` snapshot-shipping channel — so the
/// geometry is validated here and rejected as [`PersistError::BadFormat`]
/// *before* any constructor (or a debug-build invariant) can panic.
fn read_reducer<R: Read>(r: &mut R) -> Result<Reducer, PersistError> {
    let bad = PersistError::BadFormat;
    let all_finite = |v: &[f64]| v.iter().all(|x| x.is_finite());
    let non_decreasing = |v: &[f64]| v.windows(2).all(|w| w[0] <= w[1]);
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    Ok(match tag[0] {
        0 => {
            let weights = r_vec_f64(r)?;
            let means = r_vec_f64(r)?;
            let stds = r_vec_f64(r)?;
            if weights.is_empty() || means.len() != weights.len() || stds.len() != weights.len() {
                return Err(bad("GMM component arity mismatch"));
            }
            // `Gmm1d::new` divides by the weight sum, so the sum must be
            // finite and positive too, not only each weight
            let total: f64 = weights.iter().sum();
            if !all_finite(&means)
                || weights.iter().any(|&w| !w.is_finite() || w < 0.0)
                || !(total.is_finite() && total > 0.0)
                || stds.iter().any(|&s| !s.is_finite() || s <= 0.0)
            {
                return Err(bad("degenerate GMM parameters"));
            }
            Reducer::Gmm(GmmReducer::new(Gmm1d::new(weights, means, stds)))
        }
        1 => {
            let bounds = r_vec_f64(r)?;
            if bounds.len() < 2 || !all_finite(&bounds) || !non_decreasing(&bounds) {
                return Err(bad("degenerate histogram bounds"));
            }
            Reducer::Hist(HistReducer::from_bounds(bounds))
        }
        2 => {
            let x = r_vec_f64(r)?;
            let f = r_vec_f64(r)?;
            if x.len() < 2 || f.len() != x.len() || !all_finite(&x) || !non_decreasing(&x) {
                return Err(bad("degenerate spline knots"));
            }
            if !non_decreasing(&f) || f.iter().any(|&v| !(0.0..=1.0).contains(&v)) {
                return Err(bad("spline knot CDF not monotone in [0,1]"));
            }
            Reducer::Spline(SplineReducer::from_knots(x, f))
        }
        3 => {
            let lo = r_vec_f64(r)?;
            let hi = r_vec_f64(r)?;
            let weights = r_vec_f64(r)?;
            if lo.is_empty() || hi.len() != lo.len() || weights.len() != lo.len() {
                return Err(bad("UMM component arity mismatch"));
            }
            if !all_finite(&lo) || !all_finite(&hi) || !all_finite(&weights) {
                return Err(bad("degenerate UMM parameters"));
            }
            Reducer::Umm(UmmReducer::from_parts(lo, hi, weights))
        }
        _ => return Err(PersistError::BadFormat("unknown reducer tag")),
    })
}

// --- estimator round-trip --------------------------------------------------

impl IamEstimator {
    /// Serialise a trained estimator.
    pub fn save<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        w.write_all(MAGIC)?;
        // config (everything needed to rebuild the net + inference behaviour)
        let c = &self.cfg;
        w_u64(w, c.components as u64)?;
        w_u64(w, c.reduce_threshold as u64)?;
        w.write_all(&[match c.reducer {
            ReducerKind::Gmm => 0u8,
            ReducerKind::Hist => 1,
            ReducerKind::Spline => 2,
            ReducerKind::Umm => 3,
        }])?;
        w_u64(w, u64::from(c.reduce_continuous))?;
        w_u64(w, c.factorize_threshold as u64)?;
        w_u64(w, c.hidden.len() as u64)?;
        for &h in &c.hidden {
            w_u64(w, h as u64)?;
        }
        w_u64(w, c.embed_dim as u64)?;
        w_f64(w, c.lr as f64)?;
        w_u64(w, u64::from(c.wildcard_skipping))?;
        w_u64(w, u64::from(c.hard_range_weights))?;
        w_u64(w, c.samples as u64)?;
        w_u64(w, c.seed)?;
        w_str(w, self.name())?;
        w_u64(w, self.nrows() as u64)?;

        // schema handlers
        let schema = &self.schema;
        w_u64(w, schema.handlers.len() as u64)?;
        for h in &schema.handlers {
            match h {
                ColumnHandler::Direct(enc) => {
                    w.write_all(&[0u8])?;
                    w_vec_f64(w, &enc.distinct)?;
                }
                ColumnHandler::Reduced(r) => {
                    w.write_all(&[1u8])?;
                    write_reducer(w, r)?;
                }
                ColumnHandler::Factorized { enc, base } => {
                    w.write_all(&[2u8])?;
                    w_u64(w, *base as u64)?;
                    w_vec_f64(w, &enc.distinct)?;
                }
            }
        }

        // network parameters, flat
        let mut flat: Vec<f32> = Vec::new();
        self.net().for_each_param(&mut |p| flat.extend_from_slice(p));
        w_vec_f32(w, &flat)?;
        Ok(())
    }

    /// Deserialise an estimator saved by [`Self::save`].
    pub fn load<R: Read>(r: &mut R) -> Result<IamEstimator, PersistError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(PersistError::BadFormat("missing IAM2 magic"));
        }
        let bad = PersistError::BadFormat;
        let components = r_len(r)?;
        if components == 0 || components > MAX_COMPONENTS {
            return Err(bad("component count out of range"));
        }
        let reduce_threshold = r_len(r)?;
        let mut tag = [0u8; 1];
        r.read_exact(&mut tag)?;
        let reducer = match tag[0] {
            0 => ReducerKind::Gmm,
            1 => ReducerKind::Hist,
            2 => ReducerKind::Spline,
            3 => ReducerKind::Umm,
            _ => return Err(PersistError::BadFormat("bad reducer kind")),
        };
        let reduce_continuous = r_u64(r)? != 0;
        let factorize_threshold = r_len(r)?;
        let nh = r_len(r)?;
        if nh == 0 || nh > MAX_HIDDEN_LAYERS {
            return Err(bad("hidden layer count out of range"));
        }
        let hidden: Vec<usize> = (0..nh).map(|_| r_len(r)).collect::<Result<_, _>>()?;
        if hidden.contains(&0) {
            return Err(bad("zero-width hidden layer"));
        }
        let embed_dim = r_len(r)?;
        if embed_dim == 0 {
            return Err(bad("zero embedding dimension"));
        }
        // audit-allow(wire-int-cast): lr is stored widened as f64; narrowing
        // back to the f32 it started as is lossless for every saved value
        let lr = r_f64(r)? as f32;
        let wildcard_skipping = r_u64(r)? != 0;
        let hard_range_weights = r_u64(r)? != 0;
        let samples = r_len(r)?;
        if samples == 0 || samples > MAX_SAMPLES {
            return Err(bad("sample budget out of range"));
        }
        let seed = r_u64(r)?;
        let name = r_str(r)?;
        let nrows = r_len(r)?;

        let cfg = IamConfig {
            components,
            reduce_threshold,
            reducer,
            reduce_continuous,
            factorize_threshold,
            hidden,
            embed_dim,
            lr,
            wildcard_skipping,
            hard_range_weights,
            samples,
            seed,
            ..IamConfig::default()
        };

        // handlers
        let nc = r_len(r)?;
        if nc == 0 || nc > MAX_HANDLERS {
            return Err(bad("handler count out of range"));
        }
        let mut handlers = Vec::with_capacity(nc.min(MAX_PREALLOC_ELEMS));
        for _ in 0..nc {
            let mut t = [0u8; 1];
            r.read_exact(&mut t)?;
            handlers.push(match t[0] {
                0 => {
                    let distinct = r_vec_f64(r)?;
                    if distinct.is_empty() {
                        return Err(bad("empty direct encoding"));
                    }
                    ColumnHandler::Direct(ColumnEncoding { distinct })
                }
                1 => ColumnHandler::Reduced(read_reducer(r)?),
                2 => {
                    let base = r_len(r)?;
                    // base < 2 makes factorisation meaningless and base == 0
                    // divides by zero in the slot-domain computation
                    if !(2..=MAX_FACTOR_BASE).contains(&base) {
                        return Err(bad("factorisation base out of range"));
                    }
                    let distinct = r_vec_f64(r)?;
                    if distinct.is_empty() {
                        return Err(bad("empty factorized encoding"));
                    }
                    ColumnHandler::Factorized { base, enc: ColumnEncoding { distinct } }
                }
                _ => return Err(PersistError::BadFormat("bad handler tag")),
            });
        }
        let mut schema = IamSchema::from_handlers(handlers, wildcard_skipping);
        schema.hard_range_weights = hard_range_weights;

        // budget the network analytically before building it: the parameter
        // count implied by (slot domains × hidden × embed) must be sane, so
        // a corrupt-but-checksummed header can't request a terabyte build
        match MadeNet::param_count_for(&schema.slot_domains, &cfg.hidden, cfg.embed_dim) {
            Some(n) if n <= MAX_SNAPSHOT_PARAMS => {}
            _ => return Err(bad("declared network exceeds parameter budget")),
        }

        let flat = r_vec_f32(r)?;
        if flat.iter().any(|x| !x.is_finite()) {
            return Err(bad("non-finite network parameter"));
        }
        // older snapshots end with one trailer byte: the fused-table
        // precision tag (0/1/2) they were served at. They hold the full f32
        // parameters either way and tables are rebuilt from those, so the
        // tag is validated and dropped; any other byte is garbage, not
        // silently accepted
        let mut trailer = [0u8; 1];
        if r.read(&mut trailer)? != 0 && trailer[0] > 2 {
            return Err(bad("bad snapshot trailer byte"));
        }
        let mut est = IamEstimator::from_parts(cfg, schema, nrows, &name);
        let mut cursor = 0usize;
        let mut overflow = false;
        // the scoped mutator rebuilds the fused inference tables from the
        // loaded parameters on exit (they are never persisted)
        let masked_zero = est.with_net_mut(|net| {
            net.visit_params(&mut |p, _| {
                if cursor + p.len() <= flat.len() {
                    p.copy_from_slice(&flat[cursor..cursor + p.len()]);
                } else {
                    overflow = true;
                }
                cursor += p.len();
            });
            net.masked_weights_are_zero()
        });
        if overflow || cursor != flat.len() {
            return Err(PersistError::BadFormat("parameter tensor size mismatch"));
        }
        // the kernels never read a masked weight, and their bits equal the
        // plain forward's only while every one is zero (as training keeps it)
        if !masked_zero {
            return Err(PersistError::BadFormat("non-zero masked network weight"));
        }
        Ok(est)
    }

    /// Serialise into a self-delimiting **framed** envelope:
    /// `IAMF` magic, little-endian payload length, the [`Self::save`]
    /// payload, and an FNV-1a-64 checksum of the payload. The frame makes a
    /// snapshot safe to ship over a byte stream — a receiver can tell a
    /// complete, uncorrupted snapshot from a torn or bit-flipped one
    /// *before* attempting to install it (see `iam-dist` snapshot
    /// shipping).
    pub fn save_framed<W: Write>(&self, w: &mut W) -> Result<(), PersistError> {
        let mut payload = Vec::new();
        self.save(&mut payload)?;
        w.write_all(FRAME_MAGIC)?;
        w_u64(w, payload.len() as u64)?;
        w.write_all(&payload)?;
        w_u64(w, fnv1a(&payload))?;
        Ok(())
    }

    /// Deserialise a [`Self::save_framed`] envelope, verifying the length
    /// bound and checksum before parsing the payload. Truncated input,
    /// implausible length prefixes, and checksum mismatches all fail
    /// cleanly with the active bytes untouched.
    pub fn load_framed<R: Read>(r: &mut R) -> Result<IamEstimator, PersistError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != FRAME_MAGIC {
            return Err(PersistError::BadFormat("missing IAMF frame magic"));
        }
        let len = r_u64(r)?;
        if len > MAX_SNAPSHOT_BYTES {
            return Err(PersistError::BadFormat("implausible snapshot length"));
        }
        let len = usize::try_from(len)
            .map_err(|_| PersistError::BadFormat("length exceeds platform usize"))?;
        // chunked read: the length prefix is unauthenticated (the checksum
        // covers only the payload), so allocation must track delivered
        // bytes — a 9-byte hostile header cannot reserve gigabytes
        let payload = r_bytes_chunked(r, len)?;
        let want = r_u64(r)?;
        if fnv1a(&payload) != want {
            return Err(PersistError::BadFormat("snapshot checksum mismatch"));
        }
        Self::load(&mut payload.as_slice())
    }
}

/// FNV-1a-64, the framed-snapshot checksum.
pub use iam_obs::fnv1a;

#[cfg(test)]
mod tests {
    use super::*;
    use iam_data::synth::Dataset;
    use iam_data::{SelectivityEstimator, WorkloadConfig, WorkloadGenerator};

    fn cfg() -> IamConfig {
        IamConfig {
            components: 8,
            hidden: vec![48, 48],
            embed_dim: 8,
            epochs: 3,
            samples: 300,
            seed: 17,
            ..IamConfig::default()
        }
    }

    fn saved(table: &iam_data::Table) -> (IamEstimator, Vec<u8>) {
        let est = IamEstimator::fit(table, cfg());
        let mut buf = Vec::new();
        est.save(&mut buf).unwrap();
        (est, buf)
    }

    #[test]
    fn legacy_trailer_byte_is_validated_and_ignored() {
        let table = Dataset::Twi.generate(2500, 3);
        let (est, buf) = saved(&table);
        let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), 8);
        let queries: Vec<_> =
            gen.gen_queries(6).iter().map(|q| q.normalize(2).unwrap().0).collect();
        let bits = |e: &IamEstimator| -> Vec<u64> {
            e.estimate_batch_shared(&queries, 1).iter().map(|v| v.to_bits()).collect()
        };
        // the writer emits no trailer
        let bare = IamEstimator::load(&mut buf.as_slice()).unwrap();
        assert_eq!(bits(&bare), bits(&est));

        // a snapshot the previous format wrote at any precision (tag 0/1/2)
        // holds the same f32 parameters and loads to the same bits
        for tag in 0..=2u8 {
            let mut legacy = buf.clone();
            legacy.push(tag);
            let loaded = IamEstimator::load(&mut legacy.as_slice()).unwrap();
            assert_eq!(bits(&loaded), bits(&bare), "trailer tag {tag}");
        }

        // any other byte after the parameters is rejected, not misread
        for junk in [3u8, 7, 0xFF] {
            let mut bad = buf.clone();
            bad.push(junk);
            assert!(matches!(
                IamEstimator::load(&mut bad.as_slice()),
                Err(PersistError::BadFormat("bad snapshot trailer byte"))
            ));
        }
    }

    #[test]
    fn save_load_round_trip_preserves_estimates() {
        let table = Dataset::Twi.generate(4000, 1);
        let (est, buf) = saved(&table);

        let loaded = IamEstimator::load(&mut buf.as_slice()).unwrap();
        assert_eq!(loaded.name(), est.name());
        assert_eq!(loaded.model_size_bytes(), est.model_size_bytes());

        // same model, same query → same sampling seed → same bits
        let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), 5);
        for q in gen.gen_queries(10) {
            let (rq, _) = q.normalize(2).unwrap();
            let (a, b) = (est.estimate(&rq), loaded.estimate(&rq));
            assert_eq!(a.to_bits(), b.to_bits(), "estimates diverge: {a} vs {b}");
        }
    }

    #[test]
    fn loaded_model_can_resume_training() {
        let table = Dataset::Twi.generate(3000, 2);
        let (_, buf) = saved(&table);
        let mut loaded = IamEstimator::load(&mut buf.as_slice()).unwrap();
        loaded.train_epochs(&table, 1);
        assert_eq!(loaded.stats.len(), 1);
        assert!(loaded.stats[0].ar_loss.is_finite());
    }

    /// A checksummed snapshot can still set a masked MADE weight; the
    /// blocked kernels assume every masked weight is zero, so `load`
    /// refuses it.
    #[test]
    fn nonzero_masked_weight_is_rejected() {
        let (mut est, _) = saved(&Dataset::Twi.generate(1200, 4));
        est.with_net_mut(|net| {
            // visit order: one embedding table per column, then layer 1's
            // weights, of which the low degrees' are partly masked
            let (layer1, mut at) = (net.ncols(), 0);
            net.visit_params(&mut |p, _| {
                if at == layer1 {
                    p.fill(0.25);
                }
                at += 1;
            });
            assert!(!net.masked_weights_are_zero());
        });
        let mut buf = Vec::new();
        est.save(&mut buf).unwrap();
        assert!(matches!(
            IamEstimator::load(&mut buf.as_slice()),
            Err(PersistError::BadFormat("non-zero masked network weight"))
        ));
    }

    #[test]
    fn garbage_input_is_rejected() {
        assert!(IamEstimator::load(&mut &b"NOPE"[..]).is_err());
        assert!(IamEstimator::load(&mut &b"IAM1\x01\x02"[..]).is_err());
    }

    /// `IAM1` held two more config words; such a snapshot is refused by
    /// its magic, never read with the new layout.
    #[test]
    fn iam1_snapshot_is_rejected_as_bad_format() {
        let (_, mut buf) = saved(&Dataset::Twi.generate(1200, 4));
        buf[..4].copy_from_slice(b"IAM1");
        assert!(matches!(
            IamEstimator::load(&mut buf.as_slice()),
            Err(PersistError::BadFormat("missing IAM2 magic"))
        ));
    }

    /// Every weight finite and ≥ 0 is not enough: an all-zero or
    /// overflowing weight sum would make `Gmm1d::new` panic or degenerate.
    #[test]
    fn gmm_weights_without_finite_positive_sum_are_rejected() {
        let (est, buf) = saved(&Dataset::Twi.generate(2500, 3));
        let g = est
            .schema
            .handlers
            .iter()
            .find_map(|h| match h {
                ColumnHandler::Reduced(Reducer::Gmm(g)) => Some(g.gmm()),
                _ => None,
            })
            .expect("TWI at 2 500 rows reduces a column");
        let mut weights = (g.k() as u64).to_le_bytes().to_vec();
        g.weights.iter().for_each(|w| weights.extend_from_slice(&w.to_le_bytes()));
        let at = buf.windows(weights.len()).position(|w| w == weights).unwrap() + 8;
        for w in [0.0, f64::MAX] {
            let mut bad = buf.clone();
            bad[at..at + 8 * g.k()].chunks_mut(8).for_each(|c| c.copy_from_slice(&w.to_le_bytes()));
            assert!(matches!(
                IamEstimator::load(&mut bad.as_slice()),
                Err(PersistError::BadFormat("degenerate GMM parameters"))
            ));
        }
    }

    #[test]
    fn framed_round_trip_and_corruption_detection() {
        let table = Dataset::Twi.generate(1200, 4);
        let small = IamConfig { epochs: 1, samples: 80, ..cfg() };
        let est = IamEstimator::fit(&table, small);
        let mut framed = Vec::new();
        est.save_framed(&mut framed).unwrap();

        // round trip is bit-identical on the shared inference path
        let loaded = IamEstimator::load_framed(&mut framed.as_slice()).unwrap();
        let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), 6);
        let queries: Vec<_> =
            gen.gen_queries(5).iter().map(|q| q.normalize(2).unwrap().0).collect();
        let a = est.estimate_batch_shared(&queries, 1);
        let b = loaded.estimate_batch_shared(&queries, 1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.to_bits(), y.to_bits());
        }

        // every truncation fails cleanly (torn ship)
        for cut in [0, 3, 4, 11, 12, framed.len() / 2, framed.len() - 1] {
            assert!(
                IamEstimator::load_framed(&mut &framed[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        // a single flipped payload bit fails the checksum
        let mut flipped = framed.clone();
        let mid = 12 + (framed.len() - 20) / 2;
        flipped[mid] ^= 0x40;
        match IamEstimator::load_framed(&mut flipped.as_slice()) {
            Err(e) => assert!(e.to_string().contains("checksum"), "got {e}"),
            Ok(_) => panic!("flipped payload bit must fail the checksum"),
        }
        // an implausible length prefix is rejected before allocating
        let mut huge = framed.clone();
        huge[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(IamEstimator::load_framed(&mut huge.as_slice()).is_err());
        // wrong magic (a raw IAM2 snapshot is not a frame)
        let mut raw = Vec::new();
        est.save(&mut raw).unwrap();
        assert!(IamEstimator::load_framed(&mut raw.as_slice()).is_err());
    }

    #[test]
    fn alternative_reducers_round_trip() {
        for kind in [ReducerKind::Hist, ReducerKind::Spline, ReducerKind::Umm] {
            let table = Dataset::Twi.generate(2500, 3);
            let c = IamConfig { reducer: kind, ..cfg() };
            let est = IamEstimator::fit(&table, c);
            let mut buf = Vec::new();
            est.save(&mut buf).unwrap();
            let loaded = IamEstimator::load(&mut buf.as_slice()).unwrap();
            let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), 4);
            for q in gen.gen_queries(5) {
                let (rq, _) = q.normalize(2).unwrap();
                assert_eq!(est.estimate(&rq).to_bits(), loaded.estimate(&rq).to_bits());
            }
        }
    }
}
