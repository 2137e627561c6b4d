//! Regenerates the handcrafted seed entries of the regression corpus at
//! `crates/dist/tests/corpus/`. Ignored by default — the corpus is
//! checked in; run explicitly after changing a wire format:
//!
//! ```text
//! cargo test -p iam-audit --test gen_corpus -- --ignored
//! ```
//!
//! Each entry is a byte-for-byte input the replay test
//! (`crates/dist/tests/corpus_replay.rs`, tier-1) feeds back to the
//! matching parser, pinning a hostile-input class the fuzzer or a past
//! incident surfaced. Fuzzer crash artifacts (`*-crash-*`) land in the
//! same directory via `iam-audit fuzz --save-crashes`.

use iam_core::reduce::Reducer;
use iam_core::{persist, ColumnHandler, IamConfig, IamEstimator};
use iam_data::synth::Dataset;
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../dist/tests/corpus")
}

/// `[u32 LE length]` framing used by the dist wire protocol.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(payload.len() + 4);
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(payload);
    wire
}

/// `IAMF` snapshot envelope: magic, u64 LE payload length, payload,
/// FNV-1a-64 checksum — with the checksum *valid*, so the inner parser
/// is what gets tested.
fn envelope(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(b"IAMF");
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&persist::fnv1a(payload).to_le_bytes());
    out
}

#[test]
#[ignore = "writes checked-in corpus files; run after wire-format changes"]
fn regenerate_seed_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(dir.join(name), bytes).unwrap();
    };

    // -- proto: frame/message decoding ------------------------------------

    // length prefix u32::MAX: must be rejected against MAX_FRAME before
    // any allocation
    let mut huge = u32::MAX.to_le_bytes().to_vec();
    huge.extend_from_slice(&[0xAA; 16]);
    write("proto-u32max-frame", &huge);

    // valid frame whose LoadSnapshot payload declares a u64::MAX string
    // length: the *inner* length check must fire, not an OOM
    let mut payload = vec![3u8]; // LoadSnapshot tag
    payload.extend_from_slice(&u64::MAX.to_le_bytes());
    write("proto-inner-len", &frame(&payload));

    // frame length larger than the bytes that follow: reader must hit
    // clean EOF, not block or panic
    let mut trunc = 64u32.to_le_bytes().to_vec();
    trunc.extend_from_slice(&[1u8; 10]);
    write("proto-trunc-frame", &trunc);

    // trailing byte after a complete Ping: whole-slice-consumed rule
    write("proto-trailing-bytes", &frame(&[1u8, 0xEE]));

    // -- persist: framed snapshot loading ---------------------------------

    // envelope declares a 1 TiB payload: the length bound must reject it
    // before the chunked reader is even consulted
    let mut dos = b"IAMF".to_vec();
    dos.extend_from_slice(&(1u64 << 40).to_le_bytes());
    write("persist-len-dos", &dos);

    // checksummed envelope whose inner header declares u64::MAX hidden
    // layers: the layer-count bound must fire before any preallocation
    let mut inner = b"IAM2".to_vec();
    for v in [3u64, 1000] {
        inner.extend_from_slice(&v.to_le_bytes()); // components, reduce_threshold
    }
    inner.push(0); // reducer kind: Gmm
    for v in [1u64, 2048] {
        inner.extend_from_slice(&v.to_le_bytes()); // reduce_continuous, factorize_threshold
    }
    inner.extend_from_slice(&u64::MAX.to_le_bytes()); // hidden-layer count
    write("persist-huge-veclen", &envelope(&inner));

    // genuine snapshot truncated mid-payload with the envelope repaired:
    // the inner parser must fail with a clean format/EOF error
    let table = Dataset::Twi.generate(300, 5);
    let cfg = IamConfig {
        components: 3,
        reduce_threshold: 100,
        hidden: vec![12, 12],
        embed_dim: 4,
        epochs: 1,
        samples: 32,
        seed: 13,
        ..IamConfig::default()
    };
    let est = IamEstimator::fit(&table, cfg);
    let mut framed = Vec::new();
    est.save_framed(&mut framed).unwrap();
    let keep = 12 + (framed.len() - 20) * 3 / 5;
    write("persist-trunc-snapshot", &envelope(&framed[12..keep]));

    // genuine snapshot whose first GMM has every weight 0.0: each weight
    // is finite and ≥ 0, but the mixture has no mass to normalise, so the
    // loader must reject it rather than let `Gmm1d::new` panic
    let Some(ColumnHandler::Reduced(Reducer::Gmm(g))) =
        est.schema.handlers.iter().find(|h| matches!(h, ColumnHandler::Reduced(_)))
    else {
        panic!("the seed model must reduce a column with a GMM");
    };
    let mut weights = (g.gmm().k() as u64).to_le_bytes().to_vec();
    g.gmm().weights.iter().for_each(|w| weights.extend_from_slice(&w.to_le_bytes()));
    let mut payload = framed[12..framed.len() - 8].to_vec();
    let at = payload.windows(weights.len()).position(|w| w == weights).unwrap() + 8;
    payload[at..at + weights.len() - 8].fill(0);
    write("persist-zero-gmm-weights", &envelope(&payload));

    // -- line: serve text protocol ----------------------------------------

    // invalid UTF-8 spliced into a structurally plausible query line
    write("line-junk-utf8", b"0=\xff..\xfe 1=*");

    // repeated column with overlapping ranges plus a bare equality
    write("line-dup-col", b"0=1..10 0=5..20 2=7");

    // -- sql: statement parsing -------------------------------------------

    // numeric literal that overflows f64: must be rejected as a parse
    // error, not admitted as ±∞ (which would break canonical re-rendering)
    write("sql-overflow-literal", b"SELECT COUNT(*) FROM t WHERE c0 < 1e309");

    // invalid UTF-8 and truncation mid-keyword around a plausible statement
    write("sql-junk-utf8", b"SELECT COUNT(*) FROM t WHERE c0 BETW\xff\xfeEN 1 AND");
}
