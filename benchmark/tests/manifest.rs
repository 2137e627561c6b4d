//! The benchmark's files must agree with the repository's: the release
//! profile it builds with, and the `BENCHMARK.json` the driver reads.

use std::path::Path;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The settings of `[profile.release]` in a manifest: the lines from the
/// header to the next table, without comments and blank lines.
fn release_profile(manifest: &str) -> Vec<String> {
    manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
        .filter(|l| !l.is_empty())
        .collect()
}

#[test]
fn release_profile_is_the_root_manifests() {
    let root = release_profile(&read("../Cargo.toml"));
    let own = release_profile(&read("Cargo.toml"));
    assert!(!root.is_empty(), "the root manifest has no [profile.release]");
    assert_eq!(own, root, "benchmark/Cargo.toml must repeat the root [profile.release] verbatim");
}

#[test]
fn benchmark_json_is_the_generated_manifest() {
    assert_eq!(
        read("../BENCHMARK.json"),
        iam_benchmark::report::manifest_json(),
        "regenerate it: cargo run --release --manifest-path benchmark/Cargo.toml -- --manifest > BENCHMARK.json"
    );
}
