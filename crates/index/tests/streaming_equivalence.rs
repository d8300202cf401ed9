//! Differential build-equivalence suite for the streaming index
//! builder: [`StreamingIndexBuilder`] must emit the same `.hdx` v3 image
//! as `IndexBuilder::from_library(...).to_bytes()`, **byte for byte**,
//! over arbitrary entry counts, shard distributions, spill thresholds,
//! thread counts, and backend kinds — including single-entry libraries
//! and shards with no stored hypervectors. On top of equivalence:
//!
//! * corruption — a truncated or deleted spill file is rejected with a
//!   structured [`IndexError`], never a panic, and the builder cleans
//!   its temporary files up on the way out.
//!
//! The bounded-heap claim lives in `streaming_peak_heap.rs`, a binary of
//! its own: its process-global allocator counter must not see the
//! allocations of tests running concurrently here.

use hdoms_baselines::hyperoms::HyperOmsConfig;
use hdoms_core::accelerator::AcceleratorConfig;
use hdoms_index::streaming::{StreamingConfig, StreamingIndexBuilder};
use hdoms_index::{IndexBuilder, IndexConfig, IndexError, IndexReader, IndexedBackendKind};
use hdoms_ms::dataset::{ScaledLibrary, ScaledLibrarySpec, SyntheticWorkload, WorkloadSpec};
use hdoms_ms::library::SpectralLibrary;
use hdoms_oms::pipeline::{OmsPipeline, PipelineConfig};
use hdoms_oms::search::ExactBackendConfig;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

const TEST_DIM: usize = 512;

fn exact_kind(dim: usize) -> IndexedBackendKind {
    let mut config = ExactBackendConfig::default();
    config.encoder.dim = dim;
    IndexedBackendKind::Exact(config)
}

fn rram_kind(dim: usize) -> IndexedBackendKind {
    let mut config = AcceleratorConfig::default();
    config.encoder.dim = dim;
    IndexedBackendKind::Rram(config)
}

fn hyperoms_kind(dim: usize) -> IndexedBackendKind {
    IndexedBackendKind::HyperOms(HyperOmsConfig {
        dim,
        ..HyperOmsConfig::default()
    })
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hdoms-streq-{}-{tag}.hdx", std::process::id()))
}

/// A scaled synthetic library materialised for the in-memory reference
/// build — the same entries the streaming path consumes.
fn scaled_library(peptides: usize, factor: usize, seed: u64) -> SpectralLibrary {
    let spec = ScaledLibrarySpec {
        base: WorkloadSpec {
            reference_peptides: peptides,
            ..WorkloadSpec::tiny()
        },
        factor,
        seed,
    };
    ScaledLibrary::new(spec).materialize()
}

/// Streaming-build `library` into a fresh temp file and return the
/// image bytes (the file is removed).
fn stream_bytes(config: StreamingConfig, library: &SpectralLibrary, tag: &str) -> Vec<u8> {
    let path = temp_path(tag);
    let report =
        StreamingIndexBuilder::build_from_library(config, &path, library).expect("streaming build");
    assert_eq!(report.entry_count, library.len());
    let bytes = fs::read(&path).expect("read streamed image");
    assert_eq!(bytes.len() as u64, report.index_bytes);
    fs::remove_file(&path).ok();
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The core differential: over arbitrary library sizes, augmentation
    /// factors, shard sizes, spill thresholds (1, mid, and larger than
    /// the library), and thread counts, the streamed image equals the
    /// in-memory image byte for byte.
    #[test]
    fn streaming_matches_in_memory_build(
        seed in 0u64..1000,
        peptides in 1usize..25,
        factor in 1usize..4,
        shard_pow in 2u32..8,
        // `1` forces per-entry chunks; values above the library size
        // (small libraries × large draws) exercise the single-chunk path.
        spill in 1usize..70,
        threads in 1usize..5,
    ) {
        let library = scaled_library(peptides, factor, seed);
        let config = IndexConfig {
            kind: exact_kind(TEST_DIM),
            entries_per_shard: 1usize << shard_pow,
            threads,
        };
        let in_memory = IndexBuilder::new(config.clone()).from_library(&library).to_bytes();
        let streamed = stream_bytes(
            StreamingConfig { index: config, spill_threshold: spill },
            &library,
            &format!("prop-{seed}-{peptides}-{factor}-{shard_pow}-{spill}-{threads}"),
        );
        prop_assert_eq!(&streamed, &in_memory);
    }
}

/// A single-entry library streams to the same bytes and opens cleanly.
#[test]
fn single_entry_library_matches() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 3);
    let library: SpectralLibrary = workload.library.iter().take(1).cloned().collect();
    let config = IndexConfig {
        kind: exact_kind(TEST_DIM),
        entries_per_shard: 64,
        threads: 2,
    };
    let in_memory = IndexBuilder::new(config.clone()).from_library(&library);
    let path = temp_path("single");
    StreamingIndexBuilder::build_from_library(
        StreamingConfig {
            index: config,
            spill_threshold: 8,
        },
        &path,
        &library,
    )
    .expect("streaming build");
    assert_eq!(fs::read(&path).unwrap(), in_memory.to_bytes());
    let loaded = IndexReader::open(&path).expect("open streamed single-entry index");
    assert_eq!(loaded.entry_count(), 1);
    assert_eq!(loaded, in_memory);
    fs::remove_file(&path).ok();
}

/// Push-call granularity is invisible: one push, per-entry pushes, and
/// the buffered iterator path all produce identical bytes.
#[test]
fn push_granularity_is_invisible() {
    let library = scaled_library(15, 2, 21);
    let config = IndexConfig {
        kind: exact_kind(TEST_DIM),
        entries_per_shard: 16,
        threads: 3,
    };
    let streaming = StreamingConfig {
        index: config,
        spill_threshold: 7,
    };

    let one_push = stream_bytes(streaming.clone(), &library, "gran-one");

    let path = temp_path("gran-many");
    let mut builder = StreamingIndexBuilder::create(streaming.clone(), &path).unwrap();
    for entry in library.iter() {
        builder.push_entries(std::slice::from_ref(entry)).unwrap();
    }
    builder.finish().unwrap();
    let per_entry = fs::read(&path).unwrap();
    fs::remove_file(&path).ok();

    let path = temp_path("gran-iter");
    StreamingIndexBuilder::build_from_iter(streaming, &path, library.iter().cloned()).unwrap();
    let from_iter = fs::read(&path).unwrap();
    fs::remove_file(&path).ok();

    assert_eq!(one_push, per_entry);
    assert_eq!(one_push, from_iter);
}

/// When preprocessing rejects every spectrum, the shards store metadata
/// but no hypervector words — the "empty shard" layout. Both builders
/// must agree on it, and the image must load with matching statistics.
#[test]
fn all_rejected_entries_still_match() {
    let library = scaled_library(10, 1, 5);
    let mut exact = ExactBackendConfig::default();
    exact.encoder.dim = TEST_DIM;
    // No synthetic spectrum carries this many peaks, so every entry is
    // rejected and every shard's word block is empty.
    exact.preprocess.min_peaks = 10_000;
    let config = IndexConfig {
        kind: IndexedBackendKind::Exact(exact),
        entries_per_shard: 4,
        threads: 2,
    };
    let in_memory = IndexBuilder::new(config.clone()).from_library(&library);
    let path = temp_path("rejected");
    let report = StreamingIndexBuilder::build_from_library(
        StreamingConfig {
            index: config,
            spill_threshold: 3,
        },
        &path,
        &library,
    )
    .expect("streaming build of all-rejected library");
    assert_eq!(report.build_stats.references_stored, 0);
    assert_eq!(report.build_stats.references_rejected, library.len());
    assert_eq!(report.spilled_bytes, 0);
    assert_eq!(fs::read(&path).unwrap(), in_memory.to_bytes());
    let loaded = IndexReader::open(&path).expect("open all-rejected index");
    assert_eq!(loaded.build_stats(), in_memory.build_stats());
    fs::remove_file(&path).ok();
}

/// The HyperOMS-kind image (distinct encoder seed and preprocessing)
/// streams byte-identically too.
#[test]
fn hyperoms_kind_matches() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 8);
    let config = IndexConfig {
        kind: hyperoms_kind(TEST_DIM),
        entries_per_shard: 32,
        threads: 4,
    };
    let in_memory = IndexBuilder::new(config.clone()).from_library(&workload.library);
    let streamed = stream_bytes(
        StreamingConfig {
            index: config,
            spill_threshold: 16,
        },
        &workload.library,
        "hyperoms",
    );
    assert_eq!(streamed, in_memory.to_bytes());
}

/// The RRAM kind exercises the analog encode path and the MLC section,
/// plus a non-zero mean encode BER in the header — the streaming
/// left-fold must reproduce it bit for bit.
#[test]
fn rram_kind_matches() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 9);
    let config = IndexConfig {
        kind: rram_kind(TEST_DIM),
        entries_per_shard: 32,
        threads: 4,
    };
    let in_memory = IndexBuilder::new(config.clone()).from_library(&workload.library);
    assert!(
        in_memory.build_stats().mean_encode_ber > 0.0,
        "RRAM build should record a non-zero encode BER"
    );
    let streamed = stream_bytes(
        StreamingConfig {
            index: config,
            spill_threshold: 13,
        },
        &workload.library,
        "rram",
    );
    assert_eq!(streamed, in_memory.to_bytes());
}

/// A streamed image is a first-class index: it opens, shards, and
/// searches identically to the in-memory build it mirrors.
#[test]
fn streamed_image_opens_and_searches() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 14);
    let config = IndexConfig {
        kind: exact_kind(TEST_DIM),
        entries_per_shard: 64,
        threads: 4,
    };
    let in_memory = IndexBuilder::new(config.clone()).from_library(&workload.library);
    let path = temp_path("search");
    StreamingIndexBuilder::build_from_library(
        StreamingConfig {
            index: config,
            spill_threshold: 50,
        },
        &path,
        &workload.library,
    )
    .unwrap();
    let loaded = IndexReader::open(&path).expect("open streamed index");
    assert_eq!(loaded, in_memory);

    let backend = loaded.sharded_backend(4).expect("sharded backend");
    let mut pipeline_config = PipelineConfig::fast_test();
    pipeline_config.exact.encoder.dim = TEST_DIM;
    let pipeline = OmsPipeline::new(pipeline_config);
    let outcome = pipeline.run_catalog(&workload.queries, &loaded, &backend);
    assert!(
        !outcome.accepted.is_empty(),
        "streamed index produced no PSMs"
    );
    fs::remove_file(&path).ok();
}

/// Structured configuration errors, not panics.
#[test]
fn invalid_configurations_are_rejected() {
    let path = temp_path("invalid-config");
    let config = StreamingConfig {
        spill_threshold: 0,
        ..Default::default()
    };
    let err = StreamingIndexBuilder::create(config, &path).expect_err("zero spill threshold");
    assert!(matches!(err, IndexError::Invalid(_)), "got {err}");

    let mut config = StreamingConfig::default();
    config.index.entries_per_shard = 0;
    let err = StreamingIndexBuilder::create(config, &path).expect_err("zero entries_per_shard");
    assert!(matches!(err, IndexError::Invalid(_)), "got {err}");

    let builder = StreamingIndexBuilder::create(StreamingConfig::default(), &path).unwrap();
    let err = builder.finish().expect_err("empty build");
    assert!(matches!(err, IndexError::Invalid(_)), "got {err}");
    assert!(!path.exists(), "no image may exist after a failed build");
}

/// A spill file truncated between push and finish is rejected with a
/// structured error naming the spill, and the builder cleans up both the
/// spill and the temporary image.
#[test]
fn truncated_spill_is_structured_error() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 31);
    let path = temp_path("truncated");
    let mut builder = StreamingIndexBuilder::create(
        StreamingConfig {
            index: IndexConfig {
                kind: exact_kind(TEST_DIM),
                entries_per_shard: 64,
                threads: 2,
            },
            spill_threshold: 32,
        },
        &path,
    )
    .unwrap();
    builder.push_entries(workload.library.entries()).unwrap();
    let spill = builder.spill_path().to_path_buf();
    let len = fs::metadata(&spill).expect("spill exists").len();
    assert!(len > 0, "push must have spilled word blocks");

    // Simulate truncation (partial write loss, external tampering).
    let file = fs::OpenOptions::new().write(true).open(&spill).unwrap();
    file.set_len(len / 2).unwrap();
    drop(file);

    let err = builder.finish().expect_err("truncated spill accepted");
    match &err {
        IndexError::Invalid(message) => {
            assert!(message.contains("spill"), "unhelpful message: {message}")
        }
        other => panic!("expected IndexError::Invalid, got {other}"),
    }
    assert!(!path.exists(), "no image may exist after a failed finish");
    assert!(!spill.exists(), "failed builder must remove its spill file");
}

/// A spill file deleted out from under the builder surfaces as a
/// structured I/O error, and abandoning a builder removes its spill.
#[test]
fn missing_spill_is_structured_error() {
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 32);
    let path = temp_path("missing-spill");
    let streaming = StreamingConfig {
        index: IndexConfig {
            kind: exact_kind(TEST_DIM),
            entries_per_shard: 64,
            threads: 2,
        },
        spill_threshold: 32,
    };
    let mut builder = StreamingIndexBuilder::create(streaming.clone(), &path).unwrap();
    builder
        .push_entries(&workload.library.entries()[..10])
        .unwrap();
    fs::remove_file(builder.spill_path()).unwrap();
    let err = builder.finish().expect_err("missing spill accepted");
    assert!(matches!(err, IndexError::Io(_)), "got {err}");
    assert!(!path.exists());

    // Dropping an unfinished builder cleans up after itself.
    let builder = StreamingIndexBuilder::create(streaming, &path).unwrap();
    let spill = builder.spill_path().to_path_buf();
    assert!(spill.exists());
    drop(builder);
    assert!(!spill.exists(), "dropped builder must remove its spill");
}
