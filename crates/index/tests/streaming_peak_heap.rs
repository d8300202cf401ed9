//! The streaming builder's memory claim, counted by a live-bytes
//! peak-tracking global allocator: the streaming build's peak heap stays
//! below the encoded payload (and is governed by the spill threshold),
//! while the in-memory build's peak exceeds it.
//!
//! The counter is process-global, so this binary holds this one test
//! only: any test running beside it would add its allocations to the
//! peak. The equivalence suite lives in `streaming_equivalence.rs`.

use hdoms_index::streaming::{StreamingConfig, StreamingIndexBuilder};
use hdoms_index::{IndexBuilder, IndexConfig, IndexedBackendKind};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_oms::search::ExactBackendConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Tracks live heap bytes and their high-water mark. Unlike the gross
/// allocation counter in `memory_sharing.rs`, frees are subtracted:
/// streaming deliberately allocates every hypervector *transiently*, so
/// only the peak of live bytes distinguishes it from the in-memory path.
struct PeakAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn on_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Count the new block before releasing the old one — the real
        // allocator may briefly hold both.
        on_alloc(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static PEAK_COUNTER: PeakAllocator = PeakAllocator;

/// Run `f` and return its value plus the peak of live bytes *above* the
/// live level at entry.
fn peak_delta<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    let value = f();
    let peak = PEAK.load(Ordering::Relaxed);
    (value, peak.saturating_sub(live))
}

fn exact_kind(dim: usize) -> IndexedBackendKind {
    let mut config = ExactBackendConfig::default();
    config.encoder.dim = dim;
    IndexedBackendKind::Exact(config)
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hdoms-peak-{}-{tag}.hdx", std::process::id()))
}

/// The memory claim itself, counted rather than eyeballed: with a small
/// spill threshold the streaming build's peak live heap stays *below*
/// the encoded payload, while (a) the in-memory build-and-write path
/// exceeds the payload (it holds the reference table plus the serialised
/// image), and (b) raising the spill threshold to the library size drags
/// the streaming peak above the payload too — the threshold is the knob
/// that bounds it.
#[test]
fn streaming_peak_heap_is_bounded_by_spill_threshold() {
    // ~6k entries at dim 8192 → ~6.1 MB payload, comfortably above the
    // streaming side tables (sketch signatures + entry metadata + spill
    // offsets, ~2.5 MB) and the encoder item memory (~4.3 MB of ID bitplanes).
    let workload = SyntheticWorkload::generate(&WorkloadSpec::iprg2012(0.006), 5);
    let library = workload.library;
    let dim = 8192;
    let config = IndexConfig {
        kind: exact_kind(dim),
        entries_per_shard: 512,
        threads: 8,
    };

    // Both builds construct the same query encoder, whose item memories
    // (`num_bins × dim × 3` bits of ID planes) are a fixed cost unrelated to the
    // library size. Measure it once so the assertions below bound the
    // *marginal*, library-dependent peak — same idiom as
    // `memory_sharing.rs`'s encoder baseline.
    let IndexedBackendKind::Exact(exact_config) = &config.kind else {
        panic!("built as exact");
    };
    let encoder_live = {
        let before = LIVE.load(Ordering::Relaxed);
        let encoder = hdoms_hdc::encoder::IdLevelEncoder::new(exact_config.encoder);
        let live = LIVE.load(Ordering::Relaxed).saturating_sub(before);
        drop(encoder);
        live
    };

    let streamed_path = temp_path("peak-stream");
    let (report, stream_peak) = peak_delta(|| {
        StreamingIndexBuilder::build_from_library(
            StreamingConfig {
                index: config.clone(),
                spill_threshold: 256,
            },
            &streamed_path,
            &library,
        )
        .expect("streaming build")
    });
    // The encoded payload: exactly the hypervector bytes that went
    // through the spill (what the in-memory path keeps resident).
    let payload = report.spilled_bytes as usize;
    assert_eq!(
        report.build_stats.references_stored * dim.div_ceil(64) * 8,
        payload
    );
    fs::remove_file(&streamed_path).ok();

    let in_memory_path = temp_path("peak-inmem");
    let ((), in_memory_peak) = peak_delta(|| {
        let index = IndexBuilder::new(config.clone()).from_library(&library);
        index.write(&in_memory_path).expect("write index");
    });
    fs::remove_file(&in_memory_path).ok();

    let full_path = temp_path("peak-full");
    let ((), full_threshold_peak) = peak_delta(|| {
        StreamingIndexBuilder::build_from_library(
            StreamingConfig {
                index: config,
                spill_threshold: library.len(),
            },
            &full_path,
            &library,
        )
        .expect("full-threshold streaming build");
    });
    fs::remove_file(&full_path).ok();

    let stream_marginal = stream_peak.saturating_sub(encoder_live);
    let in_memory_marginal = in_memory_peak.saturating_sub(encoder_live);
    let full_threshold_marginal = full_threshold_peak.saturating_sub(encoder_live);

    assert!(
        payload > 5_000_000,
        "workload too small to be meaningful: payload {payload}"
    );
    assert!(
        stream_marginal < payload,
        "streaming marginal peak {stream_marginal} (raw {stream_peak}, encoder \
         {encoder_live}) not below the {payload}-byte payload"
    );
    assert!(
        in_memory_marginal > payload,
        "in-memory marginal peak {in_memory_marginal} (raw {in_memory_peak}, encoder \
         {encoder_live}) unexpectedly below the {payload}-byte payload"
    );
    assert!(
        in_memory_marginal > stream_marginal + payload / 2,
        "streaming saved too little: in-memory {in_memory_marginal}, streaming \
         {stream_marginal}, payload {payload}"
    );
    assert!(
        full_threshold_marginal > stream_marginal + payload / 2,
        "raising the spill threshold to the library size should raise the peak by the \
         payload: full {full_threshold_marginal}, bounded {stream_marginal}, payload {payload}"
    );
}
