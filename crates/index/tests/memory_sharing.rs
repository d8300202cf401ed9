//! Memory regression tests for reference-hypervector storage:
//!
//! 1. identity — a warm backend's reference table is the *same storage*
//!    as the index's (`SharedReferences::ptr_eq`), for every backend
//!    kind;
//! 2. accounting — a counting global allocator bounds the bytes
//!    allocated during warm construction to a small fraction of the
//!    hypervector payload (the old cloning path allocated at least one
//!    full payload);
//! 3. zero-copy — the mapped load path (`LibraryIndex::from_buffer`
//!    over a v2 file image) performs **zero** per-reference hypervector
//!    allocations: its allocation traffic is bounded by the metadata,
//!    and the copying path exceeds it by at least the full payload;
//! 4. versioning — v1, v2 and v3 file images cross round-trip with
//!    identical search storage, and the v3 sketch section matches the
//!    on-the-fly derivation older images fall back to.
//!
//! The allocator counter is process-global, so every test that measures
//! it (or allocates heavily while another measures) serialises on one
//! mutex.

use hdoms_index::{IndexBuilder, IndexConfig, IndexedBackendKind, LibraryIndex};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_oms::search::{ExactBackendConfig, SharedReferences};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Counts every byte ever requested from the allocator (frees are not
/// subtracted — the measurement below wants gross allocation traffic,
/// which is what a clone would add to).
struct CountingAllocator;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// Serialises the tests in this binary: the counter above is global, so
/// a test allocating concurrently would inflate another's windows.
static ALLOCATOR_WINDOWS: Mutex<()> = Mutex::new(());

/// Bytes of hypervector words an index stores (the payload a clone would
/// duplicate).
fn payload_bytes(index: &LibraryIndex) -> usize {
    index
        .shared_references()
        .iter()
        .flatten()
        .map(|hv| hv.words().len() * 8)
        .sum()
}

fn ptr_eq(a: &SharedReferences, b: &SharedReferences) -> bool {
    SharedReferences::ptr_eq(a, b)
}

#[test]
fn warm_backends_share_not_clone_the_reference_table() {
    let _serial = ALLOCATOR_WINDOWS.lock().unwrap();
    // Large enough that the hypervector payload (~2.5 MB at dim 2048 ×
    // 10k entries) dwarfs every fixed cost of backend construction (the
    // encoder's ID bitplanes are ~1.1 MB).
    let workload = SyntheticWorkload::generate(&WorkloadSpec::iprg2012(0.01), 99);
    let mut exact = ExactBackendConfig::default();
    exact.encoder.dim = 2048;
    let index = IndexBuilder::new(IndexConfig {
        kind: IndexedBackendKind::Exact(exact),
        entries_per_shard: 512,
        threads: 8,
    })
    .from_library(&workload.library);
    let payload = payload_bytes(&index);
    assert!(payload > 2_000_000, "workload too small to be meaningful");

    // Baseline: every warm constructor must build its query encoder, and
    // the encoder's item memories cost real allocation traffic. Measure
    // that once so the assertions below bound the *marginal* cost of
    // backend construction.
    let IndexedBackendKind::Exact(exact_config) = index.kind() else {
        panic!("built as exact");
    };
    let before = ALLOCATED.load(Ordering::Relaxed);
    let baseline_encoder = hdoms_hdc::encoder::IdLevelEncoder::new(exact_config.encoder);
    let encoder_alloc = ALLOCATED.load(Ordering::Relaxed) - before;
    drop(baseline_encoder);

    // -- accounting: warm construction must not re-allocate the payload.
    let before = ALLOCATED.load(Ordering::Relaxed);
    let backend = index.to_exact_backend(1).expect("exact kind");
    let allocated = (ALLOCATED.load(Ordering::Relaxed) - before).saturating_sub(encoder_alloc);
    assert!(
        allocated < payload / 4,
        "to_exact_backend allocated {allocated} bytes beyond its encoder \
         against a {payload}-byte payload — the reference table is being \
         cloned again"
    );

    // -- identity: same storage, and the handle count adds up.
    assert!(
        ptr_eq(index.shared_references(), backend.shared_references()),
        "backend holds a different reference table than the index"
    );
    assert_eq!(index.shared_references().handle_count(), 2);

    // The sharded serving backend shares the same single copy (its extra
    // state is the id→shard assignment, 4 bytes per entry).
    let before = ALLOCATED.load(Ordering::Relaxed);
    let sharded = index.sharded_backend(1).expect("exact kind");
    let allocated = (ALLOCATED.load(Ordering::Relaxed) - before).saturating_sub(encoder_alloc);
    assert!(
        allocated < payload / 4,
        "sharded_backend allocated {allocated} bytes beyond its encoder \
         against a {payload}-byte payload"
    );
    assert_eq!(index.shared_references().handle_count(), 3);
    drop(sharded);
    drop(backend);
    assert_eq!(index.shared_references().handle_count(), 1);

    // A serialise→load round-trip still shares with its own backends.
    let restored = LibraryIndex::from_bytes(&index.to_bytes(), 4).expect("roundtrip");
    let warm = restored.to_exact_backend(1).expect("exact kind");
    assert!(ptr_eq(
        restored.shared_references(),
        warm.shared_references()
    ));

    // The RRAM accelerator path shares too (identity check on a small
    // workload).
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 100);
    let mut config = hdoms_core::accelerator::AcceleratorConfig::default();
    config.encoder.dim = 2048;
    config.encoder.q_levels = 16;
    config.encoder.level_style = hdoms_hdc::item_memory::LevelStyle::Chunked { num_chunks: 64 };
    let index = IndexBuilder::new(IndexConfig {
        kind: IndexedBackendKind::Rram(config),
        entries_per_shard: 64,
        threads: 4,
    })
    .from_library(&workload.library);
    let accel = index.to_accelerator(2).expect("rram kind");
    assert!(ptr_eq(
        index.shared_references(),
        accel.search_engine().shared_references()
    ));
}

#[test]
fn mapped_load_performs_zero_per_reference_hypervector_allocations() {
    let _serial = ALLOCATOR_WINDOWS.lock().unwrap();
    let workload = SyntheticWorkload::generate(&WorkloadSpec::iprg2012(0.01), 101);
    let mut exact = ExactBackendConfig::default();
    // A dimension high enough that the hypervector payload dwarfs the
    // per-entry metadata (peptides, shard vectors, the offset table) —
    // what separates "allocates the payload" from "allocates only
    // metadata" unambiguously.
    exact.encoder.dim = 4096;
    let index = IndexBuilder::new(IndexConfig {
        kind: IndexedBackendKind::Exact(exact),
        entries_per_shard: 512,
        threads: 8,
    })
    .from_library(&workload.library);
    let payload = payload_bytes(&index);
    assert!(payload > 4_000_000, "workload too small to be meaningful");
    let bytes = index.to_bytes();

    // Build the backing buffer *outside* the measurement window: the one
    // whole-file allocation is the load's input, exactly as the bytes
    // slice is the copying path's input.
    let buffer = hdoms_hdc::WordBuffer::from_bytes(&bytes);

    let before = ALLOCATED.load(Ordering::Relaxed);
    let mapped = LibraryIndex::from_buffer(buffer, 4).expect("mapped load");
    let mapped_alloc = ALLOCATED.load(Ordering::Relaxed) - before;

    let before = ALLOCATED.load(Ordering::Relaxed);
    let copied = LibraryIndex::from_bytes(&bytes, 4).expect("copying load");
    let copied_alloc = ALLOCATED.load(Ordering::Relaxed) - before;

    assert!(mapped.shared_references().is_mapped());
    assert!(!copied.shared_references().is_mapped());
    // Zero per-reference hypervector allocations: the mapped load's
    // traffic stays far below the payload it would have materialised…
    assert!(
        mapped_alloc < payload / 2,
        "mapped load allocated {mapped_alloc} bytes against a \
         {payload}-byte hypervector payload — it is materialising \
         references"
    );
    // …and the copying load pays at least the full payload on top of
    // the identical metadata work.
    assert!(
        copied_alloc >= mapped_alloc + payload,
        "copying load ({copied_alloc} B) should exceed the mapped load \
         ({mapped_alloc} B) by the payload ({payload} B)"
    );

    // Both representations expose identical search storage and
    // metadata.
    assert_eq!(mapped, copied);
    assert_eq!(mapped.shared_references(), index.shared_references());

    // Warm backends over the mapped index share the buffer, not copies.
    let backend = mapped.to_exact_backend(1).expect("exact kind");
    assert!(ptr_eq(
        mapped.shared_references(),
        backend.shared_references()
    ));
    assert_eq!(mapped.shared_references().handle_count(), 2);
}

#[test]
fn v1_v2_and_v3_images_cross_roundtrip() {
    let _serial = ALLOCATOR_WINDOWS.lock().unwrap();
    let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 102);
    let mut exact = ExactBackendConfig::default();
    exact.encoder.dim = 512;
    let index = IndexBuilder::new(IndexConfig {
        kind: IndexedBackendKind::Exact(exact),
        entries_per_shard: 64,
        threads: 4,
    })
    .from_library(&workload.library);

    // v1 image → copying load → identical index.
    let v1 = index.to_bytes_version(1);
    let from_v1 = LibraryIndex::from_bytes(&v1, 4).expect("v1 loads");
    assert_eq!(from_v1, index);

    // The mapped loader accepts a v1 image too, via the documented
    // copying fallback.
    let from_v1_mapped =
        LibraryIndex::from_buffer(hdoms_hdc::WordBuffer::from_bytes(&v1), 4).expect("v1 fallback");
    assert!(!from_v1_mapped.shared_references().is_mapped());
    assert_eq!(from_v1_mapped, index);

    // v1 → load → re-serialise as v2 → mapped load: same index, now
    // searchable in place.
    let v2 = from_v1.to_bytes_version(2);
    let from_v2 =
        LibraryIndex::from_buffer(hdoms_hdc::WordBuffer::from_bytes(&v2), 4).expect("v2 loads");
    assert!(from_v2.shared_references().is_mapped());
    assert_eq!(from_v2, index);

    // v3 (the default) adds the persisted prefilter sketch section and
    // still mapped-loads in place.
    let v3 = index.to_bytes_version(3);
    assert_eq!(v3, index.to_bytes(), "v3 is the default encoding");
    let from_v3 =
        LibraryIndex::from_buffer(hdoms_hdc::WordBuffer::from_bytes(&v3), 4).expect("v3 loads");
    assert!(from_v3.shared_references().is_mapped());
    assert_eq!(from_v3, index);

    // …and back down: every loaded image re-serialises byte-identically
    // at every older version, so v1/v2 readers keep working against
    // down-converted files.
    assert_eq!(from_v2.to_bytes_version(1), v1);
    assert_eq!(from_v3.to_bytes_version(1), v1);
    assert_eq!(from_v3.to_bytes_version(2), v2);

    // A v2 image carries no sketch section; deriving it on the fly must
    // produce exactly the table the v3 image persisted.
    assert_eq!(from_v2.sketch_index(), from_v3.sketch_index());

    // The three images really differ on disk (alignment, sketch
    // section), but agree byte-for-byte about every hypervector.
    assert_ne!(v1, v2);
    assert_ne!(v2, v3);
    assert_eq!(from_v1.shared_references(), from_v2.shared_references());
    assert_eq!(from_v2.shared_references(), from_v3.shared_references());
}
