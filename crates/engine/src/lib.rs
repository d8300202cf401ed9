//! # hdoms-engine — unified query execution over one resident engine
//!
//! Between PR 1 and PR 2 the repo grew ~10 overlapping ways to construct
//! and run a search (cold backend builds, warm index reconstruction,
//! shared-table reassembly, four `OmsPipeline::run*` variants, the serve
//! layer's resident wiring). This crate collapses them into two types:
//!
//! * [`Engine`] — **one builder for every construction path**. Cold
//!   ([`Engine::from_library`]), warm ([`Engine::open`] /
//!   [`Engine::from_index`] / [`Engine::from_index_flat`]), mapped
//!   ([`Engine::open_mapped`] — the zero-copy default for serving:
//!   the `.hdx` file's bytes are searched in place), shared-table
//!   ([`Engine::from_shared`]), or bring-your-own backend
//!   ([`Engine::from_backend`]). An engine owns everything a search
//!   needs — the scoring backend, the mass-sorted candidate index, and
//!   the per-reference metadata (mass, decoy flag, peptide) — so callers
//!   never wire those pieces by hand again.
//! * [`Session`] — a **stateful query stream** over an engine.
//!   [`Session::submit`] encodes and searches one batch and accumulates
//!   its raw PSMs; [`Session::finalize`] runs target–decoy FDR once over
//!   *everything submitted*, so a client streaming K small batches gets
//!   exactly the identifications a single run over the union would
//!   produce (accumulate-then-filter, the cross-batch FDR mode the
//!   per-batch serve protocol could not express).
//!
//! Byte-for-byte equivalence with the classic
//! [`OmsPipeline`](hdoms_oms::pipeline::OmsPipeline) paths is structural,
//! not accidental: `Session` calls the same [`assemble_psms`] /
//! [`filter_fdr`] stages the pipeline calls, in the same order
//! (`crates/engine/tests/equivalence.rs` asserts the rendered PSM
//! tables are identical).
//!
//! ```
//! use hdoms_engine::{Engine, Session};
//! use hdoms_index::{IndexConfig, IndexedBackendKind};
//! use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
//! use hdoms_oms::window::PrecursorWindow;
//! use std::sync::Arc;
//!
//! let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 11);
//! let mut config = IndexConfig {
//!     entries_per_shard: 64,
//!     threads: 2,
//!     ..IndexConfig::default()
//! };
//! if let IndexedBackendKind::Exact(exact) = &mut config.kind {
//!     exact.encoder.dim = 512;
//! }
//! let engine = Arc::new(Engine::from_library(&workload.library, config));
//!
//! // Stream the queries in two batches, filter FDR once at the end.
//! let mut session = Session::new(Arc::clone(&engine), PrecursorWindow::open_default());
//! let half = workload.queries.len() / 2;
//! session.submit(&workload.queries[..half]);
//! session.submit(&workload.queries[half..]);
//! let outcome = session.finalize(0.01);
//! assert_eq!(outcome.total_queries, workload.queries.len());
//! assert!(outcome.identifications() > 0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use hdoms_index::{
    IndexBuilder, IndexConfig, IndexError, IndexReader, IndexedBackendKind, LibraryIndex,
    ShardedBackend,
};
use hdoms_ms::library::SpectralLibrary;
use hdoms_ms::preprocess::{BinnedSpectrum, PreprocessConfig, Preprocessor};
use hdoms_ms::spectrum::Spectrum;
use hdoms_obs::metrics::{Counter, Histogram, Registry};
use hdoms_obs::trace::StageTimings;
use hdoms_oms::candidates::CandidateIndex;
use hdoms_oms::fdr::{filter_fdr, FdrOutcome};
use hdoms_oms::pipeline::{assemble_psms, PipelineOutcome, ReferenceCatalog};
use hdoms_oms::psm::Psm;
use hdoms_oms::search::{
    ExactBackend, ExactBackendConfig, SearchHit, SharedReferences, SimilarityBackend,
};
use hdoms_oms::window::PrecursorWindow;
use hdoms_prefilter::{PrefilterConfig, PrefilterStats, SketchIndex};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub use hdoms_index::ShardTiming;

/// The per-reference metadata an engine needs to turn backend hits into
/// PSMs and table rows: neutral mass (precursor delta), decoy flag
/// (FDR), and peptide sequence (reports). Dense by reference id.
///
/// The peptide table is reference-counted: an engine built over a
/// [`LibraryIndex`] shares the index's cached table instead of cloning
/// every sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReferenceMeta {
    masses: Vec<f64>,
    decoys: Vec<bool>,
    peptides: Arc<[String]>,
}

impl ReferenceMeta {
    /// Capture the metadata of a raw spectral library.
    pub fn from_library(library: &SpectralLibrary) -> ReferenceMeta {
        let mut meta = ReferenceMeta::default();
        let mut peptides = Vec::with_capacity(library.len());
        for entry in library.iter() {
            meta.masses.push(entry.spectrum.neutral_mass());
            meta.decoys.push(entry.is_decoy);
            peptides.push(entry.peptide.to_string());
        }
        meta.peptides = peptides.into();
        meta
    }

    /// Capture the metadata of a loaded persistent index. The peptide
    /// table is shared with the index (one `Arc` bump), not copied.
    pub fn from_index(index: &LibraryIndex) -> ReferenceMeta {
        let n = index.entry_count();
        let mut meta = ReferenceMeta {
            masses: vec![f64::NAN; n],
            decoys: vec![false; n],
            peptides: index.peptides_by_id(),
        };
        for e in index.entries() {
            meta.masses[e.id as usize] = e.neutral_mass;
            meta.decoys[e.id as usize] = e.is_decoy;
        }
        meta
    }

    /// Number of references described.
    pub fn len(&self) -> usize {
        self.masses.len()
    }

    /// Whether the metadata is empty.
    pub fn is_empty(&self) -> bool {
        self.masses.is_empty()
    }

    /// Peptide sequences by dense reference id.
    pub fn peptides(&self) -> &[String] {
        &self.peptides
    }
}

impl ReferenceCatalog for ReferenceMeta {
    fn reference_count(&self) -> usize {
        self.masses.len()
    }

    fn reference_mass(&self, id: u32) -> Option<f64> {
        self.masses.get(id as usize).copied()
    }

    fn reference_is_decoy(&self, id: u32) -> Option<bool> {
        self.decoys.get(id as usize).copied()
    }

    fn candidate_index(&self) -> CandidateIndex {
        CandidateIndex::from_masses(
            self.masses
                .iter()
                .enumerate()
                .map(|(id, &mass)| (mass, id as u32)),
        )
    }
}

/// The scoring stage an engine drives: the shard-parallel backend for
/// index-backed engines, or any boxed [`SimilarityBackend`] otherwise.
#[allow(clippy::large_enum_variant)] // one instance per engine, never collected
enum EngineBackend {
    Sharded(ShardedBackend),
    Flat(Box<dyn SimilarityBackend + Send + Sync>),
}

impl EngineBackend {
    fn name(&self) -> String {
        match self {
            EngineBackend::Sharded(b) => b.name(),
            EngineBackend::Flat(b) => b.name(),
        }
    }

    /// Score a batch under a worker budget, returning the hits plus
    /// per-shard timings (empty for flat backends, which have no shards
    /// to time) and the prefilter stage's per-batch accounting (zeroed
    /// when `prefilter` is `None`). `workers` of `None` means "the
    /// backend's own configured parallelism" (the unscheduled paths);
    /// `Some(n)` caps the batch at `n` workers (the serve scheduler's
    /// grants). Flat backends drive their own internal parallelism and
    /// ignore the cap — the serve layer always runs sharded engines,
    /// which honour it exactly. Every path is traced: per-shard
    /// accounting is a few atomic adds per shard run, and keeping one
    /// code path is what guarantees instrumented and uninstrumented
    /// output are the same bytes.
    fn search_batch(
        &self,
        queries: &[BinnedSpectrum],
        candidates: &[Vec<u32>],
        workers: Option<usize>,
        prefilter: Option<(&SketchIndex, usize)>,
    ) -> (Vec<Option<SearchHit>>, Vec<ShardTiming>, PrefilterStats) {
        match self {
            EngineBackend::Sharded(b) => {
                b.search_batch_prefiltered(queries, candidates, workers, prefilter)
            }
            EngineBackend::Flat(b) => (
                b.search_batch(queries, candidates),
                Vec::new(),
                PrefilterStats::default(),
            ),
        }
    }

    /// Shard visits a batch of candidate lists costs (0 for flat
    /// backends, which have no shards to visit).
    fn shards_touched(&self, candidates: &[Vec<u32>]) -> usize {
        match self {
            EngineBackend::Sharded(b) => b.shards_touched(candidates),
            EngineBackend::Flat(_) => 0,
        }
    }

    /// [`EngineBackend::search_batch`] over a merged multi-request
    /// batch: query `i` belongs to group `group_of[i]`, and shard
    /// timings / prefilter stats come back per group. Queries of a
    /// group must be contiguous (the coalescing caller concatenates
    /// group by group). Sharded backends score the merged batch in one
    /// pass with per-group clocks; flat backends fall back to one call
    /// per group (they keep no per-shard or prefilter accounting
    /// either way).
    fn search_batch_grouped(
        &self,
        queries: &[BinnedSpectrum],
        candidates: &[Vec<u32>],
        workers: Option<usize>,
        prefilter: Option<(&SketchIndex, usize)>,
        group_of: &[u32],
        group_count: usize,
    ) -> (
        Vec<Option<SearchHit>>,
        Vec<Vec<ShardTiming>>,
        Vec<PrefilterStats>,
    ) {
        match self {
            EngineBackend::Sharded(b) => b.search_batch_grouped(
                queries,
                candidates,
                workers,
                prefilter,
                group_of,
                group_count,
            ),
            EngineBackend::Flat(b) => {
                let mut hits = Vec::with_capacity(queries.len());
                let mut at = 0usize;
                for group in 0..group_count as u32 {
                    let len = group_of[at..].iter().take_while(|&&g| g == group).count();
                    hits.extend(b.search_batch(&queries[at..at + len], &candidates[at..at + len]));
                    at += len;
                }
                debug_assert_eq!(at, queries.len(), "group ids must be contiguous");
                (
                    hits,
                    vec![Vec::new(); group_count],
                    vec![PrefilterStats::default(); group_count],
                )
            }
        }
    }
}

/// Registry handles an instrumented engine records into (see
/// [`Engine::attach_metrics`]). All series are shared by name across
/// engines registered with the same registry, so a server hosting many
/// indexes reports one set of pipeline series.
struct EngineMetrics {
    batches: Arc<Counter>,
    queries: Arc<Counter>,
    psms: Arc<Counter>,
    stage_encode_ms: Arc<Histogram>,
    stage_candidates_ms: Arc<Histogram>,
    stage_score_ms: Arc<Histogram>,
    stage_finalize_ms: Arc<Histogram>,
    prefilter_candidates_pre: Arc<Counter>,
    prefilter_candidates_post: Arc<Counter>,
    prefilter_sketch_ms: Arc<Histogram>,
}

impl EngineMetrics {
    fn register(registry: &Registry) -> EngineMetrics {
        EngineMetrics {
            batches: registry.counter(
                "hdoms_engine_batches_total",
                "Query batches executed by instrumented engines",
            ),
            queries: registry.counter(
                "hdoms_engine_queries_total",
                "Query spectra submitted to instrumented engines",
            ),
            psms: registry.counter(
                "hdoms_engine_psms_total",
                "Best-hit PSMs produced by instrumented engines",
            ),
            stage_encode_ms: registry.histogram(
                "hdoms_stage_encode_ms",
                "Per-batch wall-clock of the encode stage (preprocessing only; query HD encoding is timed under score)",
            ),
            stage_candidates_ms: registry.histogram(
                "hdoms_stage_candidates_ms",
                "Per-batch wall-clock of the precursor-window candidate-generation stage",
            ),
            stage_score_ms: registry.histogram(
                "hdoms_stage_score_ms",
                "Per-batch wall-clock of the shard-scoring stage (query HD encoding + associative search)",
            ),
            stage_finalize_ms: registry.histogram(
                "hdoms_stage_finalize_ms",
                "Per-finalize wall-clock of the target-decoy FDR stage",
            ),
            prefilter_candidates_pre: registry.counter(
                "hdoms_prefilter_candidates_pre_total",
                "Precursor-window candidates entering the sketch prefilter",
            ),
            prefilter_candidates_post: registry.counter(
                "hdoms_prefilter_candidates_post_total",
                "Candidates surviving the sketch prefilter into the exact scan",
            ),
            prefilter_sketch_ms: registry.histogram(
                "hdoms_prefilter_sketch_ms",
                "Per-batch wall-clock of the sketch scoring + narrowing stage",
            ),
        }
    }
}

/// A fully wired, resident query engine: scoring backend + candidate
/// index + reference metadata, constructed once and queried for the
/// lifetime of the process.
///
/// Construction subsumes every path that previously required hand
/// wiring:
///
/// | constructor | replaces |
/// |---|---|
/// | [`Engine::from_library`] | cold `ExactBackend::build` / `OmsAccelerator::build` / `HyperOmsBackend::build` + manual candidate index |
/// | [`Engine::open`] / [`Engine::from_index`] | `IndexReader::open` + `LibraryIndex::sharded_backend` + `peptides_by_id` + `candidate_index` |
/// | [`Engine::open_mapped`] | the zero-copy load: `LibraryIndex::open_mapped` + the same wiring, searching the file buffer in place |
/// | [`Engine::from_index_flat`] | `LibraryIndex::to_exact_backend` / `to_hyperoms_backend` / `to_accelerator` |
/// | [`Engine::from_shared`] | `ExactBackend::from_shared` over an existing reference table |
/// | [`Engine::from_backend`] | any custom [`SimilarityBackend`] (e.g. the baselines crate) |
///
/// Queries run through a [`Session`] (streaming, cross-batch FDR) or the
/// one-shot [`Engine::search`] convenience (per-batch FDR, the classic
/// behaviour).
pub struct Engine {
    backend: EngineBackend,
    meta: ReferenceMeta,
    candidates: CandidateIndex,
    preprocess: PreprocessConfig,
    index: Option<LibraryIndex>,
    threads: usize,
    metrics: Option<EngineMetrics>,
    prefilter: PrefilterConfig,
}

impl Engine {
    /// **Cold** construction: encode `library` with the configured
    /// backend kind, shard it by precursor mass, and wire the
    /// shard-parallel engine. The built [`LibraryIndex`] is kept (see
    /// [`Engine::index`]) so the one-time encoding can be persisted with
    /// `engine.index().unwrap().write(path)`.
    ///
    /// # Panics
    ///
    /// Panics on an empty library or invalid configuration (same
    /// contracts as [`IndexBuilder`]).
    pub fn from_library(library: &SpectralLibrary, config: IndexConfig) -> Engine {
        let threads = config.threads;
        let index = IndexBuilder::new(config).from_library(library);
        Engine::from_index(index, threads)
            .expect("an index built here always reconstructs its own kind")
    }

    /// **Warm** construction from a `.hdx` file: load, validate, and wire
    /// the shard-parallel engine. Hypervectors are materialised (the
    /// copying path); prefer [`Engine::open_mapped`] for serving.
    ///
    /// # Errors
    ///
    /// Propagates load failures ([`IndexError`]).
    pub fn open(path: &Path, threads: usize) -> Result<Engine, IndexError> {
        let index = IndexReader::with_threads(threads).open_with(path)?;
        Engine::from_index(index, threads)
    }

    /// **Mapped** construction from a `.hdx` file: the file is read (or
    /// `mmap`ed, with the index crate's `mmap` feature) into one backing
    /// buffer and searched **in place** — no per-reference hypervector
    /// is materialised, so open time and resident memory stop scaling
    /// with the encoded-library payload. Searches produce PSM tables
    /// byte-identical to [`Engine::open`] and [`Engine::from_library`]
    /// over the same references (asserted in
    /// `crates/engine/tests/equivalence.rs`).
    ///
    /// This is the default path for `hdoms serve` and
    /// `hdoms search --index`. A v1-format file loads through the
    /// copying fallback automatically.
    ///
    /// # Errors
    ///
    /// Propagates load failures ([`IndexError`]).
    pub fn open_mapped(path: &Path, threads: usize) -> Result<Engine, IndexError> {
        let index = IndexReader::with_threads(threads).open_mapped_with(path)?;
        Engine::from_index(index, threads)
    }

    /// **Warm** construction from an already-loaded index, with the
    /// shard-parallel backend. The engine and the index share one copy
    /// of the encoded library (see [`LibraryIndex::shared_references`]).
    ///
    /// # Errors
    ///
    /// Fails when the index cannot reconstruct its backend kind.
    pub fn from_index(index: LibraryIndex, threads: usize) -> Result<Engine, IndexError> {
        let backend = index.sharded_backend(threads)?;
        let meta = ReferenceMeta::from_index(&index);
        let candidates = index.candidate_index();
        Ok(Engine {
            backend: EngineBackend::Sharded(backend),
            meta,
            candidates,
            preprocess: index.kind().preprocess(),
            index: Some(index),
            threads: threads.max(1),
            metrics: None,
            prefilter: PrefilterConfig::Off,
        })
    }

    /// Like [`Engine::from_index`] but with the **flat** (unsharded)
    /// backend of the index's kind — the `search --sharded false` mode,
    /// kept for apples-to-apples comparisons against the sharded walk.
    ///
    /// # Errors
    ///
    /// Fails when the index cannot reconstruct its backend kind.
    pub fn from_index_flat(index: LibraryIndex, threads: usize) -> Result<Engine, IndexError> {
        let backend: Box<dyn SimilarityBackend + Send + Sync> = match index.kind() {
            IndexedBackendKind::Exact(_) => Box::new(index.to_exact_backend(threads)?),
            IndexedBackendKind::HyperOms(_) => Box::new(index.to_hyperoms_backend(threads)?),
            IndexedBackendKind::Rram(_) => Box::new(index.to_accelerator(threads)?),
        };
        let meta = ReferenceMeta::from_index(&index);
        let candidates = index.candidate_index();
        Ok(Engine {
            backend: EngineBackend::Flat(backend),
            meta,
            candidates,
            preprocess: index.kind().preprocess(),
            index: Some(index),
            threads: threads.max(1),
            metrics: None,
            prefilter: PrefilterConfig::Off,
        })
    }

    /// Construction over an **existing shared reference table**: the
    /// engine holds another `Arc` handle to `references` instead of a
    /// copy (the `ExactBackend::from_shared` path, with the candidate
    /// index and catalog wiring done here instead of by the caller).
    ///
    /// # Panics
    ///
    /// Panics if `references` and `meta` disagree in length or a stored
    /// hypervector's dimension disagrees with the encoder configuration.
    pub fn from_shared(
        config: ExactBackendConfig,
        references: SharedReferences,
        meta: ReferenceMeta,
        threads: usize,
    ) -> Engine {
        assert_eq!(
            references.len(),
            meta.len(),
            "reference table and metadata must describe the same references"
        );
        let preprocess = config.preprocess;
        let backend = ExactBackend::from_shared(config, references);
        let candidates = meta.candidate_index();
        Engine {
            backend: EngineBackend::Flat(Box::new(backend)),
            meta,
            candidates,
            preprocess,
            index: None,
            threads: threads.max(1),
            metrics: None,
            prefilter: PrefilterConfig::Off,
        }
    }

    /// Construction over **any** scoring backend (the escape hatch for
    /// backends without an index kind, e.g. the ANN-SoLo baseline).
    /// `preprocess` must match the configuration the backend's references
    /// were preprocessed with.
    ///
    /// # Panics
    ///
    /// Panics on empty metadata.
    pub fn from_backend(
        backend: Box<dyn SimilarityBackend + Send + Sync>,
        preprocess: PreprocessConfig,
        meta: ReferenceMeta,
        threads: usize,
    ) -> Engine {
        assert!(!meta.is_empty(), "an engine needs at least one reference");
        let candidates = meta.candidate_index();
        Engine {
            backend: EngineBackend::Flat(backend),
            meta,
            candidates,
            preprocess,
            index: None,
            threads: threads.max(1),
            metrics: None,
            prefilter: PrefilterConfig::Off,
        }
    }

    /// The loaded/built persistent index, for engines that have one
    /// (cold and warm constructions; `None` for [`Engine::from_shared`]
    /// and [`Engine::from_backend`]).
    pub fn index(&self) -> Option<&LibraryIndex> {
        self.index.as_ref()
    }

    /// The engine's default candidate-prefilter configuration (see
    /// [`Engine::set_prefilter`]). New [`Session`]s start from this;
    /// per-batch overrides go through
    /// [`Engine::search_with_workers_opts`] or [`Session::set_prefilter`].
    pub fn prefilter(&self) -> PrefilterConfig {
        self.prefilter
    }

    /// Set the engine's default candidate-prefilter: `Off` scans every
    /// precursor-window candidate exactly (today's behaviour, the
    /// byte-identity contract), `TopK(k)` scores folded-hypervector
    /// sketches first and forwards only the best `k` candidates per
    /// query to the exact scan. Enabling the prefilter eagerly builds
    /// (or, on a v3 `.hdx` load, reuses) the index's sketch table so the
    /// first query pays no derivation cost.
    ///
    /// # Errors
    ///
    /// `TopK` requires an index-backed engine on the sharded backend
    /// (flat backends exist for apples-to-apples scans of the full
    /// candidate list); `Off` always succeeds.
    pub fn set_prefilter(&mut self, config: PrefilterConfig) -> Result<(), String> {
        if !config.is_off() {
            self.validate_prefilter()?;
            // Force the sketch build now (a no-op when the `.hdx` v3
            // section was loaded) so queries never pay it.
            self.index
                .as_ref()
                .expect("validated index-backed")
                .sketch_index();
        }
        self.prefilter = config;
        Ok(())
    }

    /// Check that this engine can run a `TopK` prefilter.
    fn validate_prefilter(&self) -> Result<(), String> {
        if !matches!(self.backend, EngineBackend::Sharded(_)) {
            return Err(
                "the prefilter requires the sharded backend (flat backends exist to scan the full candidate list)"
                    .to_owned(),
            );
        }
        if self.index.is_none() {
            return Err("the prefilter requires an index-backed engine".to_owned());
        }
        Ok(())
    }

    /// Resolve a prefilter configuration into the sketch handle the
    /// backend scores with. `Off` resolves to `None`; `TopK` fetches the
    /// index's cached sketch (built at [`Engine::set_prefilter`] /
    /// [`Session::set_prefilter`] time).
    fn resolve_prefilter(&self, config: PrefilterConfig) -> Option<(Arc<SketchIndex>, usize)> {
        let k = config.top_k()?;
        let index = self
            .index
            .as_ref()
            .expect("TopK prefilter is validated at set time");
        Some((index.sketch_index(), k))
    }

    /// The name of the distance kernel this process scores with
    /// (`"scalar"`, `"avx2"`, or `"avx512-vpopcntdq"` — resolved from
    /// the CPU and the `HDOMS_KERNEL` override). Kernel choice never
    /// changes output bytes, so this is a performance fact, not a
    /// correctness one; it is surfaced in the serve `serve.start` log
    /// event so operators can see which inner loop a box runs.
    pub fn kernel_name(&self) -> &'static str {
        hdoms_hdc::kernels::active().name()
    }

    /// The scoring backend's report name.
    pub fn backend_name(&self) -> String {
        self.backend.name()
    }

    /// The preprocessing configuration queries are run through (always
    /// equal to what the references were encoded with).
    pub fn preprocess(&self) -> PreprocessConfig {
        self.preprocess
    }

    /// Number of references the engine searches over.
    pub fn reference_count(&self) -> usize {
        self.meta.len()
    }

    /// Peptide sequences by dense reference id (for PSM tables).
    pub fn peptides(&self) -> &[String] {
        self.meta.peptides()
    }

    /// The reference metadata (a [`ReferenceCatalog`]).
    pub fn meta(&self) -> &ReferenceMeta {
        &self.meta
    }

    /// Worker threads the engine was wired for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Register this engine's observability series with `registry` and
    /// start recording into them: batch/query/PSM counters, the four
    /// per-stage latency histograms (`hdoms_stage_{encode,candidates,
    /// score,finalize}_ms`), and — on sharded engines — the backend's
    /// per-shard-visit series. Call before wrapping the engine in an
    /// `Arc` (the server does this for every resident engine).
    ///
    /// Instrumentation is observational only: an engine with metrics
    /// attached produces byte-identical PSM tables to one without
    /// (asserted in `crates/engine/tests/equivalence.rs`). Series are
    /// shared by name, so many engines on one registry report together.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        if let EngineBackend::Sharded(backend) = &mut self.backend {
            backend.attach_metrics(registry);
        }
        self.metrics = Some(EngineMetrics::register(registry));
    }

    /// Open a query session (shorthand for [`Session::new`]).
    ///
    /// # Panics
    ///
    /// Panics on an invalid window.
    pub fn session(self: &Arc<Self>, window: PrecursorWindow) -> Session {
        Session::new(Arc::clone(self), window)
    }

    /// One-shot search with **per-batch** FDR — the classic
    /// `OmsPipeline::run_catalog` behaviour (and what keeps the serve
    /// protocol's `query` verb byte-identical to a local
    /// `search --index`). Equivalent to one [`Session::submit`] followed
    /// by [`Session::finalize`].
    ///
    /// # Panics
    ///
    /// Panics on an invalid window or FDR level.
    pub fn search(
        self: &Arc<Self>,
        spectra: &[Spectrum],
        window: PrecursorWindow,
        alpha: f64,
    ) -> (PipelineOutcome, BatchReceipt) {
        let mut session = self.session(window);
        let mut receipt = session.submit(spectra);
        let (outcome, finalize_ms) = session.finalize_traced(alpha);
        receipt.stages.finalize_ms = finalize_ms;
        (outcome, receipt)
    }

    /// [`Engine::search`] under an explicit worker budget: the batch
    /// uses at most `workers` threads instead of the engine's configured
    /// parallelism. This is the entry point the serve layer's scheduler
    /// drives — each admitted batch runs with exactly the budget it was
    /// granted, so concurrent batches never oversubscribe the machine.
    /// PSM tables are byte-identical across budgets (scoring is
    /// deterministic and order-preserving).
    ///
    /// # Panics
    ///
    /// Panics on an invalid window or FDR level.
    pub fn search_with_workers(
        self: &Arc<Self>,
        spectra: &[Spectrum],
        window: PrecursorWindow,
        alpha: f64,
        workers: usize,
    ) -> (PipelineOutcome, BatchReceipt) {
        self.search_with_workers_opts(spectra, window, alpha, workers, None)
            .expect("no per-batch prefilter override to validate")
    }

    /// [`Engine::search_with_workers`] with a per-batch prefilter
    /// override: `Some(config)` runs this batch under `config` instead
    /// of the engine's default (the serve protocol's per-request
    /// `prefilter` option routes here), `None` uses the default.
    ///
    /// # Errors
    ///
    /// Fails when the override is `TopK` on an engine that cannot
    /// prefilter (see [`Engine::set_prefilter`]).
    ///
    /// # Panics
    ///
    /// Panics on an invalid window or FDR level.
    pub fn search_with_workers_opts(
        self: &Arc<Self>,
        spectra: &[Spectrum],
        window: PrecursorWindow,
        alpha: f64,
        workers: usize,
        prefilter: Option<PrefilterConfig>,
    ) -> Result<(PipelineOutcome, BatchReceipt), String> {
        let mut session = self.session(window);
        if let Some(config) = prefilter {
            session.set_prefilter(config)?;
        }
        let mut receipt = session.submit_with_workers(spectra, workers);
        let (outcome, finalize_ms) = session.finalize_traced(alpha);
        receipt.stages.finalize_ms = finalize_ms;
        Ok((outcome, receipt))
    }

    /// Execute several independent requests as **one merged scoring
    /// batch** and split the results back out per request — the
    /// cross-request coalescing seam the serve layer drives.
    ///
    /// Group `g` of the result is byte-identical (PSMs, threshold,
    /// identifications, candidate counts) to
    /// [`Engine::search_with_workers_opts`] over `groups[g]` alone:
    /// preprocessing and candidate generation run per group on the
    /// group's own spectra, per-query scoring is independent of batch
    /// composition, the backend's per-group clocks keep shard and
    /// prefilter accounting exact, and FDR is filtered per group over
    /// that group's own PSMs. Only wall-clock figures differ from an
    /// uncoalesced run: the merged scoring stage's time is apportioned
    /// across groups by binned-query count, and each receipt's
    /// `latency_ms` is its stage sum.
    ///
    /// Each group counts as one engine batch in the attached metrics
    /// (one observation per group in every stage histogram), so
    /// registry reconciliation against per-request receipts holds
    /// whether or not requests were coalesced.
    ///
    /// # Errors
    ///
    /// Fails when the prefilter override is `TopK` on an engine that
    /// cannot prefilter (see [`Engine::set_prefilter`]).
    ///
    /// # Panics
    ///
    /// Panics on an invalid window or FDR level.
    pub fn search_groups(
        self: &Arc<Self>,
        groups: &[&[Spectrum]],
        window: PrecursorWindow,
        alpha: f64,
        workers: usize,
        prefilter: Option<PrefilterConfig>,
    ) -> Result<Vec<(PipelineOutcome, BatchReceipt)>, String> {
        window.validate();
        assert!(alpha > 0.0 && alpha < 1.0, "FDR level must be in (0, 1)");
        let config = prefilter.unwrap_or(self.prefilter);
        if !config.is_off() {
            self.validate_prefilter()?;
            self.index
                .as_ref()
                .expect("validated index-backed")
                .sketch_index();
        }
        let narrowing = self.resolve_prefilter(config);

        // Per-group preprocess + candidate generation: identical inputs
        // to what each request would produce alone, concatenated group
        // by group so the merged batch stays group-contiguous.
        struct GroupPrep {
            start: usize,
            len: usize,
            rejected: usize,
            encode_ms: f64,
            candidates_ms: f64,
        }
        let pre = Preprocessor::new(self.preprocess);
        let mut merged_binned: Vec<BinnedSpectrum> = Vec::new();
        let mut merged_cands: Vec<Vec<u32>> = Vec::new();
        let mut preps: Vec<GroupPrep> = Vec::with_capacity(groups.len());
        for spectra in groups {
            let ((mut binned, rejected), encode_ms) =
                hdoms_obs::trace::timed(|| pre.run_batch(spectra));
            let (mut cands, candidates_ms) = hdoms_obs::trace::timed(|| {
                hdoms_oms::search::candidate_lists(&self.candidates, &window, &binned)
            });
            let start = merged_binned.len();
            let len = binned.len();
            merged_binned.append(&mut binned);
            merged_cands.append(&mut cands);
            preps.push(GroupPrep {
                start,
                len,
                rejected,
                encode_ms,
                candidates_ms,
            });
        }
        let group_of: Vec<u32> = preps
            .iter()
            .enumerate()
            .flat_map(|(g, p)| std::iter::repeat_n(g as u32, p.len))
            .collect();
        let total_binned = merged_binned.len();

        // One scoring pass over the merged batch; accounting splits by
        // group inside the backend.
        let ((hits, mut group_timings, group_stats), score_ms) = hdoms_obs::trace::timed(|| {
            self.backend.search_batch_grouped(
                &merged_binned,
                &merged_cands,
                Some(workers.max(1)),
                narrowing.as_ref().map(|(sketch, k)| (sketch.as_ref(), *k)),
                &group_of,
                groups.len().max(1),
            )
        });

        let mut results = Vec::with_capacity(groups.len());
        for (g, prep) in preps.iter().enumerate() {
            let range = prep.start..prep.start + prep.len;
            let binned_g = &merged_binned[range.clone()];
            let hits_g = &hits[range.clone()];
            let cands_g = &merged_cands[range];
            let psms = assemble_psms(binned_g, hits_g, &self.meta);
            let batch_psms = psms.len();
            let window_candidates: usize = cands_g.iter().map(Vec::len).sum();
            let (candidates_scored, candidates_pre, shards_touched, sketch_ms) =
                if narrowing.is_none() {
                    let shards = self.backend.shards_touched(cands_g);
                    (window_candidates, window_candidates, shards, 0.0)
                } else {
                    let stats = &group_stats[g];
                    let shards: u64 = group_timings[g].iter().map(|t| t.visits).sum();
                    (
                        stats.candidates_post as usize,
                        stats.candidates_pre as usize,
                        shards as usize,
                        stats.sketch_ms,
                    )
                };
            // The merged scoring pass's wall-clock, apportioned by how
            // much of the batch each group contributed (time is not
            // part of the identity contract; counts above are exact).
            let score_share = if total_binned == 0 {
                score_ms / groups.len().max(1) as f64
            } else {
                score_ms * prep.len as f64 / total_binned as f64
            };
            let (
                FdrOutcome {
                    accepted,
                    threshold_score,
                    decoys_above,
                    ..
                },
                finalize_ms,
            ) = hdoms_obs::trace::timed(|| filter_fdr(&psms, alpha));
            if let Some(metrics) = &self.metrics {
                metrics.batches.inc();
                metrics.queries.add(groups[g].len() as u64);
                metrics.psms.add(batch_psms as u64);
                metrics.stage_encode_ms.record_ms(prep.encode_ms);
                metrics.stage_candidates_ms.record_ms(prep.candidates_ms);
                metrics.stage_score_ms.record_ms(score_share);
                metrics.stage_finalize_ms.record_ms(finalize_ms);
                if narrowing.is_some() {
                    metrics.prefilter_candidates_pre.add(candidates_pre as u64);
                    metrics
                        .prefilter_candidates_post
                        .add(candidates_scored as u64);
                    metrics.prefilter_sketch_ms.record_ms(sketch_ms);
                }
            }
            let stages = StageTimings {
                encode_ms: prep.encode_ms,
                candidates_ms: prep.candidates_ms,
                score_ms: score_share,
                finalize_ms,
            };
            let mean_candidates = if prep.len == 0 {
                0.0
            } else {
                candidates_scored as f64 / prep.len as f64
            };
            let receipt = BatchReceipt {
                batch: 1,
                queries: groups[g].len(),
                rejected_queries: prep.rejected,
                psms: batch_psms,
                total_psms: batch_psms,
                candidates_scored,
                candidates_pre,
                candidates_post: candidates_scored,
                sketch_ms,
                shards_touched,
                latency_ms: stages.encode_ms + stages.candidates_ms + score_share + finalize_ms,
                stages,
                shard_timings: std::mem::take(&mut group_timings[g]),
            };
            let outcome = PipelineOutcome {
                backend_name: self.backend.name(),
                psms,
                accepted,
                threshold_score,
                decoys_above,
                rejected_queries: prep.rejected,
                total_queries: groups[g].len(),
                mean_candidates,
            };
            results.push((outcome, receipt));
        }
        Ok(results)
    }
}

/// What one [`Session::submit`] did: per-batch counts plus the session's
/// running totals, with the batch's span decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReceipt {
    /// 1-based ordinal of this batch within the session.
    pub batch: usize,
    /// Queries in this batch.
    pub queries: usize,
    /// Queries of this batch dropped by preprocessing (too few peaks).
    pub rejected_queries: usize,
    /// Best-hit PSMs this batch produced.
    pub psms: usize,
    /// Raw PSMs accumulated across the whole session so far.
    pub total_psms: usize,
    /// Candidate references scored in this batch.
    pub candidates_scored: usize,
    /// Precursor-window candidates this batch generated, before any
    /// prefilter narrowing. Equals `candidates_scored` when the
    /// prefilter is off.
    pub candidates_pre: usize,
    /// Candidates forwarded to the exact scan after prefilter narrowing
    /// (always equals `candidates_scored`).
    pub candidates_post: usize,
    /// Wall-clock spent scoring sketches and narrowing, milliseconds
    /// (0 when the prefilter is off).
    pub sketch_ms: f64,
    /// Shard visits this batch cost (0 on unsharded engines).
    pub shards_touched: usize,
    /// Wall-clock time spent on this batch, milliseconds.
    pub latency_ms: f64,
    /// The batch's wall-clock decomposed into pipeline stages
    /// (`finalize_ms` is 0 on a submit receipt; the one-shot
    /// [`Engine::search`] paths fill it in after finalizing).
    pub stages: StageTimings,
    /// Wall-clock per shard this batch's scoring visited (empty on
    /// unsharded engines), sorted by shard position.
    pub shard_timings: Vec<ShardTiming>,
}

/// A stateful query stream over an [`Engine`]: submit any number of
/// batches, then filter FDR **once** over everything submitted.
///
/// Submitting the same spectra in one batch or many and finalizing
/// yields identical outcomes — the receipt-by-receipt accumulation feeds
/// the exact inputs a single concatenated run would feed to
/// [`filter_fdr`]. Query ids should be unique across the session's
/// batches (duplicate ids make the `accepted` table flag ambiguous,
/// exactly as they would inside one batch).
pub struct Session {
    engine: Arc<Engine>,
    window: PrecursorWindow,
    prefilter: PrefilterConfig,
    psms: Vec<Psm>,
    batches: usize,
    total_queries: usize,
    rejected_queries: usize,
    binned_queries: usize,
    candidates_scored: usize,
    candidates_pre: usize,
    candidates_post: usize,
    sketch_ms: f64,
    shards_touched: usize,
    latency_ms: f64,
    stages: StageTimings,
}

impl Session {
    /// Open a session searching under `window`.
    ///
    /// # Panics
    ///
    /// Panics on an invalid window.
    pub fn new(engine: Arc<Engine>, window: PrecursorWindow) -> Session {
        window.validate();
        let prefilter = engine.prefilter();
        Session {
            engine,
            window,
            prefilter,
            psms: Vec::new(),
            batches: 0,
            total_queries: 0,
            rejected_queries: 0,
            binned_queries: 0,
            candidates_scored: 0,
            candidates_pre: 0,
            candidates_post: 0,
            sketch_ms: 0.0,
            shards_touched: 0,
            latency_ms: 0.0,
            stages: StageTimings::default(),
        }
    }

    /// The prefilter configuration this session's submits run under
    /// (starts as the engine's default).
    pub fn prefilter(&self) -> PrefilterConfig {
        self.prefilter
    }

    /// Override the prefilter for this session's *subsequent* submits
    /// (already-submitted batches keep their accounting). The serve
    /// layer routes the protocol's per-batch `prefilter` option here.
    ///
    /// # Errors
    ///
    /// Fails when `config` is `TopK` on an engine that cannot prefilter
    /// (see [`Engine::set_prefilter`]).
    pub fn set_prefilter(&mut self, config: PrefilterConfig) -> Result<(), String> {
        if !config.is_off() {
            self.engine.validate_prefilter()?;
            self.engine
                .index
                .as_ref()
                .expect("validated index-backed")
                .sketch_index();
        }
        self.prefilter = config;
        Ok(())
    }

    /// The engine this session queries.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The session's precursor window.
    pub fn window(&self) -> &PrecursorWindow {
        &self.window
    }

    /// Batches submitted so far.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Queries submitted so far (before preprocessing).
    pub fn total_queries(&self) -> usize {
        self.total_queries
    }

    /// Raw PSMs accumulated so far.
    pub fn psm_count(&self) -> usize {
        self.psms.len()
    }

    /// Candidate references scored so far.
    pub fn candidates_scored(&self) -> usize {
        self.candidates_scored
    }

    /// Precursor-window candidates generated so far, before prefilter
    /// narrowing (equals [`Session::candidates_scored`] when the
    /// prefilter is off).
    pub fn candidates_pre(&self) -> usize {
        self.candidates_pre
    }

    /// Candidates forwarded to the exact scan so far (always equals
    /// [`Session::candidates_scored`]).
    pub fn candidates_post(&self) -> usize {
        self.candidates_post
    }

    /// Wall-clock milliseconds spent in the sketch prefilter so far.
    pub fn sketch_ms(&self) -> f64 {
        self.sketch_ms
    }

    /// Shard visits so far (0 on unsharded engines).
    pub fn shards_touched(&self) -> usize {
        self.shards_touched
    }

    /// Wall-clock milliseconds spent in [`Session::submit`] so far.
    pub fn latency_ms(&self) -> f64 {
        self.latency_ms
    }

    /// Per-stage wall-clock accumulated across every submitted batch
    /// (`finalize_ms` stays 0 until [`Session::finalize_traced`] runs —
    /// which consumes the session, so this accessor reports the submit
    /// stages only).
    pub fn stage_timings(&self) -> StageTimings {
        self.stages
    }

    /// Encode, search, and accumulate one batch of query spectra. No FDR
    /// filtering happens here — raw PSMs collect until
    /// [`Session::finalize`].
    pub fn submit(&mut self, spectra: &[Spectrum]) -> BatchReceipt {
        self.submit_inner(spectra, None)
    }

    /// [`Session::submit`] under an explicit worker budget: this batch
    /// uses at most `workers` threads (`1` runs it entirely on the
    /// calling thread), whatever parallelism the engine was constructed
    /// with. The serve layer's scheduler calls this with each admitted
    /// batch's granted budget; accumulated PSMs — and therefore the
    /// finalized table — are byte-identical across budgets.
    pub fn submit_with_workers(&mut self, spectra: &[Spectrum], workers: usize) -> BatchReceipt {
        self.submit_inner(spectra, Some(workers.max(1)))
    }

    fn submit_inner(&mut self, spectra: &[Spectrum], workers: Option<usize>) -> BatchReceipt {
        let start = Instant::now();
        // The span decomposition: each stage is timed where it runs, so
        // the per-stage figures in receipts, `BatchStats`, and the
        // `hdoms_stage_*_ms` histograms all come from one measurement.
        let pre = Preprocessor::new(self.engine.preprocess);
        let ((binned, rejected), encode_ms) = hdoms_obs::trace::timed(|| pre.run_batch(spectra));
        let (cands, candidates_ms) = hdoms_obs::trace::timed(|| {
            hdoms_oms::search::candidate_lists(&self.engine.candidates, &self.window, &binned)
        });
        let narrowing = self.engine.resolve_prefilter(self.prefilter);
        let ((hits, shard_timings, prefilter_stats), score_ms) = hdoms_obs::trace::timed(|| {
            self.engine.backend.search_batch(
                &binned,
                &cands,
                workers,
                narrowing.as_ref().map(|(sketch, k)| (sketch.as_ref(), *k)),
            )
        });
        let psms = assemble_psms(&binned, &hits, &self.engine.meta);
        // With the prefilter off, accounting is computed exactly as it
        // always was (the byte-identity contract covers receipts too).
        // With it on, the exact scan saw only the narrowed lists, so
        // `candidates_scored` comes from the prefilter clock and shard
        // visits from the traced per-shard timings.
        let window_candidates: usize = cands.iter().map(Vec::len).sum();
        let (candidates_scored, candidates_pre, shards_touched, sketch_ms) = if narrowing.is_none()
        {
            let shards = self.engine.backend.shards_touched(&cands);
            (window_candidates, window_candidates, shards, 0.0)
        } else {
            let shards: u64 = shard_timings.iter().map(|t| t.visits).sum();
            (
                prefilter_stats.candidates_post as usize,
                prefilter_stats.candidates_pre as usize,
                shards as usize,
                prefilter_stats.sketch_ms,
            )
        };
        let latency_ms = start.elapsed().as_secs_f64() * 1e3;
        let stages = StageTimings {
            encode_ms,
            candidates_ms,
            score_ms,
            finalize_ms: 0.0,
        };

        self.batches += 1;
        self.total_queries += spectra.len();
        self.rejected_queries += rejected;
        self.binned_queries += binned.len();
        self.candidates_scored += candidates_scored;
        self.candidates_pre += candidates_pre;
        self.candidates_post += candidates_scored;
        self.sketch_ms += sketch_ms;
        self.shards_touched += shards_touched;
        self.latency_ms += latency_ms;
        self.stages.accumulate(&stages);
        let batch_psms = psms.len();
        self.psms.extend(psms);

        if let Some(metrics) = &self.engine.metrics {
            metrics.batches.inc();
            metrics.queries.add(spectra.len() as u64);
            metrics.psms.add(batch_psms as u64);
            metrics.stage_encode_ms.record_ms(encode_ms);
            metrics.stage_candidates_ms.record_ms(candidates_ms);
            metrics.stage_score_ms.record_ms(score_ms);
            if narrowing.is_some() {
                metrics.prefilter_candidates_pre.add(candidates_pre as u64);
                metrics
                    .prefilter_candidates_post
                    .add(candidates_scored as u64);
                metrics.prefilter_sketch_ms.record_ms(sketch_ms);
            }
        }

        BatchReceipt {
            batch: self.batches,
            queries: spectra.len(),
            rejected_queries: rejected,
            psms: batch_psms,
            total_psms: self.psms.len(),
            candidates_scored,
            candidates_pre,
            candidates_post: candidates_scored,
            sketch_ms,
            shards_touched,
            latency_ms,
            stages,
            shard_timings,
        }
    }

    /// Filter FDR at `alpha` over **all** PSMs submitted so far and close
    /// the session. The outcome's totals cover the whole session; its
    /// PSM list is the concatenation of every batch's PSMs in submission
    /// order — identical to what one submit of the concatenated spectra
    /// would have produced.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    pub fn finalize(self, alpha: f64) -> PipelineOutcome {
        self.finalize_traced(alpha).0
    }

    /// [`Session::finalize`], additionally reporting the wall-clock the
    /// FDR stage took (milliseconds) — the `finalize` span the serve
    /// layer surfaces in its stats and the `hdoms_stage_finalize_ms`
    /// histogram records.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    pub fn finalize_traced(self, alpha: f64) -> (PipelineOutcome, f64) {
        assert!(alpha > 0.0 && alpha < 1.0, "FDR level must be in (0, 1)");
        let (
            FdrOutcome {
                accepted,
                threshold_score,
                decoys_above,
                ..
            },
            finalize_ms,
        ) = hdoms_obs::trace::timed(|| filter_fdr(&self.psms, alpha));
        if let Some(metrics) = &self.engine.metrics {
            metrics.stage_finalize_ms.record_ms(finalize_ms);
        }
        let mean_candidates = if self.binned_queries == 0 {
            0.0
        } else {
            self.candidates_scored as f64 / self.binned_queries as f64
        };
        (
            PipelineOutcome {
                backend_name: self.engine.backend.name(),
                psms: self.psms,
                accepted,
                threshold_score,
                decoys_above,
                rejected_queries: self.rejected_queries,
                total_queries: self.total_queries,
                mean_candidates,
            },
            finalize_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};

    fn tiny_engine(seed: u64) -> (SyntheticWorkload, Arc<Engine>) {
        let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), seed);
        let mut config = IndexConfig {
            entries_per_shard: 64,
            threads: 4,
            ..IndexConfig::default()
        };
        if let IndexedBackendKind::Exact(exact) = &mut config.kind {
            exact.encoder.dim = 2048;
        }
        let engine = Arc::new(Engine::from_library(&workload.library, config));
        (workload, engine)
    }

    #[test]
    fn engine_keeps_its_index_and_metadata() {
        let (workload, engine) = tiny_engine(21);
        assert_eq!(engine.reference_count(), workload.library.len());
        assert_eq!(engine.peptides().len(), workload.library.len());
        let index = engine.index().expect("cold build keeps the index");
        assert_eq!(index.entry_count(), workload.library.len());
        assert!(engine.backend_name().starts_with("sharded("));
    }

    #[test]
    fn receipts_account_for_every_batch() {
        let (workload, engine) = tiny_engine(22);
        let mut session = engine.session(PrecursorWindow::open_default());
        let half = workload.queries.len() / 2;
        let first = session.submit(&workload.queries[..half]);
        let second = session.submit(&workload.queries[half..]);
        assert_eq!(first.batch, 1);
        assert_eq!(second.batch, 2);
        assert_eq!(first.queries + second.queries, workload.queries.len());
        assert_eq!(second.total_psms, first.psms + second.psms);
        assert!(first.candidates_scored > 0);
        assert!(first.shards_touched > 0);
        assert_eq!(session.batches(), 2);
        let outcome = session.finalize(0.01);
        assert_eq!(outcome.total_queries, workload.queries.len());
        assert_eq!(outcome.psms.len(), first.psms + second.psms);
    }

    #[test]
    fn empty_session_finalizes_cleanly() {
        let (_, engine) = tiny_engine(23);
        let session = engine.session(PrecursorWindow::open_default());
        let outcome = session.finalize(0.01);
        assert_eq!(outcome.total_queries, 0);
        assert_eq!(outcome.identifications(), 0);
        assert_eq!(outcome.threshold_score, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "FDR level")]
    fn finalize_rejects_bad_alpha() {
        let (_, engine) = tiny_engine(24);
        let session = engine.session(PrecursorWindow::open_default());
        let _ = session.finalize(1.0);
    }

    #[test]
    fn budgeted_search_is_byte_identical_across_worker_counts() {
        let (workload, engine) = tiny_engine(26);
        let (full, _) = engine.search(&workload.queries, PrecursorWindow::open_default(), 0.01);
        for workers in [1, 2, 3, 7] {
            let (budgeted, receipt) = engine.search_with_workers(
                &workload.queries,
                PrecursorWindow::open_default(),
                0.01,
                workers,
            );
            assert_eq!(
                budgeted.psms, full.psms,
                "worker budget {workers} changed the PSMs"
            );
            assert_eq!(budgeted.threshold_score, full.threshold_score);
            assert_eq!(receipt.queries, workload.queries.len());
        }
    }

    #[test]
    fn grouped_search_matches_individual_searches_exactly() {
        // The coalescing contract: merging requests into one scoring
        // batch must not change any request's output or deterministic
        // accounting — with the prefilter off and on.
        let (workload, mut engine) = {
            let (w, e) = tiny_engine(27);
            (w, Arc::try_unwrap(e).ok().expect("sole handle"))
        };
        engine.set_prefilter(PrefilterConfig::Off).unwrap();
        let engine = Arc::new(engine);
        let n = workload.queries.len();
        let groups: Vec<&[Spectrum]> = vec![
            &workload.queries[..n / 3],
            &workload.queries[n / 3..2 * n / 3],
            &workload.queries[2 * n / 3..],
        ];
        for prefilter in [None, Some(PrefilterConfig::TopK(16))] {
            let merged = engine
                .search_groups(&groups, PrecursorWindow::open_default(), 0.01, 2, prefilter)
                .expect("groups searched");
            assert_eq!(merged.len(), groups.len());
            for (g, (outcome, receipt)) in merged.iter().enumerate() {
                let (solo, solo_receipt) = engine
                    .search_with_workers_opts(
                        groups[g],
                        PrecursorWindow::open_default(),
                        0.01,
                        2,
                        prefilter,
                    )
                    .expect("solo search");
                assert_eq!(outcome.psms, solo.psms, "group {g} PSMs diverged");
                assert_eq!(outcome.accepted, solo.accepted);
                assert_eq!(outcome.threshold_score, solo.threshold_score);
                assert_eq!(outcome.decoys_above, solo.decoys_above);
                assert_eq!(outcome.total_queries, solo.total_queries);
                assert_eq!(outcome.mean_candidates, solo.mean_candidates);
                assert_eq!(receipt.queries, solo_receipt.queries);
                assert_eq!(receipt.psms, solo_receipt.psms);
                assert_eq!(receipt.candidates_pre, solo_receipt.candidates_pre);
                assert_eq!(receipt.candidates_post, solo_receipt.candidates_post);
                assert_eq!(receipt.candidates_scored, solo_receipt.candidates_scored);
                assert_eq!(receipt.shards_touched, solo_receipt.shards_touched);
            }
        }
    }

    #[test]
    fn from_shared_reuses_the_reference_table() {
        let (workload, engine) = tiny_engine(25);
        let index = engine.index().expect("index-backed");
        let IndexedBackendKind::Exact(config) = index.kind() else {
            panic!("tiny engine is exact")
        };
        let shared = Engine::from_shared(
            *config,
            index.shared_references().clone(),
            ReferenceMeta::from_index(index),
            2,
        );
        assert_eq!(shared.reference_count(), workload.library.len());
        let shared = Arc::new(shared);
        let (outcome, _) = shared.search(&workload.queries, PrecursorWindow::open_default(), 0.01);
        let (sharded_outcome, _) =
            engine.search(&workload.queries, PrecursorWindow::open_default(), 0.01);
        // Same scores through the flat shared-table engine as through the
        // sharded one (sharding never changes scores).
        assert_eq!(outcome.psms, sharded_outcome.psms);
    }
}
