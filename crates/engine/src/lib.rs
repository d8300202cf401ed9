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

    /// Score a batch of request groups under a worker budget:
    /// `group_sizes` splits the queries into consecutive groups, and
    /// shard timings / prefilter stats come back per group (zeroed when
    /// `prefilter` is `None`). Sharded backends score the merged batch
    /// in one pass with per-group clocks and honour `workers` exactly.
    /// Flat backends run one call per group under their own internal
    /// parallelism and keep no shard or prefilter accounting (the serve
    /// layer always runs sharded engines).
    fn search(
        &self,
        queries: &[BinnedSpectrum],
        candidates: &[Vec<u32>],
        workers: usize,
        prefilter: Option<(&SketchIndex, usize)>,
        group_sizes: &[usize],
    ) -> (
        Vec<Option<SearchHit>>,
        Vec<Vec<ShardTiming>>,
        Vec<PrefilterStats>,
    ) {
        match self {
            EngineBackend::Sharded(b) => {
                b.search(queries, candidates, workers, prefilter, group_sizes)
            }
            EngineBackend::Flat(b) => {
                let mut hits = Vec::with_capacity(queries.len());
                let mut at = 0usize;
                for &len in group_sizes {
                    hits.extend(b.search_batch(&queries[at..at + len], &candidates[at..at + len]));
                    at += len;
                }
                (
                    hits,
                    vec![Vec::new(); group_sizes.len()],
                    vec![PrefilterStats::default(); group_sizes.len()],
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
    /// per-batch overrides go through [`Engine::search_groups`] or
    /// [`Session::set_prefilter`].
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
        self.prefilter_sketch(config)?;
        self.prefilter = config;
        Ok(())
    }

    /// Resolve a prefilter configuration into the sketch handle the
    /// backend scores with — the one place a `TopK` request is
    /// validated and its sketch table warmed. `Off` resolves to `None`;
    /// `TopK(k)` fetches the index's cached sketch, building it on first
    /// use (a no-op when the `.hdx` v3 section was loaded), so the
    /// set-time calls leave queries nothing to derive.
    fn prefilter_sketch(
        &self,
        config: PrefilterConfig,
    ) -> Result<Option<(Arc<SketchIndex>, usize)>, String> {
        let Some(k) = config.top_k() else {
            return Ok(None);
        };
        if !matches!(self.backend, EngineBackend::Sharded(_)) {
            return Err(
                "the prefilter requires the sharded backend (flat backends exist to scan the full candidate list)"
                    .to_owned(),
            );
        }
        let index = self
            .index
            .as_ref()
            .ok_or("the prefilter requires an index-backed engine")?;
        Ok(Some((index.sketch_index(), k)))
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
        self.search_with_workers(spectra, window, alpha, self.threads)
    }

    /// [`Engine::search`] under an explicit worker budget: the batch
    /// uses at most `workers` threads instead of the engine's configured
    /// parallelism. PSM tables are byte-identical across budgets
    /// (scoring is deterministic and order-preserving).
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
        self.search_groups(&[spectra], window, alpha, workers, None)
            .expect("the engine's own prefilter is validated when set")
            .pop()
            .expect("one group was searched")
    }

    /// Search several independent requests as **one merged scoring
    /// batch** and filter FDR per request — the serve layer's query
    /// path, whether a request runs alone (one group) or coalesced
    /// with others.
    ///
    /// `workers` caps the batch's threads (the serve scheduler's
    /// grant); `prefilter` of `Some(config)` runs the batch under
    /// `config` instead of the engine's default (the protocol's
    /// per-request option), `None` uses the default.
    ///
    /// Group `g` of the result is byte-identical (PSMs, threshold,
    /// identifications, candidate counts) to a search over `groups[g]`
    /// alone: preprocessing and candidate generation run per group,
    /// per-query scoring is independent of batch composition, the
    /// backend's per-group clocks keep shard and prefilter accounting
    /// exact, and FDR is filtered per group over that group's own PSMs.
    /// Only wall-clock figures depend on the merge (see
    /// [`BatchReceipt::latency_ms`]).
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
        let runs = self.execute(
            groups,
            &window,
            workers,
            prefilter.unwrap_or(self.prefilter),
        )?;
        Ok(runs
            .into_iter()
            .map(|(psms, mut receipt)| {
                let (outcome, finalize_ms) = self.finalize_psms(
                    psms,
                    alpha,
                    receipt.queries,
                    receipt.rejected_queries,
                    receipt.candidates_scored,
                );
                receipt.stages.finalize_ms = finalize_ms;
                receipt.latency_ms += finalize_ms;
                (outcome, receipt)
            })
            .collect())
    }

    /// The batch executor every search runs through: preprocess and
    /// generate candidates per group, score all groups in one backend
    /// call, then assemble each group's raw PSMs and account its
    /// receipt and registry series. Returns one `(psms, receipt)` per
    /// group; each receipt reads as a session's first batch
    /// (`batch` 1, `total_psms` = `psms`) with `finalize_ms` 0, for the
    /// caller to renumber or finalize.
    ///
    /// The span decomposition: each stage is timed where it runs, so
    /// the per-stage figures in receipts, `BatchStats`, and the
    /// `hdoms_stage_*_ms` histograms all come from one measurement.
    /// The shared scoring stage is apportioned across groups by
    /// binned-query count (evenly when no group has any).
    fn execute(
        &self,
        groups: &[&[Spectrum]],
        window: &PrecursorWindow,
        workers: usize,
        prefilter: PrefilterConfig,
    ) -> Result<Vec<(Vec<Psm>, BatchReceipt)>, String> {
        let start = Instant::now();
        let narrowing = self.prefilter_sketch(prefilter)?;
        let pre = Preprocessor::new(self.preprocess);
        let mut binned: Vec<BinnedSpectrum> = Vec::new();
        let mut cands: Vec<Vec<u32>> = Vec::new();
        let mut stages = Vec::with_capacity(groups.len());
        let mut sizes = Vec::with_capacity(groups.len());
        for spectra in groups {
            let ((mut group_binned, _), encode_ms) =
                hdoms_obs::trace::timed(|| pre.run_batch(spectra));
            let (mut group_cands, candidates_ms) = hdoms_obs::trace::timed(|| {
                hdoms_oms::search::candidate_lists(&self.candidates, window, &group_binned)
            });
            sizes.push(group_binned.len());
            stages.push(StageTimings {
                encode_ms,
                candidates_ms,
                ..StageTimings::default()
            });
            binned.append(&mut group_binned);
            cands.append(&mut group_cands);
        }
        let ((hits, timings, stats), score_ms) = hdoms_obs::trace::timed(|| {
            self.backend.search(
                &binned,
                &cands,
                workers,
                narrowing.as_ref().map(|(sketch, k)| (sketch.as_ref(), *k)),
                &sizes,
            )
        });

        let share = |len: usize| {
            if binned.is_empty() {
                1.0 / groups.len() as f64
            } else {
                len as f64 / binned.len() as f64
            }
        };
        let mut at = 0usize;
        let mut runs = Vec::with_capacity(groups.len());
        for (g, (shard_timings, stats)) in timings.into_iter().zip(stats).enumerate() {
            let range = at..at + sizes[g];
            at = range.end;
            let psms = assemble_psms(&binned[range.clone()], &hits[range.clone()], &self.meta);
            let candidates_pre: usize = cands[range].iter().map(Vec::len).sum();
            let candidates_scored = if narrowing.is_some() {
                stats.candidates_post as usize
            } else {
                candidates_pre
            };
            let shards_touched: u64 = shard_timings.iter().map(|t| t.visits).sum();
            stages[g].score_ms = score_ms * share(sizes[g]);
            if let Some(metrics) = &self.metrics {
                metrics.batches.inc();
                metrics.queries.add(groups[g].len() as u64);
                metrics.psms.add(psms.len() as u64);
                metrics.stage_encode_ms.record_ms(stages[g].encode_ms);
                metrics
                    .stage_candidates_ms
                    .record_ms(stages[g].candidates_ms);
                metrics.stage_score_ms.record_ms(stages[g].score_ms);
                if narrowing.is_some() {
                    metrics.prefilter_candidates_pre.add(candidates_pre as u64);
                    metrics
                        .prefilter_candidates_post
                        .add(candidates_scored as u64);
                    metrics.prefilter_sketch_ms.record_ms(stats.sketch_ms);
                }
            }
            let receipt = BatchReceipt {
                batch: 1,
                queries: groups[g].len(),
                rejected_queries: groups[g].len() - sizes[g],
                psms: psms.len(),
                total_psms: psms.len(),
                candidates_scored,
                candidates_pre,
                candidates_post: candidates_scored,
                sketch_ms: stats.sketch_ms,
                shards_touched: shards_touched as usize,
                latency_ms: 0.0,
                stages: stages[g],
                shard_timings,
            };
            runs.push((psms, receipt));
        }
        // Latency: the group's own stages plus its share of everything
        // the groups shared (scoring and assembly) — the whole wall-clock
        // for a lone group.
        let own_ms: f64 = stages.iter().map(|s| s.encode_ms + s.candidates_ms).sum();
        let shared_ms = (start.elapsed().as_secs_f64() * 1e3 - own_ms).max(0.0);
        for (g, (_, receipt)) in runs.iter_mut().enumerate() {
            receipt.latency_ms =
                stages[g].encode_ms + stages[g].candidates_ms + shared_ms * share(sizes[g]);
        }
        Ok(runs)
    }

    /// Filter FDR at `alpha` over `psms` and wrap the result as a
    /// pipeline outcome, recording the finalize stage. Returns the
    /// outcome and the FDR stage's wall-clock in milliseconds.
    fn finalize_psms(
        &self,
        psms: Vec<Psm>,
        alpha: f64,
        total_queries: usize,
        rejected_queries: usize,
        candidates_scored: usize,
    ) -> (PipelineOutcome, f64) {
        assert!(alpha > 0.0 && alpha < 1.0, "FDR level must be in (0, 1)");
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
            metrics.stage_finalize_ms.record_ms(finalize_ms);
        }
        let binned_queries = total_queries - rejected_queries;
        let mean_candidates = if binned_queries == 0 {
            0.0
        } else {
            candidates_scored as f64 / binned_queries as f64
        };
        (
            PipelineOutcome {
                backend_name: self.backend.name(),
                psms,
                accepted,
                threshold_score,
                decoys_above,
                rejected_queries,
                total_queries,
                mean_candidates,
            },
            finalize_ms,
        )
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
    /// Shard visits this batch cost: the sum of `shard_timings`'
    /// visits (0 on unsharded engines).
    pub shards_touched: usize,
    /// Wall-clock time spent on this batch, milliseconds: its own
    /// preprocess and candidate stages plus its binned-query share of
    /// the scoring and assembly it shared with merged groups (the whole
    /// execution wall-clock for a lone batch), plus `finalize_ms` on the
    /// one-shot paths.
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
    candidates_scored: usize,
    candidates_pre: usize,
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
            candidates_scored: 0,
            candidates_pre: 0,
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
        self.engine.prefilter_sketch(config)?;
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

    /// Candidate references scored so far — the candidates forwarded
    /// to the exact scan after any prefilter narrowing.
    pub fn candidates_scored(&self) -> usize {
        self.candidates_scored
    }

    /// Precursor-window candidates generated so far, before prefilter
    /// narrowing (equals [`Session::candidates_scored`] when the
    /// prefilter is off).
    pub fn candidates_pre(&self) -> usize {
        self.candidates_pre
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

    /// Encode, search, and accumulate one batch of query spectra with
    /// the engine's configured parallelism. No FDR filtering happens
    /// here — raw PSMs collect until [`Session::finalize`].
    pub fn submit(&mut self, spectra: &[Spectrum]) -> BatchReceipt {
        self.submit_with_workers(spectra, self.engine.threads)
    }

    /// [`Session::submit`] under an explicit worker budget: this batch
    /// uses at most `workers` threads (`1` runs it entirely on the
    /// calling thread), whatever parallelism the engine was constructed
    /// with. The serve layer's scheduler calls this with each admitted
    /// batch's granted budget; accumulated PSMs — and therefore the
    /// finalized table — are byte-identical across budgets.
    pub fn submit_with_workers(&mut self, spectra: &[Spectrum], workers: usize) -> BatchReceipt {
        let (psms, mut receipt) = self
            .engine
            .execute(&[spectra], &self.window, workers, self.prefilter)
            .expect("the session's prefilter is validated when set")
            .pop()
            .expect("one group was executed");
        self.batches += 1;
        self.total_queries += receipt.queries;
        self.rejected_queries += receipt.rejected_queries;
        self.candidates_scored += receipt.candidates_scored;
        self.candidates_pre += receipt.candidates_pre;
        self.sketch_ms += receipt.sketch_ms;
        self.shards_touched += receipt.shards_touched;
        self.latency_ms += receipt.latency_ms;
        self.stages.accumulate(&receipt.stages);
        self.psms.extend(psms);
        receipt.batch = self.batches;
        receipt.total_psms = self.psms.len();
        receipt
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
        self.engine.finalize_psms(
            self.psms,
            alpha,
            self.total_queries,
            self.rejected_queries,
            self.candidates_scored,
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
        // accounting — on the sharded and the flat backend, with the
        // prefilter off and on, and for degenerate groups (empty, and
        // every spectrum rejected by preprocessing). With the prefilter
        // off each group must also equal the classic pipeline.
        let (workload, engine) = tiny_engine(27);
        let index = engine.index().expect("index-backed").clone();
        let flat = Arc::new(Engine::from_index_flat(index.clone(), 2).expect("same kind"));
        let n = workload.queries.len();
        let rejected: Vec<Spectrum> = workload.queries[..4]
            .iter()
            .map(|s| {
                Spectrum::new(
                    s.id,
                    s.precursor_mz,
                    s.precursor_charge,
                    s.peaks()[..2].to_vec(),
                    s.origin,
                )
            })
            .collect();
        let groups: Vec<&[Spectrum]> = vec![
            &workload.queries[..n / 3],
            &[],
            &workload.queries[n / 3..2 * n / 3],
            &rejected,
            &workload.queries[2 * n / 3..],
        ];
        let window = PrecursorWindow::open_default();
        let mut classic_config = hdoms_oms::pipeline::PipelineConfig {
            window,
            fdr_level: 0.01,
            ..hdoms_oms::pipeline::PipelineConfig::default()
        };
        classic_config.preprocess = index.kind().preprocess();
        let classic = hdoms_oms::pipeline::OmsPipeline::new(classic_config);
        let classic_backend = index.to_exact_backend(2).expect("same kind");
        for (engine, prefilters) in [
            (&engine, vec![None, Some(PrefilterConfig::TopK(16))]),
            (&flat, vec![None]),
        ] {
            for prefilter in prefilters {
                let merged = engine
                    .search_groups(&groups, window, 0.01, 2, prefilter)
                    .expect("groups searched");
                assert_eq!(merged.len(), groups.len());
                for (g, (outcome, receipt)) in merged.iter().enumerate() {
                    let (solo, solo_receipt) = engine
                        .search_groups(&[groups[g]], window, 0.01, 2, prefilter)
                        .expect("solo search")
                        .remove(0);
                    assert_eq!(outcome.psms, solo.psms, "group {g} PSMs diverged");
                    assert_eq!(outcome.accepted, solo.accepted);
                    assert_eq!(outcome.threshold_score, solo.threshold_score);
                    assert_eq!(outcome.decoys_above, solo.decoys_above);
                    assert_eq!(outcome.total_queries, solo.total_queries);
                    assert_eq!(outcome.rejected_queries, solo.rejected_queries);
                    assert_eq!(outcome.mean_candidates, solo.mean_candidates);
                    assert_eq!(receipt.queries, solo_receipt.queries);
                    assert_eq!(receipt.psms, solo_receipt.psms);
                    assert_eq!(receipt.candidates_pre, solo_receipt.candidates_pre);
                    assert_eq!(receipt.candidates_post, solo_receipt.candidates_post);
                    assert_eq!(receipt.candidates_scored, solo_receipt.candidates_scored);
                    assert_eq!(receipt.shards_touched, solo_receipt.shards_touched);
                    if prefilter.is_none() {
                        let reference = classic.run_catalog(groups[g], &index, &classic_backend);
                        assert_eq!(outcome.psms, reference.psms, "group {g} vs classic");
                        assert_eq!(outcome.threshold_score, reference.threshold_score);
                        assert_eq!(outcome.accepted, reference.accepted);
                    }
                }
                assert_eq!(merged[1].0.total_queries, 0, "the empty group");
                assert_eq!(merged[3].0.rejected_queries, rejected.len());
                assert!(merged[3].0.psms.is_empty(), "a fully rejected group");
                assert_eq!(merged[3].1.candidates_pre, 0);
            }
        }
    }

    #[test]
    fn shards_touched_is_the_sum_of_shard_visits() {
        // One source for shard visits: every path records shard
        // timings, and the receipt's figure is their visit total. With
        // the prefilter off it is also the number of distinct shards
        // each query's precursor window reaches.
        let (workload, engine) = tiny_engine(28);
        let index = engine.index().expect("index-backed");
        let mut shard_of = vec![0usize; index.entry_count()];
        for (s, shard) in index.shards().iter().enumerate() {
            for e in &shard.entries {
                shard_of[e.id as usize] = s;
            }
        }
        let window = PrecursorWindow::open_default();
        let pre = Preprocessor::new(engine.preprocess());
        let candidates = index.candidate_index();
        let (binned, _) = pre.run_batch(&workload.queries);
        let windows_shards: usize = binned
            .iter()
            .map(|q| {
                candidates
                    .candidates(&window, q.neutral_mass)
                    .iter()
                    .map(|&id| shard_of[id as usize])
                    .collect::<std::collections::BTreeSet<_>>()
                    .len()
            })
            .sum();
        for prefilter in [
            PrefilterConfig::Off,
            PrefilterConfig::TopK(8),
            PrefilterConfig::TopK(workload.library.len()),
        ] {
            let (_, receipt) = engine
                .search_groups(&[&workload.queries], window, 0.01, 2, Some(prefilter))
                .expect("sharded index-backed engine accepts any prefilter")
                .remove(0);
            let visits: u64 = receipt.shard_timings.iter().map(|t| t.visits).sum();
            assert_eq!(receipt.shards_touched as u64, visits, "{prefilter:?}");
            if prefilter
                .top_k()
                .is_none_or(|k| k >= workload.library.len())
            {
                assert_eq!(receipt.shards_touched, windows_shards, "{prefilter:?}");
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
