//! Outside-in replay of the query pipeline: the engine's stages called
//! one by one through each layer's public function, in pipeline order,
//! on the same inputs `Engine::search` gets:
//!
//! `ms` preprocess → `oms` candidate window → `hdc` encode →
//! (`prefilter` sketch + narrow) → `oms` exact scan → `oms` PSM
//! assembly → `oms` FDR.
//!
//! With a recorder attached every call is a span (per query for the
//! sketch and scan stages, which run per query); without one the same
//! calls run bare, which is how the tracing overhead is measured and
//! how untraced runs check the engine's answer.

use crate::inputs::FDR;
use crate::trace::{Recorder, BATCH};
use hdoms_engine::Engine;
use hdoms_hdc::encoder::IdLevelEncoder;
use hdoms_hdc::parallel::par_map;
use hdoms_hdc::BinaryHypervector;
use hdoms_index::IndexedBackendKind;
use hdoms_ms::preprocess::{BinnedSpectrum, Preprocessor};
use hdoms_ms::spectrum::Spectrum;
use hdoms_oms::candidates::CandidateIndex;
use hdoms_oms::fdr::filter_fdr;
use hdoms_oms::pipeline::{assemble_psms, ReferenceCatalog};
use hdoms_oms::psm::Psm;
use hdoms_oms::search::{best_hit, candidate_lists, SearchHit, SharedReferences};
use hdoms_oms::window::PrecursorWindow;
use hdoms_prefilter::{PrefilterConfig, SketchIndex};
use std::sync::Arc;
use std::time::Instant;

/// Everything the replay needs that the engine builds at open time
/// (prepared once, outside every timed span).
pub struct Stages {
    pre: Preprocessor,
    candidates: CandidateIndex,
    encoder: IdLevelEncoder,
    references: SharedReferences,
    sketch: Arc<SketchIndex>,
    dim: usize,
}

impl Stages {
    pub fn new(engine: &Engine) -> Stages {
        let index = engine
            .index()
            .expect("the benchmark's engines are index-backed");
        let IndexedBackendKind::Exact(config) = index.kind() else {
            panic!("the benchmark builds exact-backend indexes");
        };
        Stages {
            pre: Preprocessor::new(engine.preprocess()),
            candidates: ReferenceCatalog::candidate_index(index),
            encoder: IdLevelEncoder::new(config.encoder),
            references: index.shared_references().clone(),
            sketch: index.sketch_index(),
            dim: config.encoder.dim,
        }
    }

    pub fn encoder(&self) -> &IdLevelEncoder {
        &self.encoder
    }
}

/// The replay's answer plus the counts the per-layer metrics need.
pub struct Replay {
    pub psms: Vec<Psm>,
    pub accepted: Vec<Psm>,
    pub wall_ms: f64,
    /// Ids, window candidates and hypervectors of the binned queries
    /// (kept for the off-path stage).
    pub ids: Vec<u32>,
    pub cands: Vec<Vec<u32>>,
    pub hvs: Vec<BinaryHypervector>,
    /// Σ peaks over the binned queries (each peak is D adds to encode).
    pub peaks: usize,
    /// Σ precursor-window candidates over the binned queries.
    pub window_candidates: usize,
    /// Σ candidates the exact scan scored (after any narrowing).
    pub scanned: usize,
}

fn span<T>(rec: Option<&Recorder>, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(rec) => rec.span(name, request, f),
        None => f(),
    }
}

/// Narrow (when the workload does) and scan one query.
fn score_one(
    stages: &Stages,
    binned: &BinnedSpectrum,
    cands: &[u32],
    hv: &BinaryHypervector,
    prefilter: PrefilterConfig,
    rec: Option<&Recorder>,
) -> (Option<SearchHit>, usize) {
    let request = u64::from(binned.id);
    let narrowed;
    let list: &[u32] = match prefilter.top_k() {
        Some(k) => {
            narrowed = span(rec, "prefilter.narrow", request, || {
                let signature = stages.sketch.sketch_query(hv.words());
                stages.sketch.narrow(&signature, cands, k)
            });
            &narrowed
        }
        None => cands,
    };
    if list.is_empty() {
        return (None, 0);
    }
    let hit = span(rec, "oms.scan", request, || {
        best_hit(&stages.references, stages.dim, hv, list)
    });
    (hit, list.len())
}

/// Replay `queries` through the stages on `threads` threads. With
/// `rec`, the run must be single-threaded (spans are recorded on the
/// calling thread).
pub fn replay(
    stages: &Stages,
    engine: &Engine,
    queries: &[Spectrum],
    window: &PrecursorWindow,
    prefilter: PrefilterConfig,
    threads: usize,
    rec: Option<&Recorder>,
) -> Replay {
    assert!(
        rec.is_none() || threads == 1,
        "spans are recorded single-threaded"
    );
    let start = Instant::now();
    let run = || {
        let (binned, _rejected) = span(rec, "ms.preprocess", BATCH, || {
            stages.pre.run_batch(queries)
        });
        let cands = span(rec, "oms.candidates", BATCH, || {
            candidate_lists(&stages.candidates, window, &binned)
        });
        let hvs = span(rec, "hdc.encode", BATCH, || {
            stages.encoder.encode_batch(&binned, threads)
        });
        let jobs: Vec<usize> = (0..binned.len()).collect();
        let scored: Vec<(Option<SearchHit>, usize)> = match rec {
            Some(_) => jobs
                .iter()
                .map(|&i| score_one(stages, &binned[i], &cands[i], &hvs[i], prefilter, rec))
                .collect(),
            None => par_map(&jobs, threads, |&i| {
                score_one(stages, &binned[i], &cands[i], &hvs[i], prefilter, None)
            }),
        };
        let hits: Vec<Option<SearchHit>> = scored.iter().map(|(hit, _)| *hit).collect();
        let psms = span(rec, "oms.assemble", BATCH, || {
            assemble_psms(&binned, &hits, engine.meta())
        });
        let fdr = span(rec, "oms.fdr", BATCH, || filter_fdr(&psms, FDR));
        Replay {
            peaks: binned.iter().map(|b| b.peaks().len()).sum(),
            window_candidates: cands.iter().map(Vec::len).sum(),
            scanned: scored.iter().map(|(_, n)| n).sum(),
            ids: binned.iter().map(|b| b.id).collect(),
            cands,
            hvs,
            psms,
            accepted: fdr.accepted,
            wall_ms: 0.0,
        }
    };
    let mut out = span(rec, "engine.replay", BATCH, run);
    out.wall_ms = start.elapsed().as_secs_f64() * 1e3;
    out
}

/// The off-path stage of a traced replay, measured on the same inputs:
/// sketch narrowing when the workload scans the full window (what the
/// cascade would cost and keep), or the full-window scan when it
/// narrows (the unfiltered best hits recall is measured against).
pub struct SideStage {
    /// Σ candidates kept by narrowing, over queries with candidates.
    pub kept: usize,
    /// Σ window candidates of those queries.
    pub window: usize,
    /// Queries whose unfiltered best hit survives narrowing, and
    /// queries that have an unfiltered best hit.
    pub recalled: usize,
    pub with_hit: usize,
}

pub fn side_stage(
    stages: &Stages,
    replay: &Replay,
    k: usize,
    workload_narrows: bool,
    rec: &Recorder,
) -> SideStage {
    let mut side = SideStage {
        kept: 0,
        window: 0,
        recalled: 0,
        with_hit: 0,
    };
    for ((&id, cands), hv) in replay.ids.iter().zip(&replay.cands).zip(&replay.hvs) {
        if cands.is_empty() {
            continue;
        }
        let request = u64::from(id);
        let narrow = || {
            let signature = stages.sketch.sketch_query(hv.words());
            stages.sketch.narrow(&signature, cands, k)
        };
        let full = || best_hit(&stages.references, stages.dim, hv, cands);
        let (narrowed, hit) = if workload_narrows {
            (narrow(), rec.span("oms.scan_unfiltered", request, full))
        } else {
            (rec.span("prefilter.narrow", request, narrow), full())
        };
        side.kept += narrowed.len();
        side.window += cands.len();
        if let Some(hit) = hit {
            side.with_hit += 1;
            side.recalled += usize::from(narrowed.contains(&hit.reference));
        }
    }
    side
}
