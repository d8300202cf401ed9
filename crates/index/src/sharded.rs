//! Shard-parallel open-modification search over an indexed library.
//!
//! An open precursor window reaches only a contiguous band of reference
//! masses, so a query's candidates fall into a handful of consecutive
//! precursor-mass shards. [`ShardedBackend`] exploits that twice:
//!
//! * **fan-out** — each query's candidate list is partitioned into its
//!   shard runs (one linear pass: candidates arrive mass-sorted, shards
//!   are mass-contiguous, so shard ids form non-decreasing runs), and
//!   only shards overlapping the precursor window are ever touched;
//! * **parallelism** — with many queries in flight the batch parallelises
//!   over queries; with few queries each query parallelises over its
//!   shard runs, so even a single interactive query saturates the
//!   workers.
//!
//! Scores are bit-identical to the flat backends: every per-(query,
//! reference) evaluation is deterministic and the merge applies the same
//! `(score desc, id asc)` tie-break the flat scan applies.

use hdoms_baselines::hyperoms::HyperOmsBackend;
use hdoms_core::accelerator::OmsAccelerator;
use hdoms_hdc::parallel::par_map;
use hdoms_hdc::BinaryHypervector;
use hdoms_ms::preprocess::BinnedSpectrum;
use hdoms_obs::metrics::{Counter, Histogram, Registry};
use hdoms_oms::search::{ExactBackend, SearchHit, SimilarityBackend};
use hdoms_prefilter::{PrefilterStats, SketchIndex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A backend whose per-query evaluation splits into "encode once" and
/// "score a candidate subset", which is what shard fan-out needs (the flat
/// [`SimilarityBackend`] entry point re-encodes per call).
#[allow(clippy::large_enum_variant)] // one instance per backend, never collected
enum Scorer {
    Exact(ExactBackend),
    HyperOms(HyperOmsBackend),
    Rram(OmsAccelerator),
}

impl Scorer {
    fn name(&self) -> String {
        match self {
            Scorer::Exact(b) => b.name(),
            Scorer::HyperOms(b) => b.name(),
            Scorer::Rram(b) => b.name(),
        }
    }

    /// Encode one query (with the backend's configured error injection).
    fn prepare(&self, binned: &BinnedSpectrum) -> BinaryHypervector {
        match self {
            Scorer::Exact(b) => b.encode_query(binned),
            Scorer::HyperOms(b) => b.inner().encode_query(binned),
            Scorer::Rram(b) => b.encoder().encode(binned),
        }
    }

    /// Best hit among `candidates` for an already-encoded query.
    fn best(
        &self,
        query_hv: &BinaryHypervector,
        query_id: u32,
        candidates: &[u32],
    ) -> Option<SearchHit> {
        match self {
            Scorer::Exact(b) => exact_best(b, query_hv, candidates),
            Scorer::HyperOms(b) => exact_best(b.inner(), query_hv, candidates),
            Scorer::Rram(b) => b
                .search_engine()
                .search_best(query_hv, query_id, candidates)
                .map(|(reference, score)| SearchHit { reference, score }),
        }
    }
}

/// The flat exact scan over a candidate subset: the shared kernel-tiled
/// scan (same scoring and tie-break as `ExactBackend::search_batch`).
fn exact_best(
    backend: &ExactBackend,
    query_hv: &BinaryHypervector,
    candidates: &[u32],
) -> Option<SearchHit> {
    hdoms_oms::search::best_hit(
        backend.shared_references(),
        backend.encoder().config().dim,
        query_hv,
        candidates,
    )
}

/// Wall-clock spent scoring one shard during a batch search.
///
/// Produced per group by [`ShardedBackend::search`], sorted by shard
/// position, covering only shards the group actually visited. `ms` sums
/// every scoring visit the batch paid the shard (across queries and
/// worker threads — on a parallel batch the per-shard figures can sum
/// to more than the batch's wall-clock).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardTiming {
    /// Shard position (as in [`crate::LibraryIndex::shards`]).
    pub shard: u32,
    /// Scoring visits the batch paid this shard.
    pub visits: u64,
    /// Wall-clock summed over those visits, in milliseconds.
    pub ms: f64,
}

/// Per-shard accumulators for one batch group: plain atomics so the
/// scoring closures can record from any worker thread without locks.
struct ShardClock {
    ns: Vec<AtomicU64>,
    visits: Vec<AtomicU64>,
}

impl ShardClock {
    fn new(shard_count: usize) -> ShardClock {
        ShardClock {
            ns: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
            visits: (0..shard_count).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, shard: usize, ns: u64) {
        self.ns[shard].fetch_add(ns, Ordering::Relaxed);
        self.visits[shard].fetch_add(1, Ordering::Relaxed);
    }

    fn timings(&self) -> Vec<ShardTiming> {
        (0..self.ns.len())
            .filter_map(|shard| {
                let visits = self.visits[shard].load(Ordering::Relaxed);
                (visits > 0).then(|| ShardTiming {
                    shard: shard as u32,
                    visits,
                    ms: self.ns[shard].load(Ordering::Relaxed) as f64 / 1e6,
                })
            })
            .collect()
    }
}

/// Registry handles the backend records into on every search.
struct BackendMetrics {
    score_ms: Arc<Histogram>,
    visits: Arc<Counter>,
}

/// Batch-wide cascade accumulators: plain atomics so the per-query
/// narrowing closures can record from any worker thread without locks
/// (sketch wall-clock is summed in integer nanoseconds and converted
/// once).
struct PrefilterClock {
    pre: AtomicU64,
    post: AtomicU64,
    ns: AtomicU64,
}

impl PrefilterClock {
    fn new() -> PrefilterClock {
        PrefilterClock {
            pre: AtomicU64::new(0),
            post: AtomicU64::new(0),
            ns: AtomicU64::new(0),
        }
    }

    fn record(&self, pre: u64, post: u64, ns: u64) {
        self.pre.fetch_add(pre, Ordering::Relaxed);
        self.post.fetch_add(post, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
    }

    fn stats(&self) -> PrefilterStats {
        PrefilterStats {
            candidates_pre: self.pre.load(Ordering::Relaxed),
            candidates_post: self.post.load(Ordering::Relaxed),
            sketch_ms: self.ns.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

/// Merge per-shard best hits with the flat scan's tie-break.
fn merge_hits(hits: impl IntoIterator<Item = Option<SearchHit>>) -> Option<SearchHit> {
    let mut best: Option<SearchHit> = None;
    for hit in hits.into_iter().flatten() {
        let better = match &best {
            None => true,
            Some(b) => hit.score > b.score || (hit.score == b.score && hit.reference < b.reference),
        };
        if better {
            best = Some(hit);
        }
    }
    best
}

/// Sharded, shard-parallel search backend over an indexed library.
///
/// Construct through
/// [`LibraryIndex::sharded_backend`](crate::LibraryIndex::sharded_backend);
/// the backend shares the index's reference-hypervector table rather
/// than cloning it, so index + backend hold one copy of the encoded
/// library.
///
/// ```
/// use hdoms_index::{IndexBuilder, IndexConfig, IndexedBackendKind};
/// use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
/// use hdoms_oms::pipeline::{OmsPipeline, PipelineConfig};
///
/// let workload = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 5);
/// let mut config = IndexConfig {
///     entries_per_shard: 64,
///     threads: 2,
///     ..IndexConfig::default()
/// };
/// if let IndexedBackendKind::Exact(exact) = &mut config.kind {
///     exact.encoder.dim = 512;
/// }
/// let index = IndexBuilder::new(config).from_library(&workload.library);
///
/// let backend = index.sharded_backend(2).unwrap();
/// assert_eq!(backend.shard_count(), index.shards().len());
///
/// let mut pipeline_config = PipelineConfig::fast_test();
/// pipeline_config.exact.encoder.dim = 512;
/// let outcome = OmsPipeline::new(pipeline_config)
///     .run_catalog(&workload.queries, &index, &backend);
/// assert!(!outcome.psms.is_empty());
/// ```
pub struct ShardedBackend {
    scorer: Scorer,
    /// Dense id → shard position.
    shard_of: Vec<u32>,
    shard_count: usize,
    threads: usize,
    metrics: Option<BackendMetrics>,
}

impl ShardedBackend {
    pub(crate) fn over_exact(
        backend: ExactBackend,
        shard_of: Vec<u32>,
        shard_count: usize,
        threads: usize,
    ) -> ShardedBackend {
        ShardedBackend {
            scorer: Scorer::Exact(backend),
            shard_of,
            shard_count,
            threads: threads.max(1),
            metrics: None,
        }
    }

    pub(crate) fn over_hyperoms(
        backend: HyperOmsBackend,
        shard_of: Vec<u32>,
        shard_count: usize,
        threads: usize,
    ) -> ShardedBackend {
        ShardedBackend {
            scorer: Scorer::HyperOms(backend),
            shard_of,
            shard_count,
            threads: threads.max(1),
            metrics: None,
        }
    }

    pub(crate) fn over_accelerator(
        backend: OmsAccelerator,
        shard_of: Vec<u32>,
        shard_count: usize,
        threads: usize,
    ) -> ShardedBackend {
        ShardedBackend {
            scorer: Scorer::Rram(backend),
            shard_of,
            shard_count,
            threads: threads.max(1),
            metrics: None,
        }
    }

    /// Number of shards the library is split into.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Register this backend's series with a metrics [`Registry`]:
    /// `hdoms_shard_score_ms` (a histogram of per-shard-visit scoring
    /// wall-clock) and `hdoms_shard_visits_total`. Every shard-scoring
    /// visit of [`ShardedBackend::search`] records into both, the same
    /// visits its [`ShardTiming`]s count.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        self.metrics = Some(BackendMetrics {
            score_ms: registry.histogram(
                "hdoms_shard_score_ms",
                "Wall-clock of one shard-scoring visit (one query x one shard run)",
            ),
            visits: registry.counter(
                "hdoms_shard_visits_total",
                "Shard-scoring visits performed by batch searches",
            ),
        });
    }

    /// Partition a mass-sorted candidate list into its shard runs.
    ///
    /// Candidates belonging to shards the precursor window does not reach
    /// simply do not occur in the list, so the returned runs are exactly
    /// the overlapping shards.
    fn shard_runs<'c>(&self, candidates: &'c [u32]) -> Vec<&'c [u32]> {
        let mut runs = Vec::new();
        let mut start = 0usize;
        while start < candidates.len() {
            let shard = self.shard_of[candidates[start] as usize];
            let mut end = start + 1;
            while end < candidates.len() && self.shard_of[candidates[end] as usize] == shard {
                end += 1;
            }
            runs.push(&candidates[start..end]);
            start = end;
        }
        runs
    }

    /// Evaluate one query: encode once, optionally narrow the candidate
    /// list through the prefilter's sketch stage, score each shard run
    /// (timing it into `clock` and the attached registry series), and
    /// merge.
    ///
    /// `parallel_shards` (> 1) switches the per-shard scoring onto that
    /// many worker threads (used when the batch itself is too small to
    /// parallelise over queries).
    fn search_one_clocked(
        &self,
        binned: &BinnedSpectrum,
        candidates: &[u32],
        parallel_shards: usize,
        clock: &ShardClock,
        prefilter: Option<(&SketchIndex, usize, &PrefilterClock)>,
    ) -> Option<SearchHit> {
        if candidates.is_empty() {
            return None;
        }
        let query_hv = self.scorer.prepare(binned);
        // The sketch stage sits between encode and the shard walk: the
        // narrowed list keeps the original (ascending-mass) candidate
        // order, so the run partition below stays valid.
        let narrowed: Vec<u32>;
        let candidates = match prefilter {
            None => candidates,
            Some((sketch, k, pclock)) => {
                let start = Instant::now();
                let signature = sketch.sketch_query(query_hv.words());
                narrowed = sketch.narrow(&signature, candidates, k);
                pclock.record(
                    candidates.len() as u64,
                    narrowed.len() as u64,
                    start.elapsed().as_nanos() as u64,
                );
                &narrowed
            }
        };
        let runs = self.shard_runs(candidates);
        let score = |run: &[u32]| -> Option<SearchHit> {
            let start = Instant::now();
            let hit = self.scorer.best(&query_hv, binned.id, run);
            let ns = start.elapsed().as_nanos() as u64;
            clock.record(self.shard_of[run[0] as usize] as usize, ns);
            if let Some(metrics) = &self.metrics {
                metrics.score_ms.record_ms(ns as f64 / 1e6);
                metrics.visits.inc();
            }
            hit
        };
        if parallel_shards > 1 && runs.len() > 1 {
            let hits = par_map(&runs, parallel_shards, |run| score(run));
            merge_hits(hits)
        } else {
            merge_hits(runs.into_iter().map(score))
        }
    }

    /// Score a batch of queries, each against its own mass-sorted
    /// candidate list — the backend's one batch entry point.
    ///
    /// The batch uses at most `workers` threads, whatever the backend
    /// was constructed with: the engine passes its configured thread
    /// count for local runs and the serve scheduler's grant for served
    /// ones, and `workers == 1` runs entirely inline on the calling
    /// thread. With at least `workers` queries the batch parallelises
    /// over queries (each query's shard walk sequential, for locality);
    /// with fewer it parallelises each query over its shard runs, so
    /// even a single interactive query uses its whole budget.
    ///
    /// When `prefilter` is `Some((sketch, k))`, every query's candidate
    /// list is narrowed to its top-`k` sketch scorers
    /// ([`SketchIndex::narrow`]) between the one-time query encode and
    /// the shard walk. With `k` at or above every window size the
    /// narrowed lists equal the input lists, so hits and accounting
    /// match the unfiltered scan exactly.
    ///
    /// The batch may merge several independent requests: `group_sizes`
    /// splits the queries into consecutive groups, and the per-shard
    /// timings and prefilter stats come back **per group**, exactly as
    /// if each group had been searched alone (the clocks are indexed by
    /// group, so the accounting stays precise even when the prefilter
    /// narrows groups by different amounts; with `prefilter` of `None`
    /// the stats come back zeroed). Hits come back in input order and
    /// are bit-identical whatever the grouping and worker budget:
    /// scoring is per query, deterministic and order-preserving.
    ///
    /// # Panics
    ///
    /// Panics when `queries` and `candidates` do not pair up, the group
    /// sizes do not sum to the query count, or the sketch does not
    /// cover the backend's reference ids.
    pub fn search(
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
        let workers = workers.max(1);
        assert_eq!(
            queries.len(),
            candidates.len(),
            "queries and candidate lists must pair up"
        );
        assert_eq!(
            group_sizes.iter().sum::<usize>(),
            queries.len(),
            "group sizes must cover the batch"
        );
        let group_of: Vec<usize> = group_sizes
            .iter()
            .enumerate()
            .flat_map(|(g, &len)| std::iter::repeat_n(g, len))
            .collect();
        let clocks: Vec<ShardClock> = group_sizes
            .iter()
            .map(|_| ShardClock::new(self.shard_count))
            .collect();
        let pclocks: Vec<PrefilterClock> =
            group_sizes.iter().map(|_| PrefilterClock::new()).collect();
        let search = |i: usize, parallel_shards: usize| {
            let group = group_of[i];
            let narrowing = prefilter.map(|(sketch, k)| (sketch, k, &pclocks[group]));
            self.search_one_clocked(
                &queries[i],
                &candidates[i],
                parallel_shards,
                &clocks[group],
                narrowing,
            )
        };
        let hits = if queries.len() >= workers {
            let jobs: Vec<usize> = (0..queries.len()).collect();
            par_map(&jobs, workers, |&i| search(i, 1))
        } else {
            (0..queries.len()).map(|i| search(i, workers)).collect()
        };
        (
            hits,
            clocks.iter().map(ShardClock::timings).collect(),
            pclocks.iter().map(PrefilterClock::stats).collect(),
        )
    }
}

impl SimilarityBackend for ShardedBackend {
    fn name(&self) -> String {
        format!(
            "sharded({}, {} shards)",
            self.scorer.name(),
            self.shard_count
        )
    }

    fn search_batch(
        &self,
        queries: &[BinnedSpectrum],
        candidates: &[Vec<u32>],
    ) -> Vec<Option<SearchHit>> {
        self.search(queries, candidates, self.threads, None, &[queries.len()])
            .0
    }
}
