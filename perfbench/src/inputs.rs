//! Seeded inputs and the timed set-up every workload shares: build the
//! index the way `hdoms index build` does by default, write it, and
//! open it mapped.

use crate::stats::SplitMix;
use hdoms_engine::Engine;
use hdoms_hdc::encoder::IdLevelEncoder;
use hdoms_index::{IndexBuilder, IndexConfig, IndexedBackendKind, LibraryIndex};
use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
use hdoms_ms::library::SpectralLibrary;
use hdoms_ms::preprocess::Preprocessor;
use hdoms_oms::search::ExactBackendConfig;
use std::path::{Path, PathBuf};

/// Library scale of the iPRG2012-shaped preset: ×0.01 is 10 000
/// references (5 000 targets plus their decoys).
pub const SCALE: f64 = 0.01;
/// Query spectra per run.
pub const QUERIES: usize = 3200;
/// Hypervector dimension of the production exact backend.
pub const DIM: usize = 8192;
/// References per precursor-mass shard (`hdoms index build` default).
pub const SHARD_SIZE: usize = 1024;
/// FDR level identifications are counted at.
pub const FDR: f64 = 0.01;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Reference hypervectors re-encoded and compared with the mapped image.
pub const HV_SAMPLES: usize = 64;

/// Worker threads and connections the benchmark may use: the machine's
/// parallelism, capped at 2 so figures stay comparable across boxes.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(2)
}

pub fn generate(seed: u64) -> SyntheticWorkload {
    let mut spec = WorkloadSpec::iprg2012(SCALE);
    spec.queries = QUERIES;
    SyntheticWorkload::generate(&spec, seed)
}

/// The exact backend at `DIM`, as `hdoms index build --dim 8192` builds it.
pub fn exact_config() -> ExactBackendConfig {
    let mut config = ExactBackendConfig::default();
    config.encoder.dim = DIM;
    config
}

pub fn index_config(threads: usize) -> IndexConfig {
    IndexConfig {
        kind: IndexedBackendKind::Exact(exact_config()),
        entries_per_shard: SHARD_SIZE,
        threads,
    }
}

/// This process's scratch directory (inside the checkout, removed when
/// the run ends).
pub fn work_dir() -> PathBuf {
    Path::new("perfbench")
        .join("work")
        .join(std::process::id().to_string())
}

/// Scratch location of one index image.
pub fn image_path(tag: &str) -> PathBuf {
    work_dir().join(format!("{tag}.hdx"))
}

/// Build the index for `library` and write its image to `path`.
pub fn build_and_write(library: &SpectralLibrary, path: &Path, threads: usize) {
    let index = IndexBuilder::new(index_config(threads)).from_library(library);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create the benchmark's work directory");
    }
    index.write(path).expect("write the index image");
}

/// Build, write and open mapped: one in-process set-up.
pub fn setup_engine(library: &SpectralLibrary, path: &Path, threads: usize) -> Engine {
    build_and_write(library, path, threads);
    Engine::open_mapped(path, threads).expect("open the index image mapped")
}

/// Re-encode a seeded sample of references from the raw library and
/// count those whose words differ from the mapped image.
pub fn hv_mismatches(library: &SpectralLibrary, index: &LibraryIndex, seed: u64) -> usize {
    let config = exact_config();
    let pre = Preprocessor::new(config.preprocess);
    let encoder = IdLevelEncoder::new(config.encoder);
    let references = index.shared_references();
    let mut rng = SplitMix::new(seed ^ 0x4856);
    (0..HV_SAMPLES)
        .filter(|_| {
            let id = rng.below(library.len());
            let fresh = pre
                .run(&library.entries()[id].spectrum)
                .ok()
                .map(|binned| encoder.encode(&binned));
            let stored = references.hv(id);
            match (fresh, stored) {
                (Some(hv), Some(image)) => hv.words() != image.words(),
                (None, None) => false,
                _ => true,
            }
        })
        .count()
}

/// Peak resident set of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Machine descriptor printed with every result.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
