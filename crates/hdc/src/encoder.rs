//! The ID-Level encoder (Eq. (1) of the paper).
//!
//! A preprocessed spectrum — a sparse set of (m/z bin, intensity) pairs —
//! is encoded into a binary hypervector:
//!
//! ```text
//! h = Sign( Σ_{i ∈ S} ID_i ⊗ LV_i )
//! ```
//!
//! where `ID_i` is the position hypervector of the peak's m/z bin and
//! `LV_i` the level hypervector of its quantised intensity.
//!
//! Two routes compute it, with bit-identical results:
//!
//! * [`IdLevelEncoder::encode`] runs the bit-plane kernel
//!   ([`KernelDispatch::id_level_encode`]) selected by `HDOMS_KERNEL`:
//!   product signs by XOR of the packed ID sign plane and level words,
//!   magnitudes summed from the ID magnitude planes in `i8` blocks
//!   flushed into `i16`, `Sign` a word at a time. A spectrum whose
//!   worst-case sum `peaks × max_abs(ID)` exceeds the `i16` bound
//!   ([`ENCODE_SUM_BOUND`]) takes the reference route instead.
//! * [`IdLevelEncoder::accumulate`] + [`IdLevelEncoder::quantize_accumulator`]
//!   is the scalar reference, and the raw `i32` accumulator it exposes
//!   is the RRAM backend's hook for injecting analog error *before* the
//!   sign quantisation (§4.2.3).

use crate::hv::BinaryHypervector;
use crate::item_memory::{IdMemory, LevelMemory, LevelStyle};
use crate::kernels::{self, EncodeTerm, KernelDispatch, ENCODE_SUM_BOUND};
use crate::multibit::IdPrecision;
use crate::parallel::par_map;
use hdoms_ms::preprocess::{BinnedSpectrum, PreprocessConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Encoder parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Hypervector dimension `D`. The paper uses 8192 for its quality
    /// results and sweeps 1024–8192 in Fig. 13.
    pub dim: usize,
    /// Number of intensity quantisation levels `Q` (16–32 in the paper;
    /// the choice "does not significantly impact the results").
    pub q_levels: usize,
    /// ID component precision (§4.2.2); the paper's headline setting is
    /// 3-bit.
    pub id_precision: IdPrecision,
    /// Level hypervector style; `Chunked` enables the MVM-style in-memory
    /// encoding of §4.2.1.
    pub level_style: LevelStyle,
    /// Number of m/z bins (the ID memory size). Must cover every bin the
    /// preprocessor can emit.
    pub num_bins: usize,
    /// Seed for the item memories and the sign tie-break vector.
    pub seed: u64,
}

impl Default for EncoderConfig {
    fn default() -> EncoderConfig {
        EncoderConfig {
            dim: 8192,
            q_levels: 32,
            id_precision: IdPrecision::Bits3,
            level_style: LevelStyle::Chunked { num_chunks: 128 },
            num_bins: PreprocessConfig::default().num_bins(),
            seed: 0x0d5e_ed00,
        }
    }
}

/// ID-Level encoder: owns the item memories and turns binned spectra into
/// binary hypervectors. Clones share the bit-plane ID memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IdLevelEncoder {
    config: EncoderConfig,
    id_memory: Arc<IdMemory>,
    level_memory: LevelMemory,
    /// Resolves `Sign(0)` deterministically: a random but fixed ±1 per
    /// dimension.
    tie_break: BinaryHypervector,
}

impl IdLevelEncoder {
    /// Build an encoder (generates both item memories deterministically
    /// from `config.seed`).
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (zero dim, fewer than two
    /// levels, chunk constraints) — see [`LevelMemory::generate`].
    pub fn new(config: EncoderConfig) -> IdLevelEncoder {
        let id_memory = Arc::new(IdMemory::generate(
            config.seed ^ 0x1d,
            config.num_bins,
            config.dim,
            config.id_precision,
        ));
        let level_memory = LevelMemory::generate(
            config.seed ^ 0x7e,
            config.dim,
            config.q_levels,
            config.level_style,
        );
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x71e);
        let tie_break = BinaryHypervector::random(&mut rng, config.dim);
        IdLevelEncoder {
            config,
            id_memory,
            level_memory,
            tie_break,
        }
    }

    /// The configuration this encoder was built with.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// The position-ID item memory.
    pub fn id_memory(&self) -> &IdMemory {
        &self.id_memory
    }

    /// The level item memory.
    pub fn level_memory(&self) -> &LevelMemory {
        &self.level_memory
    }

    /// The raw encoding accumulator `Σ ID_i ⊗ LV_i` (before `Sign`): the
    /// scalar reference every fast encode is checked against.
    ///
    /// The in-memory encoding path perturbs this accumulator with the
    /// analog error model before quantising, so it is public API
    /// (C-INTERMEDIATE).
    ///
    /// # Panics
    ///
    /// Panics if a peak's bin index is outside `0..num_bins` — that means
    /// the preprocessor and encoder configurations disagree.
    pub fn accumulate(&self, spectrum: &BinnedSpectrum) -> Vec<i32> {
        let mut acc = vec![0i32; self.config.dim];
        for peak in spectrum.peaks() {
            let id = self.id_memory.id(self.checked_bin(peak.bin));
            let lv = self
                .level_memory
                .level(self.level_memory.quantize(peak.intensity));
            for (d, (a, &c)) in acc.iter_mut().zip(&id).enumerate() {
                *a += i32::from(c) * i32::from(lv.component(d));
            }
        }
        acc
    }

    /// Quantise an accumulator to a binary hypervector with `Sign`,
    /// breaking `0` ties with the encoder's fixed tie-break vector.
    ///
    /// # Panics
    ///
    /// Panics if `acc.len()` differs from the configured dimension.
    pub fn quantize_accumulator(&self, acc: &[i32]) -> BinaryHypervector {
        assert_eq!(acc.len(), self.config.dim, "accumulator length mismatch");
        let mut hv = BinaryHypervector::zeros(self.config.dim);
        let ties = self.tie_break.words();
        for ((word, sums), &tie) in hv.words_mut().iter_mut().zip(acc.chunks(64)).zip(ties) {
            *word = kernels::sign_word(sums, tie);
        }
        hv
    }

    /// Encode one spectrum with the process-wide kernel
    /// ([`kernels::active`]).
    ///
    /// # Panics
    ///
    /// Panics if a peak's bin index is outside `0..num_bins`.
    pub fn encode(&self, spectrum: &BinnedSpectrum) -> BinaryHypervector {
        self.encode_with(kernels::active(), spectrum)
    }

    /// Encode one spectrum with an explicit kernel: the bit-plane kernel
    /// when `peaks × max_abs(ID)` fits [`ENCODE_SUM_BOUND`], otherwise
    /// [`IdLevelEncoder::accumulate`] then
    /// [`IdLevelEncoder::quantize_accumulator`]. Every route yields the
    /// same hypervector.
    ///
    /// # Panics
    ///
    /// Panics if a peak's bin index is outside `0..num_bins`.
    pub fn encode_with(
        &self,
        kernel: KernelDispatch,
        spectrum: &BinnedSpectrum,
    ) -> BinaryHypervector {
        let peaks = spectrum.peaks();
        let precision = self.config.id_precision;
        if peaks.len() * usize::from(precision.max_abs().unsigned_abs()) > ENCODE_SUM_BOUND {
            return self.quantize_accumulator(&self.accumulate(spectrum));
        }
        let terms: Vec<EncodeTerm<'_>> = peaks
            .iter()
            .map(|peak| {
                let level = self.level_memory.quantize(peak.intensity);
                (
                    self.id_memory.planes(self.checked_bin(peak.bin)),
                    self.level_memory.level(level).words(),
                )
            })
            .collect();
        let mut hv = BinaryHypervector::zeros(self.config.dim);
        kernel.id_level_encode(
            self.config.dim,
            usize::from(precision.bits()) - 1,
            &terms,
            self.tie_break.words(),
            hv.words_mut(),
        );
        hv
    }

    /// A peak's bin as an ID memory row, checked against `num_bins`.
    fn checked_bin(&self, bin: u32) -> usize {
        let bin = bin as usize;
        assert!(
            bin < self.config.num_bins,
            "bin {bin} outside ID memory ({} bins) — preprocessor/encoder mismatch",
            self.config.num_bins
        );
        bin
    }

    /// Encode a batch on `threads` threads, preserving order.
    pub fn encode_batch(
        &self,
        spectra: &[BinnedSpectrum],
        threads: usize,
    ) -> Vec<BinaryHypervector> {
        par_map(spectra, threads, |s| self.encode(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::normalized_similarity;
    use hdoms_ms::dataset::{SyntheticWorkload, WorkloadSpec};
    use hdoms_ms::noise::NoiseModel;
    use hdoms_ms::preprocess::Preprocessor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_config() -> EncoderConfig {
        EncoderConfig {
            dim: 2048,
            q_levels: 16,
            id_precision: IdPrecision::Bits3,
            level_style: LevelStyle::Random,
            ..EncoderConfig::default()
        }
    }

    fn encoded_pair(style: LevelStyle) -> (f64, f64) {
        // Returns (similarity of noisy re-measurement, similarity of
        // unrelated spectra) under the given level style.
        let w = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 77);
        let pre = Preprocessor::default();
        let enc = IdLevelEncoder::new(EncoderConfig {
            level_style: style,
            ..small_config()
        });
        let clean = &w.library.entries()[0].spectrum;
        let noisy = NoiseModel::default().apply(&mut StdRng::seed_from_u64(1), clean);
        let other = &w.library.entries()[1].spectrum;
        let h_clean = enc.encode(&pre.run(clean).unwrap());
        let h_noisy = enc.encode(&pre.run(&noisy).unwrap());
        let h_other = enc.encode(&pre.run(other).unwrap());
        (
            normalized_similarity(&h_clean, &h_noisy),
            normalized_similarity(&h_clean, &h_other),
        )
    }

    #[test]
    fn encoding_is_deterministic() {
        let w = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 5);
        let pre = Preprocessor::default();
        let b = pre.run(&w.queries[0]).unwrap();
        let enc1 = IdLevelEncoder::new(small_config());
        let enc2 = IdLevelEncoder::new(small_config());
        assert_eq!(enc1.encode(&b), enc2.encode(&b));
    }

    #[test]
    fn noisy_remeasurement_stays_similar() {
        let (sim_noisy, sim_other) = encoded_pair(LevelStyle::Random);
        assert!(
            sim_noisy > 0.25,
            "noisy re-measurement similarity too low: {sim_noisy}"
        );
        assert!(
            sim_other < sim_noisy / 2.0,
            "unrelated spectrum too similar: {sim_other} vs {sim_noisy}"
        );
    }

    #[test]
    fn chunked_levels_preserve_quality() {
        let (sim_noisy, sim_other) = encoded_pair(LevelStyle::Chunked { num_chunks: 128 });
        assert!(
            sim_noisy > 0.25,
            "chunked: noisy similarity too low: {sim_noisy}"
        );
        assert!(sim_other < sim_noisy / 2.0);
    }

    #[test]
    fn accumulator_bounds() {
        // |acc[d]| can never exceed peaks * max_abs(ID).
        let w = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 6);
        let pre = Preprocessor::default();
        let enc = IdLevelEncoder::new(small_config());
        let b = pre.run(&w.queries[0]).unwrap();
        let acc = enc.accumulate(&b);
        let bound = b.peaks().len() as i32 * i32::from(small_config().id_precision.max_abs());
        assert!(acc.iter().all(|&v| v.abs() <= bound));
        // And the accumulator is not trivially zero.
        assert!(acc.iter().any(|&v| v != 0));
    }

    #[test]
    fn quantize_ties_use_tie_break() {
        let enc = IdLevelEncoder::new(small_config());
        let zeros = vec![0i32; 2048];
        let hv = enc.quantize_accumulator(&zeros);
        // Sign(0) must equal the tie-break vector — check determinism and
        // rough balance.
        assert_eq!(hv, enc.quantize_accumulator(&zeros));
        let ones = hv.count_ones() as f64;
        assert!((ones - 1024.0).abs() < 200.0);
    }

    #[test]
    #[should_panic(expected = "accumulator length mismatch")]
    fn quantize_checks_length() {
        let enc = IdLevelEncoder::new(small_config());
        let _ = enc.quantize_accumulator(&[0i32; 7]);
    }

    #[test]
    fn batch_matches_sequential() {
        let w = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 8);
        let pre = Preprocessor::default();
        let (batch, _) = pre.run_batch(&w.queries);
        let enc = IdLevelEncoder::new(small_config());
        let seq: Vec<_> = batch.iter().map(|b| enc.encode(b)).collect();
        let par = enc.encode_batch(&batch, 4);
        assert_eq!(seq, par);
    }

    #[test]
    fn binary_ids_also_work() {
        let enc = IdLevelEncoder::new(EncoderConfig {
            id_precision: IdPrecision::Bits1,
            ..small_config()
        });
        let w = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 9);
        let pre = Preprocessor::default();
        let b = pre.run(&w.queries[0]).unwrap();
        let hv = enc.encode(&b);
        assert_eq!(hv.dim(), 2048);
    }

    #[test]
    fn encodings_use_full_dimensionality() {
        let w = SyntheticWorkload::generate(&WorkloadSpec::tiny(), 10);
        let pre = Preprocessor::default();
        let enc = IdLevelEncoder::new(small_config());
        let hv = enc.encode(&pre.run(&w.queries[0]).unwrap());
        let ones = hv.count_ones() as f64;
        // A healthy encoding is near-balanced.
        assert!((ones - 1024.0).abs() < 250.0, "ones = {ones}");
    }
}
