//! The encoder-equivalence contract: for every spectrum, the scalar
//! reference `quantize_accumulator(accumulate(s))`, the portable
//! bit-plane encode and the SIMD bit-plane encode produce the same
//! hypervector — over every `IdPrecision` × `LevelStyle`, a dimension
//! that fills its words (8192) and two that leave a ragged tail word
//! (1000, 200), peak counts from 0 up to the kernel's `i16` bound (with the
//! `i8` block edges 31/32/62/63/126/127/128), repeated bins, the empty
//! spectrum (every dimension a tie), and a spectrum above the bound,
//! which takes the reference route.
//!
//! `encode` (the process-wide kernel, `HDOMS_KERNEL`) is checked too,
//! so running the suite under `HDOMS_KERNEL=scalar` and `auto` covers
//! both selections.

use hdoms_hdc::encoder::{EncoderConfig, IdLevelEncoder};
use hdoms_hdc::kernels::{KernelDispatch, ENCODE_SUM_BOUND};
use hdoms_hdc::{BinaryHypervector, IdPrecision, LevelStyle};
use hdoms_ms::preprocess::{BinnedPeak, BinnedSpectrum};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::OnceLock;

const NUM_BINS: usize = 300;

/// One encoder per precision × level style at `dim`.
fn encoders_at(dim: usize) -> Vec<IdLevelEncoder> {
    let (q_levels, num_chunks) = if dim == 8192 { (32, 128) } else { (16, 32) };
    let mut out = Vec::new();
    for id_precision in IdPrecision::ALL {
        for level_style in [LevelStyle::Random, LevelStyle::Chunked { num_chunks }] {
            out.push(IdLevelEncoder::new(EncoderConfig {
                dim,
                q_levels,
                id_precision,
                level_style,
                num_bins: NUM_BINS,
                seed: 0x5eed ^ dim as u64,
            }));
        }
    }
    out
}

/// Encoders at the full-word dimension and the two ragged ones, built
/// once.
fn encoders() -> &'static [IdLevelEncoder] {
    static ENCODERS: OnceLock<Vec<IdLevelEncoder>> = OnceLock::new();
    ENCODERS.get_or_init(|| {
        [8192, 1000, 200]
            .into_iter()
            .flat_map(encoders_at)
            .collect()
    })
}

/// `count` seeded peaks over `bins` distinct bins (fewer bins than
/// peaks forces repeats), intensities spanning every level including
/// both ends.
fn spectrum(seed: u64, count: usize, bins: usize) -> BinnedSpectrum {
    let mut rng = StdRng::seed_from_u64(seed);
    let peaks = (0..count)
        .map(|i| BinnedPeak {
            bin: rng.gen_range(0..bins) as u32,
            intensity: match i % 7 {
                0 => 0.0,
                1 => 1.0,
                _ => rng.gen_range(0.0..1.0),
            },
        })
        .collect();
    BinnedSpectrum::from_peaks(seed as u32, peaks)
}

/// `count` copies of one peak: every dimension's sum is the worst case
/// `±count × |ID|`.
fn repeated_peak(count: usize, bin: u32, intensity: f32) -> BinnedSpectrum {
    BinnedSpectrum::from_peaks(0, vec![BinnedPeak { bin, intensity }; count])
}

/// Assert every route encodes `spectrum` to the reference hypervector,
/// and return it.
fn assert_routes_agree(encoder: &IdLevelEncoder, spectrum: &BinnedSpectrum) -> BinaryHypervector {
    let reference = encoder.quantize_accumulator(&encoder.accumulate(spectrum));
    let config = encoder.config();
    let what = format!(
        "{:?}/{:?} dim {} with {} peaks",
        config.id_precision,
        config.level_style,
        config.dim,
        spectrum.peaks().len()
    );
    for kernel in [KernelDispatch::scalar(), KernelDispatch::simd()] {
        assert_eq!(
            encoder.encode_with(kernel, spectrum),
            reference,
            "{} encode differs from the reference: {what}",
            kernel.name()
        );
    }
    assert_eq!(encoder.encode(spectrum), reference, "active kernel: {what}");
    reference
}

/// The largest peak count the bit-plane kernel accepts for `encoder`.
fn peak_bound(encoder: &IdLevelEncoder) -> usize {
    ENCODE_SUM_BOUND / usize::from(encoder.config().id_precision.max_abs().unsigned_abs())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random spectra, with bins drawn from a pool that is sometimes
    /// smaller than the peak count so repeats are common.
    #[test]
    fn random_spectra_match_the_reference(
        which in 0usize..18,
        count in 0usize..200,
        bins in 1usize..NUM_BINS,
        seed in any::<u64>(),
    ) {
        let encoder = &encoders()[which];
        assert_routes_agree(encoder, &spectrum(seed, count, bins));
    }
}

#[test]
fn block_edges_match_the_reference() {
    for encoder in encoders() {
        for count in [1, 30, 31, 32, 62, 63, 64, 126, 127, 128, 150] {
            assert_routes_agree(encoder, &spectrum(count as u64, count, NUM_BINS));
            // One bin repeated: the i8 block sums reach ±block × max |ID|.
            assert_routes_agree(encoder, &repeated_peak(count, 7, 1.0));
        }
    }
}

#[test]
fn empty_spectrum_is_the_tie_break_vector() {
    for encoder in encoders() {
        let tie_break = encoder.quantize_accumulator(&vec![0; encoder.config().dim]);
        let empty = BinnedSpectrum::from_peaks(0, Vec::new());
        assert_eq!(assert_routes_agree(encoder, &empty), tie_break);
    }
}

#[test]
fn sums_at_the_i16_bound_match_the_reference() {
    // The small ragged dimension keeps the reference affordable at up to
    // 32 767 peaks; repeating one peak drives every sum to the bound.
    for encoder in encoders().iter().filter(|e| e.config().dim == 200) {
        let bound = peak_bound(encoder);
        assert_routes_agree(encoder, &repeated_peak(bound, 3, 0.0));
        assert_routes_agree(encoder, &spectrum(bound as u64, bound, NUM_BINS));
    }
}

#[test]
fn spectra_above_the_bound_take_the_reference_route() {
    for encoder in encoders().iter().filter(|e| e.config().dim == 200) {
        let above = peak_bound(encoder) + 1;
        assert_routes_agree(encoder, &repeated_peak(above, 5, 1.0));
    }
}

#[test]
#[should_panic(expected = "overflow the i16 sums")]
fn kernel_rejects_sums_past_the_bound() {
    let words = [0u64; 2];
    let planes = [0u64; 6];
    let terms = vec![(&planes[..], &words[..]); ENCODE_SUM_BOUND / 4 + 1];
    let mut out = [0u64; 2];
    KernelDispatch::scalar().id_level_encode(100, 2, &terms, &words, &mut out);
}
