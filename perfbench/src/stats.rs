//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty slice. Infinite samples
/// (requests that never completed) sort last.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi || sorted[hi].is_infinite() {
        return sorted[hi];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Deterministic 64-bit generator (SplitMix64) for the benchmark's own
/// seeded choices: arrival schedules and samples.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A fixed unit of work that is the benchmark's own (nothing in the
/// program under test runs it), shaped like hypervector encoding:
/// multiply-accumulate of seeded random 8 KiB rows of a 16 MiB `i8`
/// table (larger than the core's L2, like the encoder's item memory)
/// into an `i32` accumulator. Timed right before a piece of the
/// program's work, it says how fast the host ran at that moment, so the
/// work's time can be restated at a fixed host speed (see
/// [`reference_unit_s`]).
pub struct Calibration {
    table: Vec<i8>,
}

/// Seconds a calibration unit takes on `threads` threads at once
/// (one unit each) on the reference host, a 2-vCPU Intel Xeon VM: about
/// its median over the runs made there. A time `t` measured next to a
/// unit that took `u` seconds is `t * reference_unit_s(threads) / u` at
/// the reference host's speed.
pub fn reference_unit_s(threads: usize) -> f64 {
    if threads <= 1 {
        0.0035
    } else {
        0.0037
    }
}

const ROW: usize = 8192;
const TABLE_ROWS: usize = 2048;
/// Rows accumulated per unit.
const UNIT_ROWS: usize = 1024;

impl Calibration {
    pub fn new() -> Calibration {
        let mut rng = SplitMix::new(0xca1);
        Calibration {
            table: (0..ROW * TABLE_ROWS)
                .map(|_| rng.next_u64() as i8)
                .collect(),
        }
    }

    /// Wall seconds for `threads` threads to run one unit each at once
    /// (the work it is set beside runs on that many threads).
    pub fn time(&self, threads: usize) -> f64 {
        let start = std::time::Instant::now();
        if threads <= 1 {
            self.unit(0);
        } else {
            std::thread::scope(|scope| {
                for t in 0..threads {
                    scope.spawn(move || self.unit(t as u64));
                }
            });
        }
        start.elapsed().as_secs_f64()
    }

    fn unit(&self, stream: u64) {
        let mut rng = SplitMix::new(0x5eed ^ stream);
        let mut acc = vec![0i32; ROW];
        let sign: Vec<i8> = (0..ROW).map(|d| if d % 3 == 0 { -1 } else { 1 }).collect();
        for _ in 0..UNIT_ROWS {
            let r = rng.below(TABLE_ROWS);
            let row = &self.table[r * ROW..(r + 1) * ROW];
            for ((a, &x), &s) in acc.iter_mut().zip(row).zip(&sign) {
                *a += i32::from(x) * i32::from(s);
            }
        }
        std::hint::black_box(&acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_keep_infinities_last() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 0.99), f64::INFINITY);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
