//! End-to-end and per-layer benchmark of the hdoms open-search stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload search-open|search-cascade|serve-mixed \
//!     --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`
//! (the end-to-end metrics with `--trace 0`, the per-layer metrics of
//! the traced replay with `--trace 1`). See `perfbench/README.md`.

mod inputs;
mod load;
mod replay;
mod serve;
mod stats;
mod trace;
mod traced;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SearchOpen,
    SearchCascade,
    ServeMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "search-open" => Some(Workload::SearchOpen),
            "search-cascade" => Some(Workload::SearchCascade),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchOpen => "search-open",
            Workload::SearchCascade => "search-cascade",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// The candidate prefilter the workload searches with.
    pub fn prefilter(self) -> hdoms_prefilter::PrefilterConfig {
        match self {
            Workload::SearchCascade => {
                hdoms_prefilter::PrefilterConfig::TopK(hdoms_prefilter::DEFAULT_TOP_K)
            }
            Workload::SearchOpen | Workload::ServeMixed => hdoms_prefilter::PrefilterConfig::Off,
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// One run's result.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: usize,
    pub failed: usize,
    /// Correctness gates that failed, by name.
    pub mismatches: Vec<String>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count one correctness gate: an attempted operation that fails
    /// (and marks the run incorrect) when `ok` is false.
    pub fn gate(&mut self, name: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.mismatches.push(name.to_owned());
        }
        self.note(format!(
            "gate {name}: {}",
            if ok { "ok" } else { "MISMATCH" }
        ));
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        // JSON has no infinities; a figure that never completed reads
        // as a very large finite value (and is flagged in the notes).
        "1e300".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let machine = workloads::machine_descriptor();
    let mut report = if args.trace {
        traced::run(&args)
    } else {
        match args.workload {
            Workload::SearchOpen | Workload::SearchCascade => workloads::search(&args),
            Workload::ServeMixed => workloads::serve_mixed(&args),
        }
    };
    if !args.trace {
        report.metric("peak_rss_mb", inputs::peak_rss_mb(), "MB");
    }
    let _ = std::fs::remove_dir_all(inputs::work_dir());

    println!("{machine}");
    println!(
        "workload {} seed {} seconds {} trace {} | refs {} (iprg2012 x{}) queries {} dim {} workers {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        (inputs::SCALE * 1_000_000.0) as usize,
        inputs::SCALE,
        inputs::QUERIES,
        inputs::DIM,
        inputs::workers(),
    );
    for line in &report.notes {
        println!("{line}");
    }
    for (name, value, unit) in &report.metrics {
        if !value.is_finite() {
            println!("WARNING {name} did not complete ({value})");
        }
        println!("metric {name} = {value:.6} {unit}");
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "metric failed_frac = {failed_frac} frac ({} failed of {} attempted)",
        report.failed, report.attempted
    );
    let correct = report.mismatches.is_empty();
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.attempted.max(1),
        report.failed
    );
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}
