//! The untraced end-to-end runs: `search-open`, `search-cascade` and
//! `serve-mixed`.

use crate::inputs::{self, FDR, SETUP_REPS};
use crate::load::{self, Outcome, Plan};
use crate::replay::{replay, Stages};
use crate::stats::{median, reference_unit_s, Calibration, SplitMix};
use crate::{serve, Args, Report};
use hdoms_engine::Engine;
use hdoms_hdc::kernels;
use hdoms_oms::pipeline::PipelineOutcome;
use hdoms_oms::psm::Psm;
use hdoms_oms::window::PrecursorWindow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// p99 latency limit for single-spectrum requests, milliseconds: the
/// usual threshold below which a reply reads as immediate to a person
/// at a screen.
const LIMIT_MS: f64 = 100.0;

/// In-process single-spectrum sweep on the `search-*` workloads: one
/// caller, `Engine::search_with_workers(.., 1)` per spectrum. One
/// spectrum takes ~1.0-1.3 ms (mostly its encoding), so the caller
/// saturates near 800-1000/s. The reference rate (250/s, roughly a
/// quarter of that) gets half the sweep: ~1100 requests at the default
/// 20 s window. 125/s and 500/s show the latency below saturation;
/// 2000/s, a quarter of the sweep, is far beyond it and measures the
/// caller's capacity (printed as `interactive_max_rps`).
///
/// One worker rather than the engine's two: with two, every second
/// spectrum spawns a thread for its second shard, and the spectrum then
/// waits for whichever core the host is slowest to give back, which on
/// a shared two-core machine made the capacity vary three times as much
/// between runs.
pub fn search_plan() -> Plan {
    Plan {
        reference: 250.0,
        others: vec![125.0, 500.0, 2000.0],
        reference_share: 0.5,
        top_share: 0.25,
        rounds: ROUNDS,
        limit_ms: LIMIT_MS,
    }
}

/// Interactive-tier sweep on `serve-mixed`, under the batch-tier
/// stream. Each request can wait for the 16-spectrum batch grant in
/// flight, so one synchronous connection saturates near 120-150/s. The
/// reference rate (60/s, ~40% of that) gets 80% of the window: ~960
/// requests at the default 20 s window. 30/s and 120/s bracket it below
/// saturation; 480/s is far beyond it and measures the connection's
/// capacity (printed as `interactive_max_rps`).
pub fn serve_plan() -> Plan {
    Plan {
        reference: 60.0,
        others: vec![30.0, 120.0, 480.0],
        reference_share: 0.8,
        top_share: 0.1,
        rounds: ROUNDS,
        limit_ms: LIMIT_MS,
    }
}

/// Rounds of every sweep: reference blocks, and closed-loop chunk
/// searches on the `search-*` workloads.
const ROUNDS: usize = 16;
/// Queries per closed-loop `Engine::search` call on the `search-*`
/// workloads.
const CHUNK: usize = 200;
/// Share of a `search-*` run's window given to closed-loop chunk
/// searches (a slice of it before each round of the sweep).
const PASS_SHARE: f64 = 0.55;

/// Computed bytes per second the active `dot_many` kernel streams over
/// 4096 random reference rows (4 MiB at D = 8192): the scan's ceiling,
/// measured in the same run. Median of five timed blocks.
pub fn dot_many_ceiling_gb_per_s() -> f64 {
    let words = inputs::DIM / 64;
    let rows = 4096;
    let mut rng = SplitMix::new(0xd07);
    let table: Vec<u64> = (0..rows * words).map(|_| rng.next_u64()).collect();
    let query: Vec<u64> = (0..words).map(|_| rng.next_u64()).collect();
    let tiles: Vec<Vec<&[u64]>> = table
        .chunks(words)
        .collect::<Vec<_>>()
        .chunks(kernels::REFERENCE_TILE)
        .map(<[&[u64]]>::to_vec)
        .collect();
    let kernel = kernels::active();
    let mut out = [0i64; kernels::REFERENCE_TILE];
    let mut rates = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        let mut bytes = 0usize;
        while start.elapsed().as_secs_f64() < 0.05 {
            for tile in &tiles {
                kernel.dot_many(inputs::DIM, &query, tile, &mut out[..tile.len()]);
                std::hint::black_box(&out);
                bytes += tile.len() * words * 8;
            }
        }
        rates.push(bytes as f64 / start.elapsed().as_secs_f64() / 1e9);
    }
    median(&rates)
}

/// nproc, CPU model, resolved kernel and the same-run kernel ceiling.
pub fn machine_descriptor() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "machine nproc {nproc} cpu {:?} kernel {} dot_many_ceiling {:.2} GB/s (computed bytes)",
        inputs::cpu_model(),
        kernels::active().name(),
        dot_many_ceiling_gb_per_s()
    )
}

/// Each query's PSM in `outcome`, by query id (what every single-spectrum
/// answer is checked against).
pub fn expected_psms(outcome: &PipelineOutcome) -> HashMap<u32, Psm> {
    outcome.psms.iter().map(|p| (p.query_id, *p)).collect()
}

/// Gate: the untraced replay of the engine's stages gives the engine's
/// PSM list and accepted list.
fn replay_gate(
    report: &mut Report,
    engine: &Engine,
    queries: &[hdoms_ms::spectrum::Spectrum],
    prefilter: hdoms_prefilter::PrefilterConfig,
    reference: &PipelineOutcome,
) {
    let stages = Stages::new(engine);
    let window = PrecursorWindow::open_default();
    let r = replay(
        &stages,
        engine,
        queries,
        &window,
        prefilter,
        inputs::workers(),
        None,
    );
    report.gate(
        "replay_psms_equal_engine",
        r.psms == reference.psms && r.accepted == reference.accepted,
    );
}

/// The sweep's lines and metrics. With `units` (before each reference
/// block, the median of three one-thread calibration units),
/// `interactive_p50_ms` is the median over reference blocks of each
/// block's median restated at the reference host speed; without, the
/// median over every reference request as measured.
fn report_sweep(report: &mut Report, plan: &Plan, sweep: &load::Sweep, units: Option<&[f64]>) {
    for r in sweep.by_rate() {
        report.note(format!(
            "interactive {:>6.0}/s{} {} blocks {:.1} s: scheduled {} sent {} succeeded {} failed {} | p50 {:.3} p90 {:.3} p99 {:.3} ms | completed {:.1}/s | generator lag p99 {:.3} ms, worst final {:.3} ms | meets {:.0} ms limit: {}",
            r.rate,
            if r.rate == plan.reference { " (reference)" } else { "" },
            r.blocks, r.seconds, r.scheduled, r.sent, r.succeeded, r.failed, r.p50_ms, r.p90_ms, r.p99_ms, r.throughput, r.lag_p99_ms, r.final_lag_ms, plan.limit_ms, r.meets_limit
        ));
    }
    report.note(format!(
        "reference block p50s {:.4?} ms",
        sweep.reference.block_p50_ms
    ));
    let p50 = match units {
        Some(units) => {
            let scaled: Vec<f64> = sweep
                .reference
                .block_p50_ms
                .iter()
                .zip(units)
                .map(|(p50, unit)| p50 * reference_unit_s(1) / unit)
                .collect();
            report.note(format!(
                "interactive p50 {:.4} ms as measured, {:.4} ms at the reference host speed; calibration units before the blocks {units:.5?} s",
                sweep.reference.p50_ms,
                median(&scaled)
            ));
            median(&scaled)
        }
        None => sweep.reference.p50_ms,
    };
    report.metric("interactive_p50_ms", p50, "ms");
    // Printed, not gated: between runs on a shared two-core machine it
    // moved more than any bound allows (see README.md).
    report.note(format!(
        "interactive_max_rps = {:.1} 1/s (completion rate at {:.0}/s, median of its blocks)",
        sweep.max_rps(),
        plan.others.last().map_or(plan.reference, |&r| r)
    ));
    report.attempted += sweep.sent();
    report.failed += sweep.failed();
    if sweep.wrong() > 0 {
        report
            .mismatches
            .push("interactive_answers_correct".to_owned());
    }
}

/// `search-open` / `search-cascade`: closed-loop `Engine::search` over
/// chunks of the queries, interleaved with the in-process
/// single-spectrum sweep.
pub fn search(args: &Args) -> Report {
    let mut report = Report::default();
    let workload = inputs::generate(args.seed);
    let queries = &workload.queries;
    let workers = inputs::workers();
    let prefilter = args.workload.prefilter();
    let path = inputs::image_path(args.workload.name());
    let window = PrecursorWindow::open_default();

    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let start = Instant::now();
        let mut e = inputs::setup_engine(&workload.library, &path, workers);
        e.set_prefilter(prefilter)
            .expect("index-backed engines accept the prefilter");
        setups.push(start.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = Arc::new(engine.expect("at least one set-up"));
    report.note(format!("setup_s samples {setups:?}"));
    report.metric("setup_s", median(&setups), "s");

    let mismatched = inputs::hv_mismatches(
        &workload.library,
        engine.index().expect("index-backed"),
        args.seed,
    );
    report.gate("reference_hvs_equal_image", mismatched == 0);

    // The first full pass gives the answers everything else is checked
    // against.
    let (first, _) = engine.search(queries, window, FDR);
    let expected = expected_psms(&first);
    let plan = search_plan();

    // Closed loop: one caller runs `Engine::search` over one chunk of
    // the queries after another, round-robin, for a fixed share of
    // every round of the interactive sweep. On a shared host the speed
    // of the same code moves by tens of percent from one minute to the
    // next, so right before each chunk one calibration unit, on as many
    // threads as the engine has workers, gives the host's speed at that
    // moment, and the chunk's time is restated at the reference host's
    // speed. Three units on one thread before each reference block of
    // the sweep do the same for the single-spectrum latency.
    let chunks: Vec<&[hdoms_ms::spectrum::Spectrum]> = queries.chunks(CHUNK).collect();
    let chunk_psms: Vec<Vec<Psm>> = chunks
        .iter()
        .map(|chunk| {
            chunk
                .iter()
                .filter_map(|s| expected.get(&s.id).copied())
                .collect()
        })
        .collect();
    let cal = Calibration::new();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); chunks.len()];
    let mut scaled: Vec<Vec<f64>> = vec![Vec::new(); chunks.len()];
    let mut units = Vec::new();
    let mut block_units = Vec::new();
    let mut differing = 0;
    let mut next = 0;
    let round_budget = args.seconds * PASS_SHARE / plan.rounds as f64;
    let mut pass = || {
        let round = Instant::now();
        while round.elapsed().as_secs_f64() < round_budget {
            let c = next % chunks.len();
            next += 1;
            let unit = cal.time(workers);
            let t = Instant::now();
            let (outcome, _) = engine.search(chunks[c], window, FDR);
            let wall = t.elapsed().as_secs_f64();
            units.push(unit);
            walls[c].push(wall);
            scaled[c].push(wall * reference_unit_s(workers) / unit);
            differing += usize::from(outcome.psms != chunk_psms[c]);
        }
        block_units.push(median(&[cal.time(1), cal.time(1), cal.time(1)]));
    };
    let sweep = load::run(
        &plan,
        args.seconds * (1.0 - PASS_SHARE),
        args.seed,
        queries.len(),
        &mut pass,
        |i| {
            let spectrum = &queries[i];
            let (outcome, _) =
                engine.search_with_workers(std::slice::from_ref(spectrum), window, FDR, 1);
            if outcome.psms.first().copied() == expected.get(&spectrum.id).copied() {
                Outcome::Ok
            } else {
                Outcome::Wrong
            }
        },
    );
    let runs: usize = walls.iter().map(Vec::len).sum();
    report.attempted += 1 + runs;
    report.failed += differing;
    if differing > 0 {
        report
            .mismatches
            .push("chunk_psms_equal_full_pass".to_owned());
    }
    // A pass is every chunk once, each at its median time.
    let raw_s: f64 = walls.iter().map(|w| median(w)).sum();
    let pass_s: f64 = scaled.iter().map(|w| median(w)).sum();
    let per_chunk: Vec<usize> = walls.iter().map(Vec::len).collect();
    report.note(format!(
        "closed loop: {} chunks of {CHUNK}, {runs} chunk searches (per chunk {per_chunk:?}); pass {raw_s:.4} s as measured ({:.1} queries/s), {pass_s:.4} s at the reference host speed; calibration unit median {:.6} s (reference {} s)",
        chunks.len(),
        queries.len() as f64 / raw_s,
        median(&units),
        reference_unit_s(workers)
    ));
    report.metric("search_qps", queries.len() as f64 / pass_s, "1/s");
    report.metric("ids_1pct_fdr", first.identifications() as f64, "count");
    replay_gate(&mut report, &engine, queries, prefilter, &first);
    report_sweep(&mut report, &plan, &sweep, Some(&block_units));
    report
}

/// `serve-mixed`: the batch-tier session stream and the interactive
/// sweep against an in-process server.
pub fn serve_mixed(args: &Args) -> Report {
    let mut report = Report::default();
    let workload = inputs::generate(args.seed);
    let queries = &workload.queries;
    let workers = inputs::workers();
    let prefilter = args.workload.prefilter();

    let mut setups = Vec::new();
    let mut served = None;
    for rep in 0..SETUP_REPS {
        // Each set-up writes its own image: earlier servers keep theirs
        // mapped until the process ends.
        let path = inputs::image_path(&format!("{}-{rep}", args.workload.name()));
        let start = Instant::now();
        inputs::build_and_write(&workload.library, &path, workers);
        let addr = serve::start(&path, workers, prefilter);
        setups.push(start.elapsed().as_secs_f64());
        served = Some((path, addr));
    }
    let (path, addr) = served.expect("at least one set-up");
    report.note(format!("setup_s samples {setups:?}"));
    report.metric("setup_s", median(&setups), "s");

    // The in-process answer every served answer is checked against.
    let engine =
        Arc::new(Engine::open_mapped(&path, workers).expect("open the served image in-process"));
    let mismatched = inputs::hv_mismatches(
        &workload.library,
        engine.index().expect("index-backed"),
        args.seed,
    );
    report.gate("reference_hvs_equal_image", mismatched == 0);
    let (reference, _) = engine.search(queries, PrecursorWindow::open_default(), FDR);
    replay_gate(&mut report, &engine, queries, prefilter, &reference);
    let expected = expected_psms(&reference);

    let plan = serve_plan();
    let run = serve::run_mixed(
        addr,
        queries,
        &expected,
        &plan,
        args.seconds,
        args.seed,
        false,
    );
    report.gate(
        "session_ids_equal_search_open",
        run.session_ids == Some(reference.identifications()),
    );
    report.note(format!(
        "batch stream: {} submits of {} spectra, {:.1} queries/s",
        run.submits.len(),
        serve::BATCH_SIZE,
        run.batch_qps
    ));
    report.metric("search_qps", run.batch_qps, "1/s");
    report.metric("ids_1pct_fdr", run.session_ids.unwrap_or(0) as f64, "count");
    report.attempted += run.attempted;
    report.failed += run.failed;
    report_sweep(&mut report, &plan, &run.sweep, None);
    report
}
