//! The traced run (`--trace 1`): every layer's public function called
//! from outside, in pipeline order, on the workload's inputs, with
//! spans recorded around each call. Per-layer metrics are computed from
//! the spans; the spans are written to
//! `perfbench/out/spans-<workload>-seed<seed>.jsonl` at the end.

use crate::inputs::{self, FDR};
use crate::load::Plan;
use crate::replay::{replay, side_stage, Stages};
use crate::stats::{median, quantile};
use crate::trace::{Recorder, BATCH};
use crate::workloads;
use crate::{serve, Args, Report};
use hdoms_engine::Engine;
use hdoms_hdc::parallel::par_map;
use hdoms_index::IndexBuilder;
use hdoms_ms::preprocess::{BinnedSpectrum, Preprocessor};
use hdoms_oms::window::PrecursorWindow;
use hdoms_prefilter::DEFAULT_TOP_K;
use hdoms_serve::{Request, Response};
use std::path::Path;
use std::sync::Arc;

/// Seconds of mixed load in the traced run's serve probe.
const SERVE_PROBE_SECONDS: f64 = 5.0;
/// Batch submits sent through each client in the client comparison.
const CLIENT_COMPARISON_SUBMITS: usize = 100;
/// Codec passes over the captured payloads (the median pass counts).
const CODEC_PASSES: usize = 5;

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let rec = Recorder::new();
    let workload = inputs::generate(args.seed);
    let queries = &workload.queries;
    let library = &workload.library;
    let workers = inputs::workers();
    let prefilter = args.workload.prefilter();
    let window = PrecursorWindow::open_default();
    let path = inputs::image_path(args.workload.name());

    // index: build, write, open mapped.
    let index = rec.span("index.build", BATCH, || {
        IndexBuilder::new(inputs::index_config(workers)).from_library(library)
    });
    std::fs::create_dir_all(path.parent().expect("image path has a parent"))
        .expect("create the work directory");
    rec.span("index.write", BATCH, || index.write(&path))
        .expect("write the index image");
    drop(index);
    let image_bytes = std::fs::metadata(&path).expect("image written").len() as f64;
    let mut engine = rec
        .span("index.open_mapped", BATCH, || {
            Engine::open_mapped(&path, workers)
        })
        .expect("open the index image mapped");
    engine
        .set_prefilter(prefilter)
        .expect("index-backed engines accept the prefilter");
    let engine = Arc::new(engine);
    let stages = Stages::new(&engine);

    // The build's own preprocess and encode, timed standalone at the
    // build's thread count, so the build's self time can be separated.
    let config = inputs::exact_config();
    let pre = Preprocessor::new(config.preprocess);
    let binned_library: Vec<BinnedSpectrum> = rec
        .span("ms.preprocess.library", BATCH, || {
            par_map(library.entries(), workers, |e| pre.run(&e.spectrum).ok())
        })
        .into_iter()
        .flatten()
        .collect();
    rec.span("hdc.encode.library", BATCH, || {
        stages.encoder().encode_batch(&binned_library, workers)
    });
    drop(binned_library);

    let ceiling = rec.span(
        "hdc.kernels.dot_many",
        BATCH,
        workloads::dot_many_ceiling_gb_per_s,
    );

    // engine: the whole search at 1 worker and at the run's workers;
    // the replay bare, traced, bare again, and the 1-worker search
    // again, so slow drift of the host shows in neither comparison.
    let (one, one_receipt) = rec.span("engine.search.1w", BATCH, || {
        engine.search_with_workers(queries, window, FDR, 1)
    });
    let (all, _) = rec.span("engine.search.nw", BATCH, || {
        engine.search_with_workers(queries, window, FDR, workers)
    });
    report.gate(
        "engine_worker_budgets_agree",
        one.psms == all.psms && one.accepted == all.accepted,
    );
    let bare_before = replay(&stages, &engine, queries, &window, prefilter, 1, None);
    let traced = replay(&stages, &engine, queries, &window, prefilter, 1, Some(&rec));
    let bare_after = replay(&stages, &engine, queries, &window, prefilter, 1, None);
    let (again, _) = rec.span("engine.search.1w", BATCH, || {
        engine.search_with_workers(queries, window, FDR, 1)
    });
    for (name, r) in [
        ("replay", &traced),
        ("untraced_replay", &bare_before),
        ("untraced_replay_again", &bare_after),
    ] {
        report.gate(
            &format!("{name}_psms_equal_engine"),
            r.psms == one.psms && r.accepted == one.accepted,
        );
    }
    report.gate(
        "engine_repeats_exactly",
        again.psms == one.psms && again.accepted == one.accepted,
    );
    let side = rec.span("engine.side_stage", BATCH, || {
        side_stage(
            &stages,
            &traced,
            DEFAULT_TOP_K,
            prefilter.top_k().is_some(),
            &rec,
        )
    });

    let mismatched =
        inputs::hv_mismatches(library, engine.index().expect("index-backed"), args.seed);
    report.gate("reference_hvs_equal_image", mismatched == 0);

    // serve: a short mixed-load probe at the reference rate.
    let addr = rec.span("serve.start", BATCH, || {
        serve::start(&path, workers, prefilter)
    });
    let expected = workloads::expected_psms(&one);
    // The serve-mixed sweep, shortened to the traced run's probe.
    let probe = Plan {
        rounds: 2,
        ..workloads::serve_plan()
    };
    let run = serve::run_mixed(
        addr,
        queries,
        &expected,
        &probe,
        SERVE_PROBE_SECONDS,
        args.seed,
        true,
    );
    report.attempted += run.attempted + run.sweep.sent();
    report.failed += run.failed + run.sweep.failed();
    report.gate(
        "session_ids_equal_engine",
        run.session_ids == Some(one.identifications()),
    );
    for r in &run.interactive {
        rec.record(
            "serve.request.interactive",
            u64::from(r.query),
            r.start,
            r.end,
        );
    }
    for (i, s) in run.submits.iter().enumerate() {
        rec.record("serve.request.batch", i as u64, s.start, s.end);
    }
    for (kind, lines) in [
        (
            "interactive query",
            run.payloads
                .requests
                .iter()
                .filter(|r| matches!(r, Request::Query(_)))
                .map(|r| r.encode().len())
                .collect::<Vec<_>>(),
        ),
        (
            "batch submit",
            run.payloads
                .requests
                .iter()
                .filter(|r| matches!(r, Request::SessionSubmit { .. }))
                .map(|r| r.encode().len())
                .collect(),
        ),
    ] {
        report.note(format!(
            "payload {kind}: {} captured, mean {:.0} bytes, max {} bytes",
            lines.len(),
            lines.iter().sum::<usize>() as f64 / lines.len().max(1) as f64,
            lines.iter().max().unwrap_or(&0)
        ));
    }
    let (encode_us, decode_us, codec_ok) = codec(&rec, &run.payloads);
    report.gate("codec_round_trips", codec_ok);
    let (net_rtt, line_rtt) = serve::submit_rtt_by_client(addr, queries, CLIENT_COMPARISON_SUBMITS);
    report.attempted += net_rtt.len() + line_rtt.len();
    report.failed += net_rtt
        .iter()
        .chain(&line_rtt)
        .filter(|r| !r.is_finite())
        .count();

    // ---- per-layer metrics --------------------------------------------
    let n = traced.ids.len().max(1) as f64;
    let us_per_query = |name: &str| rec.total_ms(name) * 1e3 / n;
    let dim = inputs::DIM as f64;
    let encode_ms = rec.total_ms("hdc.encode");
    let scan_ms = rec.total_ms("oms.scan");
    report.metric("hdc.encode.us_per_query", us_per_query("hdc.encode"), "us");
    report.metric(
        "hdc.encode.gops",
        traced.peaks as f64 * dim / (encode_ms / 1e3) / 1e9,
        "Gop/s",
    );
    report.metric(
        "hdc.encode.library_us_per_ref",
        rec.total_ms("hdc.encode.library") * 1e3 / library.len() as f64,
        "us",
    );
    report.metric("hdc.kernels.dot_many_gb_per_s", ceiling, "GB/s");
    let scan_gb_per_s = traced.scanned as f64 * dim / 8.0 / (scan_ms / 1e3) / 1e9;
    report.metric("oms.scan.us_per_query", us_per_query("oms.scan"), "us");
    report.metric(
        "oms.scan.candidates_per_query",
        traced.scanned as f64 / n,
        "count",
    );
    report.metric("oms.scan.gb_per_s", scan_gb_per_s, "GB/s");
    report.metric("oms.scan.roofline_frac", scan_gb_per_s / ceiling, "frac");
    report.metric(
        "prefilter.narrow.us_per_query",
        us_per_query("prefilter.narrow"),
        "us",
    );
    report.metric(
        "prefilter.kept_frac",
        side.kept as f64 / side.window.max(1) as f64,
        "frac",
    );
    report.metric(
        "prefilter.recall",
        side.recalled as f64 / side.with_hit.max(1) as f64,
        "frac",
    );
    report.metric(
        "ms.preprocess.us_per_query",
        us_per_query("ms.preprocess"),
        "us",
    );
    report.metric(
        "oms.candidates.us_per_query",
        us_per_query("oms.candidates"),
        "us",
    );
    report.metric(
        "oms.candidates.per_query",
        traced.window_candidates as f64 / n,
        "count",
    );
    report.metric(
        "oms.assemble.us_per_query",
        us_per_query("oms.assemble"),
        "us",
    );
    report.metric("oms.fdr.ms", rec.total_ms("oms.fdr"), "ms");

    let wall_1w = rec.total_ms("engine.search.1w") / 2.0;
    let replay_sum = rec.children_ms("engine.replay");
    report.metric("engine.wall_1w_ms", wall_1w, "ms");
    report.metric("engine.replay_sum_ms", replay_sum, "ms");
    report.metric("engine.overhead_ms", wall_1w - replay_sum, "ms");
    report.metric(
        "engine.parallel_eff",
        wall_1w / (workers as f64 * rec.total_ms("engine.search.nw")),
        "frac",
    );
    report.metric(
        "index.shards_touched_per_query",
        one_receipt.shards_touched as f64 / n,
        "count",
    );
    let bare_ms = (bare_before.wall_ms + bare_after.wall_ms) / 2.0;
    report.metric(
        "trace.overhead_frac",
        (traced.wall_ms - bare_ms) / bare_ms,
        "frac",
    );

    let build_s = rec.total_ms("index.build") / 1e3;
    let standalone_s =
        (rec.total_ms("ms.preprocess.library") + rec.total_ms("hdc.encode.library")) / 1e3;
    report.metric("index.build.self_s", build_s - standalone_s, "s");
    report.metric(
        "index.write.mb_per_s",
        image_bytes / 1e6 / (rec.total_ms("index.write") / 1e3),
        "MB/s",
    );
    report.metric("index.image_bytes", image_bytes, "bytes");
    report.metric(
        "index.open_mapped.ms",
        rec.total_ms("index.open_mapped"),
        "ms",
    );

    report.metric("serve.codec.encode_us", encode_us, "us");
    report.metric("serve.codec.decode_us", decode_us, "us");
    let wire: Vec<f64> = run
        .interactive
        .iter()
        .map(|r| r.rtt_ms - r.latency_ms - r.wait_ms)
        .collect();
    report.metric("serve.wire.overhead_ms", median(&wire), "ms");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.metric("serve.wire.submit_rtt_ms.net_client", mean(&net_rtt), "ms");
    report.metric("serve.wire.submit_rtt_ms.one_write", mean(&line_rtt), "ms");
    let interactive_wait: Vec<f64> = run.interactive.iter().map(|r| r.wait_ms).collect();
    let batch_wait: Vec<f64> = run.submits.iter().map(|s| s.wait_ms).collect();
    report.metric(
        "serve.scheduler.interactive.wait_ms.p50",
        quantile(&interactive_wait, 0.5),
        "ms",
    );
    report.metric(
        "serve.scheduler.interactive.wait_ms.p99",
        quantile(&interactive_wait, 0.99),
        "ms",
    );
    report.metric(
        "serve.scheduler.batch.wait_ms.p50",
        quantile(&batch_wait, 0.5),
        "ms",
    );
    report.metric(
        "serve.scheduler.batch.wait_ms.p99",
        quantile(&batch_wait, 0.99),
        "ms",
    );
    report.metric("serve.gen.lag_ms.p99", run.sweep.reference.lag_p99_ms, "ms");
    report.metric(
        "serve.interactive.latency_ms.p99",
        run.sweep.reference.p99_ms,
        "ms",
    );
    report.metric("serve.interactive.max_rps", run.sweep.max_rps(), "1/s");
    report.note(format!(
        "serve probe: {} interactive at the reference rate (sent {} succeeded {} failed {}), {} batch submits, batch stream {:.1} queries/s",
        run.sweep.reference.scheduled,
        run.sweep.reference.sent,
        run.sweep.reference.succeeded,
        run.sweep.reference.failed,
        run.submits.len(),
        run.batch_qps
    ));

    // Self time per layer across the whole traced run. The engine's own
    // search spans are the reconciliation reference, not part of the
    // decomposition, so they are left out.
    let layers = rec.self_ms_by_layer(|name| name.starts_with("engine.search"));
    for layer in ["ms", "hdc", "prefilter", "oms", "engine", "index", "serve"] {
        let value = layers.get(layer).copied().unwrap_or(0.0);
        report.metric(format!("{layer}.self_ms"), value, "ms");
    }

    let spans_path = Path::new("perfbench").join("out").join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match rec.write_jsonl(&spans_path) {
        Ok(()) => report.note(format!(
            "spans: {} written to {}",
            rec.spans().len(),
            spans_path.display()
        )),
        Err(e) => report.note(format!(
            "spans: could not write {}: {e}",
            spans_path.display()
        )),
    }
    report
}

/// Encode and decode every captured payload `CODEC_PASSES` times;
/// returns the median pass's µs per message for each direction and
/// whether every message decoded back to itself.
fn codec(rec: &Recorder, payloads: &serve::Payloads) -> (f64, f64, bool) {
    let messages = (payloads.requests.len() + payloads.responses.len()).max(1) as f64;
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut ok = true;
    for _ in 0..CODEC_PASSES {
        let start = std::time::Instant::now();
        let (lines_in, lines_out) = rec.span("serve.codec.encode", BATCH, || {
            (
                payloads
                    .requests
                    .iter()
                    .map(Request::encode)
                    .collect::<Vec<_>>(),
                payloads
                    .responses
                    .iter()
                    .map(Response::encode)
                    .collect::<Vec<_>>(),
            )
        });
        encode.push(start.elapsed().as_secs_f64() * 1e6 / messages);
        let start = std::time::Instant::now();
        let (requests, responses) = rec.span("serve.codec.decode", BATCH, || {
            (
                lines_in
                    .iter()
                    .map(|l| Request::decode(l))
                    .collect::<Vec<_>>(),
                lines_out
                    .iter()
                    .map(|l| Response::decode(l))
                    .collect::<Vec<_>>(),
            )
        });
        decode.push(start.elapsed().as_secs_f64() * 1e6 / messages);
        ok &= requests
            .iter()
            .zip(&payloads.requests)
            .all(|(got, want)| got.as_ref() == Ok(want))
            && responses
                .iter()
                .zip(&payloads.responses)
                .all(|(got, want)| got.as_ref() == Ok(want));
    }
    (median(&encode), median(&decode), ok)
}
