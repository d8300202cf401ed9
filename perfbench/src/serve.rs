//! The mixed-tier serving workload: an in-process `hdoms_serve` server
//! on a loopback listener, driven over two connections.
//!
//! * The batch-tier connection streams every query as 16-spectrum
//!   `session.submit` requests in a closed loop and finalizes the
//!   session; it keeps streaming fresh sessions until the interactive
//!   sweep is over (and at least one session has finalized). It sends
//!   through [`LineClient`] (see there for why not `net::Client`).
//! * The interactive-tier connection sends single-spectrum `query`
//!   requests through `net::Client` on the seeded open-loop schedule of
//!   [`crate::load`].

use crate::inputs::FDR;
use crate::load::{self, Outcome, Plan};
use hdoms_ms::spectrum::Spectrum;
use hdoms_oms::psm::Psm;
use hdoms_prefilter::PrefilterConfig;
use hdoms_serve::net;
use hdoms_serve::protocol::{QueryRequest, QuerySpectrum, WindowKind};
use hdoms_serve::scheduler::Tier;
use hdoms_serve::{Client, Request, Response, Server};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Name the index is resident under.
pub const INDEX: &str = "lib";
/// Spectra per batch-tier `session.submit`.
pub const BATCH_SIZE: usize = 16;

/// Start a server with `workers` worker tokens over the mapped image at
/// `path`, listening on an ephemeral loopback port.
///
/// The accept loop (`net::serve_listener`) never returns, so its thread
/// is detached and ends with the process.
pub fn start(path: &Path, workers: usize, prefilter: PrefilterConfig) -> SocketAddr {
    let mut server = Server::new(workers);
    server.set_prefilter(prefilter);
    server
        .load_index(INDEX, path.to_str().expect("UTF-8 image path"))
        .expect("load the index image into the server");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener");
    let addr = listener.local_addr().expect("listener address");
    let server = Arc::new(server);
    std::thread::spawn(move || net::serve_listener(server, listener));
    addr
}

/// A line-protocol client that sends each request line, newline
/// included, in one write.
///
/// `net::Client::request` writes the encoded line and its newline in
/// two writes. A request larger than its 8 KiB write buffer (every
/// 16-spectrum submit) goes out as one segment and the newline as a
/// second one, which Nagle's algorithm holds until the server's delayed
/// acknowledgement: a stall of up to ~40 ms that comes and goes with
/// the kernel's acknowledgement heuristics (on a 2-vCPU VM, over five
/// seeds, the batch stream ran anywhere from ~390 to ~1190 queries/s
/// through `net::Client`). The batch-tier stream uses this client so its
/// throughput measures the server, not that stall; the traced run
/// compares the two clients' mean round trips
/// (`serve.wire.submit_rtt_ms.*`). Single-spectrum requests (~4 KB)
/// fit the buffer and go out in one write either way, so the
/// interactive connection uses `net::Client`.
pub struct LineClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl LineClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<LineClient> {
        let stream = TcpStream::connect(addr)?;
        Ok(LineClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    pub fn request(&mut self, request: &Request) -> Result<Response, String> {
        let mut line = request.encode();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("server closed the connection".to_owned()),
            Ok(_) => Response::decode(reply.trim_end()),
            Err(e) => Err(format!("receive failed: {e}")),
        }
    }
}

/// One interactive request as seen from the client.
#[derive(Debug, Clone, Copy)]
pub struct Interactive {
    pub query: u32,
    pub start: Instant,
    pub end: Instant,
    pub rtt_ms: f64,
    pub latency_ms: f64,
    pub wait_ms: f64,
}

/// One batch-tier submit as seen from the client.
#[derive(Debug, Clone, Copy)]
pub struct Submit {
    pub start: Instant,
    pub end: Instant,
    pub wait_ms: f64,
}

/// Request/response pairs kept for the codec measurement.
#[derive(Default)]
pub struct Payloads {
    pub requests: Vec<Request>,
    pub responses: Vec<Response>,
}

pub struct MixedRun {
    pub sweep: load::Sweep,
    pub interactive: Vec<Interactive>,
    pub submits: Vec<Submit>,
    /// Queries per second through the batch-tier stream.
    pub batch_qps: f64,
    /// Identifications of the first finalized session.
    pub session_ids: Option<usize>,
    /// Requests attempted and failed on the batch-tier connection
    /// (the interactive ones are counted per rate, in `sweep`).
    pub attempted: usize,
    pub failed: usize,
    pub payloads: Payloads,
}

fn spectrum_payload(spectra: &[Spectrum]) -> Vec<QuerySpectrum> {
    spectra.iter().map(QuerySpectrum::from_spectrum).collect()
}

struct BatchStream {
    submits: Vec<Submit>,
    session_ids: Option<usize>,
    queries: usize,
    seconds: f64,
    attempted: usize,
    failed: usize,
    payloads: Payloads,
}

/// The batch-tier closed loop (runs on its own connection and thread).
fn batch_stream(
    addr: SocketAddr,
    queries: &[Spectrum],
    stop: &AtomicBool,
    capture: bool,
) -> BatchStream {
    let mut client = LineClient::connect(addr).expect("connect the batch-tier client");
    let mut out = BatchStream {
        submits: Vec::new(),
        session_ids: None,
        queries: 0,
        seconds: 0.0,
        attempted: 0,
        failed: 0,
        payloads: Payloads::default(),
    };
    let start = Instant::now();
    'sessions: while !(stop.load(Ordering::SeqCst) && out.session_ids.is_some()) {
        out.attempted += 1;
        let open = Request::SessionOpen {
            index: INDEX.to_owned(),
            window: WindowKind::Open,
            tier: Tier::Batch,
            prefilter: None,
        };
        let session = match client.request(&open) {
            Ok(Response::SessionOpened { session, .. }) => session,
            _ => {
                out.failed += 1;
                break;
            }
        };
        for chunk in queries.chunks(BATCH_SIZE) {
            if stop.load(Ordering::SeqCst) && out.session_ids.is_some() {
                out.attempted += 1;
                let close = Request::SessionClose { session };
                if !matches!(client.request(&close), Ok(Response::SessionClosed { .. })) {
                    out.failed += 1;
                }
                break 'sessions;
            }
            let request = Request::SessionSubmit {
                session,
                spectra: spectrum_payload(chunk),
            };
            out.attempted += 1;
            let t0 = Instant::now();
            let response = client.request(&request);
            let t1 = Instant::now();
            match response {
                Ok(Response::Receipt(receipt)) if receipt.queries == chunk.len() => {
                    out.queries += chunk.len();
                    out.submits.push(Submit {
                        start: t0,
                        end: t1,
                        wait_ms: receipt.wait_ms,
                    });
                    if capture && out.payloads.requests.len() < 8 {
                        out.payloads.requests.push(request);
                        out.payloads.responses.push(Response::Receipt(receipt));
                    }
                }
                _ => out.failed += 1,
            }
        }
        out.attempted += 1;
        let finalize = Request::SessionFinalize { session, fdr: FDR };
        match client.request(&finalize) {
            Ok(Response::Result(result)) => {
                if out.session_ids.is_none() {
                    out.session_ids = Some(result.stats.identifications);
                }
            }
            _ => out.failed += 1,
        }
    }
    out.seconds = start.elapsed().as_secs_f64();
    out
}

/// Run the mixed load: the batch stream for the whole sweep, and the
/// interactive sweep `plan` over `seconds`. `expected` maps each query
/// id to the PSM the in-process engine found for it (absent when the
/// query has none); every interactive answer is checked against it.
pub fn run_mixed(
    addr: SocketAddr,
    queries: &[Spectrum],
    expected: &HashMap<u32, Psm>,
    plan: &Plan,
    seconds: f64,
    seed: u64,
    capture: bool,
) -> MixedRun {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let batch = scope.spawn(|| batch_stream(addr, queries, &stop, capture));
        let mut client = Client::connect(addr).expect("connect the interactive client");
        let mut interactive = Vec::new();
        let mut payloads = Payloads::default();
        let sweep = load::run(
            plan,
            seconds,
            seed,
            queries.len(),
            || {},
            |i| {
                let spectrum = &queries[i];
                let request = Request::Query(QueryRequest {
                    index: INDEX.to_owned(),
                    window: WindowKind::Open,
                    fdr: FDR,
                    tier: Tier::Interactive,
                    prefilter: None,
                    spectra: spectrum_payload(std::slice::from_ref(spectrum)),
                });
                let start = Instant::now();
                let response = client.request(&request);
                let end = Instant::now();
                let outcome = match &response {
                    Ok(Response::Result(result)) => {
                        let got = result.rows.first().map(|row| row.psm);
                        if got == expected.get(&spectrum.id).copied() {
                            interactive.push(Interactive {
                                query: spectrum.id,
                                start,
                                end,
                                rtt_ms: (end - start).as_secs_f64() * 1e3,
                                latency_ms: result.stats.latency_ms,
                                wait_ms: result.stats.wait_ms,
                            });
                            Outcome::Ok
                        } else {
                            Outcome::Wrong
                        }
                    }
                    _ => Outcome::Failed,
                };
                if outcome == Outcome::Ok && capture && payloads.requests.len() < 64 {
                    payloads.requests.push(request);
                    payloads.responses.push(response.expect("checked above"));
                }
                outcome
            },
        );
        stop.store(true, Ordering::SeqCst);
        let stream = batch.join().expect("batch-tier stream thread panicked");
        payloads.requests.extend(stream.payloads.requests);
        payloads.responses.extend(stream.payloads.responses);
        MixedRun {
            sweep,
            interactive,
            submits: stream.submits,
            batch_qps: stream.queries as f64 / stream.seconds,
            session_ids: stream.session_ids,
            attempted: stream.attempted,
            failed: stream.failed,
            payloads,
        }
    })
}

/// Round trips of the same 16-spectrum `session.submit` requests sent
/// alternately through `net::Client` and through [`LineClient`] (one
/// session each, no other load), milliseconds: `(net_client,
/// one_write)`. The difference is the split-write stall described at
/// [`LineClient`].
pub fn submit_rtt_by_client(
    addr: SocketAddr,
    queries: &[Spectrum],
    submits: usize,
) -> (Vec<f64>, Vec<f64>) {
    let open = Request::SessionOpen {
        index: INDEX.to_owned(),
        window: WindowKind::Open,
        tier: Tier::Batch,
        prefilter: None,
    };
    let opened = |response: Result<Response, String>| match response {
        Ok(Response::SessionOpened { session, .. }) => session,
        other => panic!("session.open failed: {other:?}"),
    };
    let mut net_client = Client::connect(addr).expect("connect net::Client");
    let mut one_write = LineClient::connect(addr).expect("connect the one-write client");
    let net_session = opened(net_client.request(&open));
    let line_session = opened(one_write.request(&open));
    let (mut net_rtt, mut line_rtt) = (Vec::new(), Vec::new());
    for chunk in queries.chunks(BATCH_SIZE).take(submits) {
        let spectra = spectrum_payload(chunk);
        let submit = |session| Request::SessionSubmit {
            session,
            spectra: spectra.clone(),
        };
        let start = Instant::now();
        let ok = matches!(
            net_client.request(&submit(net_session)),
            Ok(Response::Receipt(_))
        );
        net_rtt.push(if ok {
            start.elapsed().as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        });
        let start = Instant::now();
        let ok = matches!(
            one_write.request(&submit(line_session)),
            Ok(Response::Receipt(_))
        );
        line_rtt.push(if ok {
            start.elapsed().as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        });
    }
    let _ = net_client.request(&Request::SessionClose {
        session: net_session,
    });
    let _ = one_write.request(&Request::SessionClose {
        session: line_session,
    });
    (net_rtt, line_rtt)
}
