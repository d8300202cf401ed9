//! Seeded open-loop generator for single-spectrum (interactive)
//! requests.
//!
//! Requests are due at a fixed interval (`1 / rate`, after a seeded
//! random offset) whatever the system does — an open loop — and the
//! spectrum of each request is drawn from the workload's queries with
//! the same seeded generator. Fixed intervals rather than Poisson
//! arrivals keep the tail from being set by the seed's chance bursts.
//! Requests go out from one caller that waits for each reply, so when
//! the system falls behind, later requests leave late: every latency is
//! timed from the request's *due* time, which charges that client-side
//! queueing to the system, and the generator's lateness (send time
//! minus due time) is reported separately.
//!
//! A sweep runs in rounds. Each round holds the reference rate for one
//! block, the top rate for a shorter one, and one of the other rates
//! (in turn) for another, so every rate's samples are spread over the
//! whole run rather than bunched where the host happened to be busy.

use crate::stats::{median, quantile, SplitMix};
use std::time::{Duration, Instant};

/// A rate sweep.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The rate whose median latency is the headline
    /// `interactive_p50_ms`.
    pub reference: f64,
    /// The other fixed rates, ascending; the last one is far beyond
    /// what one caller can sustain (it measures that capacity).
    pub others: Vec<f64>,
    /// Shares of the sweep's time spent at the reference rate and at
    /// the top rate; the rest goes to the other rates.
    pub reference_share: f64,
    pub top_share: f64,
    /// Rounds (reference blocks) per sweep.
    pub rounds: usize,
    /// p99 latency limit, milliseconds.
    pub limit_ms: f64,
}

/// What the caller reports for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer was correct.
    Ok,
    /// Refused or errored (`busy`, `deadline`, transport errors).
    Failed,
    /// Answered with the wrong PSM.
    Wrong,
}

/// Samples of one block at one fixed rate.
struct Block {
    latencies: Vec<f64>,
    lags: Vec<f64>,
    sent: usize,
    succeeded: usize,
    failed: usize,
    wrong: usize,
    final_lag_ms: f64,
    busy_s: f64,
}

fn run_block(
    rate: f64,
    seconds: f64,
    limit_ms: f64,
    rng: &mut SplitMix,
    queries: usize,
    send: &mut impl FnMut(usize) -> Outcome,
) -> Block {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let limit = Duration::from_secs_f64(limit_ms / 1e3);
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut due = start + interval.mul_f64(rng.next_f64());
    let mut block = Block {
        latencies: Vec::new(),
        lags: Vec::new(),
        sent: 0,
        succeeded: 0,
        failed: 0,
        wrong: 0,
        final_lag_ms: 0.0,
        busy_s: 0.0,
    };
    let mut last_done = start;
    while due < end {
        let query = rng.below(queries);
        let now = Instant::now();
        if now > end + limit {
            // So far behind that this request (and every later one in
            // the block) misses the limit anyway: it is never sent, and
            // its latency is at least how late it is now.
            block.latencies.push((now - due).as_secs_f64() * 1e3);
        } else {
            wait_until(due);
            let sent_at = Instant::now();
            let outcome = send(query);
            last_done = Instant::now();
            block.sent += 1;
            block.final_lag_ms = (sent_at - due).as_secs_f64() * 1e3;
            block.lags.push(block.final_lag_ms);
            if outcome == Outcome::Ok {
                block.succeeded += 1;
                block.latencies.push((last_done - due).as_secs_f64() * 1e3);
            } else {
                block.failed += 1;
                block.wrong += usize::from(outcome == Outcome::Wrong);
                block.latencies.push(f64::INFINITY);
            }
        }
        due += interval;
    }
    block.busy_s = (last_done - start).as_secs_f64();
    // Let a block that fell behind drain before the next one starts.
    let now = Instant::now();
    if now < end {
        std::thread::sleep(end - now);
    }
    block
}

/// Sleep until shortly before `instant`, then spin until it: a thread
/// woken from sleep starts late by however long the host takes to give
/// it a core back, and that delay belongs to the generator, not to the
/// request it is about to send.
fn wait_until(instant: Instant) {
    let now = Instant::now();
    if now + SPIN < instant {
        std::thread::sleep(instant - now - SPIN);
    }
    while Instant::now() < instant {
        std::hint::spin_loop();
    }
}

/// How long before a request is due the generator stops sleeping.
const SPIN: Duration = Duration::from_millis(1);

/// Everything measured at one fixed rate, over all its blocks.
#[derive(Debug, Clone)]
pub struct RateReport {
    pub rate: f64,
    pub seconds: f64,
    pub blocks: usize,
    pub scheduled: usize,
    pub sent: usize,
    pub succeeded: usize,
    /// Failed or wrong answers.
    pub failed: usize,
    pub wrong: usize,
    /// Latency percentiles from due time over every request at this
    /// rate, milliseconds. Failed requests count as infinitely late,
    /// never-sent ones as late as they were when the generator gave up
    /// on them.
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    /// Each block's median latency, milliseconds, in run order.
    pub block_p50_ms: Vec<f64>,
    /// Requests completed per second of busy time, the median over
    /// blocks: the caller's capacity when the rate is beyond it.
    pub throughput: f64,
    /// 99th-percentile generator lateness (send time minus due time).
    pub lag_p99_ms: f64,
    /// Largest lateness of a block's last request: a growing backlog
    /// shows here.
    pub final_lag_ms: f64,
    pub meets_limit: bool,
}

impl RateReport {
    fn from_blocks(rate: f64, seconds: f64, blocks: &[Block], limit_ms: f64) -> RateReport {
        let latencies: Vec<f64> = blocks
            .iter()
            .flat_map(|b| b.latencies.iter().copied())
            .collect();
        let lags: Vec<f64> = blocks.iter().flat_map(|b| b.lags.iter().copied()).collect();
        let sum = |f: fn(&Block) -> usize| blocks.iter().map(f).sum::<usize>();
        let (sent, succeeded, failed) = (sum(|b| b.sent), sum(|b| b.succeeded), sum(|b| b.failed));
        let final_lag_ms = blocks.iter().map(|b| b.final_lag_ms).fold(0.0, f64::max);
        let p99_ms = quantile(&latencies, 0.99);
        let backlog = final_lag_ms > limit_ms || sent < latencies.len();
        RateReport {
            rate,
            seconds,
            blocks: blocks.len(),
            scheduled: latencies.len(),
            sent,
            succeeded,
            failed,
            wrong: sum(|b| b.wrong),
            p50_ms: quantile(&latencies, 0.5),
            p90_ms: quantile(&latencies, 0.9),
            p99_ms,
            block_p50_ms: blocks.iter().map(|b| median(&b.latencies)).collect(),
            throughput: median(
                &blocks
                    .iter()
                    .map(|b| b.succeeded as f64 / b.busy_s.max(1e-9))
                    .collect::<Vec<_>>(),
            ),
            lag_p99_ms: quantile(&lags, 0.99),
            final_lag_ms,
            meets_limit: p99_ms <= limit_ms && failed == 0 && !backlog,
        }
    }
}

/// The sweep's results: the reference rate first, then the others in
/// ascending order.
pub struct Sweep {
    pub reference: RateReport,
    pub others: Vec<RateReport>,
}

impl Sweep {
    /// Every rate, ascending.
    pub fn by_rate(&self) -> Vec<&RateReport> {
        let mut all: Vec<&RateReport> = std::iter::once(&self.reference)
            .chain(&self.others)
            .collect();
        all.sort_by(|a, b| a.rate.total_cmp(&b.rate));
        all
    }

    /// The highest rate one caller sustains within the latency limit.
    ///
    /// Requests are due at fixed intervals, so below the caller's
    /// capacity the due-time latency stays bounded (the limit is met)
    /// and above it the backlog grows without bound (it is missed):
    /// the highest rate meeting the limit is the capacity itself. It is
    /// measured directly, as the completion rate at the top fixed rate,
    /// which is set far beyond capacity; if that rate was met after
    /// all, it is the answer.
    pub fn max_rps(&self) -> f64 {
        let top = self.others.last().unwrap_or(&self.reference);
        if top.meets_limit {
            top.rate
        } else {
            top.throughput
        }
    }

    pub fn sent(&self) -> usize {
        self.by_rate().iter().map(|r| r.sent).sum()
    }

    pub fn failed(&self) -> usize {
        self.by_rate().iter().map(|r| r.failed).sum()
    }

    pub fn wrong(&self) -> usize {
        self.by_rate().iter().map(|r| r.wrong).sum()
    }
}

/// Run `plan` over `seconds` of sweep time, calling `between()` at the
/// start of each round and `send(query_index)` for each due request
/// (`queries` spectra to draw from).
pub fn run(
    plan: &Plan,
    seconds: f64,
    seed: u64,
    queries: usize,
    mut between: impl FnMut(),
    mut send: impl FnMut(usize) -> Outcome,
) -> Sweep {
    let mut rng = SplitMix::new(seed ^ 0x0be9_100b);
    let round_s = seconds / plan.rounds as f64;
    let reference_s = round_s * plan.reference_share;
    let top_s = round_s * plan.top_share;
    let lower_s = round_s * (1.0 - plan.reference_share - plan.top_share);
    let (lower, top) = plan.others.split_at(plan.others.len() - 1);
    let mut reference = Vec::new();
    let mut others: Vec<Vec<Block>> = plan.others.iter().map(|_| Vec::new()).collect();
    for round in 0..plan.rounds {
        between();
        reference.push(run_block(
            plan.reference,
            reference_s,
            plan.limit_ms,
            &mut rng,
            queries,
            &mut send,
        ));
        others[lower.len()].push(run_block(
            top[0],
            top_s,
            plan.limit_ms,
            &mut rng,
            queries,
            &mut send,
        ));
        if !lower.is_empty() {
            let k = round % lower.len();
            others[k].push(run_block(
                lower[k],
                lower_s,
                plan.limit_ms,
                &mut rng,
                queries,
                &mut send,
            ));
        }
    }
    let report = |rate: f64, block_s: f64, blocks: &[Block]| {
        RateReport::from_blocks(rate, block_s * blocks.len() as f64, blocks, plan.limit_ms)
    };
    Sweep {
        reference: report(plan.reference, reference_s, &reference),
        others: plan
            .others
            .iter()
            .zip(&others)
            .enumerate()
            .map(|(k, (&rate, blocks))| {
                report(rate, if k == lower.len() { top_s } else { lower_s }, blocks)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(latencies: Vec<f64>) -> Block {
        Block {
            sent: latencies.len(),
            succeeded: latencies.len(),
            lags: vec![0.0; latencies.len()],
            latencies,
            failed: 0,
            wrong: 0,
            final_lag_ms: 0.0,
            busy_s: 1.0,
        }
    }

    #[test]
    fn rates_pool_their_blocks() {
        let mut slow = vec![1.0; 200];
        slow[..10].fill(50.0);
        let report =
            RateReport::from_blocks(100.0, 4.0, &[block(slow), block(vec![1.0; 200])], 100.0);
        assert_eq!((report.scheduled, report.succeeded), (400, 400));
        assert_eq!(report.p50_ms, 1.0);
        assert!(report.p99_ms > 1.0 && report.p99_ms <= 50.0);
        assert_eq!(report.throughput, 200.0);
        assert!(report.meets_limit);
    }

    #[test]
    fn failures_miss_the_limit() {
        let mut b = block(vec![1.0; 10]);
        b.failed = 1;
        b.latencies[0] = f64::INFINITY;
        let report = RateReport::from_blocks(100.0, 1.0, &[b], 100.0);
        assert!(!report.meets_limit);
    }
}
