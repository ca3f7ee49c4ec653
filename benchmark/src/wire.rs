//! The closed-loop wire load: each connection holds `window` tagged
//! requests in flight and sends the next only when a reply arrives, as a
//! caller that waits for its answer does. Two connections are what a
//! 2-core box can generate without the generator becoming the bottleneck.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::spec::Metrics;
use crate::stats::{quantile, windowed_p99, Sample, MIN_WINDOW_SAMPLES};
use crate::surface::{Conn, ServerStats};
use crate::workloads::{Expected, Req};
use crate::Options;

/// The measured phase is cut into at most this many windows for `p99_us`.
const P99_WINDOWS: usize = 3;

/// What one load phase observed.
#[derive(Debug, Default)]
pub struct Load {
    /// Correct `OK` replies completed inside the measured span.
    pub samples: Vec<Sample>,
    /// Requests sent, warm-up included: every reply is checked.
    pub attempted: u64,
    /// `ERR`, `BUSY`, I/O errors and oracle mismatches, warm-up included.
    pub failed: u64,
    /// The first failure, for the error message.
    pub first_failure: Option<String>,
    /// Share of the box's CPU time stolen by the hypervisor while the
    /// phase ran (`/proc/stat`), set by whoever ran the phase.
    pub steal_ratio: f64,
}

/// Cumulative steal time of all CPUs, in clock ticks (1/100 s).
fn steal_ticks() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    cpu.split_whitespace().nth(8).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// The dispatch-plane counters of a load phase, from `Server::stats` taken
/// before and after it.
pub fn server_counters(before: &ServerStats, after: &ServerStats, layer: &mut Metrics) {
    let batches = (after.batches - before.batches).max(1);
    let batched = after.batched_requests - before.batched_requests;
    layer.set("server.batch_fill", batched as f64 / batches as f64);
    let shed = after.shed - before.shed;
    let offered = (after.admitted - before.admitted) + shed;
    layer.set("server.shed_ratio", shed as f64 / offered.max(1) as f64);
}

/// Runs `phase` and records the steal ratio over its wall time.
pub fn with_steal(phase: impl FnOnce() -> Load) -> Load {
    let (ticks, t0) = (steal_ticks(), Instant::now());
    let mut load = phase();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    load.steal_ratio = (steal_ticks() - ticks) / 100.0 / (t0.elapsed().as_secs_f64() * cpus);
    load
}

impl Load {
    pub fn merge(&mut self, other: Load) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_failure = self.first_failure.take().or(other.first_failure);
    }

    pub fn fail(&mut self, mut what: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            // A wrong id list can be 100 KB; the message keeps its head.
            what.truncate(what.char_indices().nth(400).map_or(what.len(), |(i, _)| i));
            self.first_failure = Some(what);
        }
    }
}

/// The wire metrics of a measured phase: `qps` and `p50_us` of the
/// end-to-end table, `p99_us` and the steal ratio of the per-layer one.
/// Returns the median latency.
///
/// Wrong, refused and broken replies are not an error here: the run goes on
/// to report `correct: false`, `failed` and `fail_ratio`, and exits with
/// code 1. Its latencies are those of the replies that were right, and its
/// p99 windows may be as thin as that leaves them.
pub fn end_to_end(
    load: &Load,
    opts: &Options,
    e2e: &mut Metrics,
    layer: &mut Metrics,
) -> Result<f64, String> {
    let mut lat: Vec<f64> = load.samples.iter().map(|s| s.lat_us).collect();
    let p50 = quantile(&mut lat, 0.5);
    let min_samples = if opts.smoke || load.failed > 0 { 0 } else { MIN_WINDOW_SAMPLES };
    let p99 = windowed_p99(&load.samples, opts.seconds, P99_WINDOWS, min_samples)?;
    layer.set("host.steal_ratio", load.steal_ratio);
    layer.set("p99_us", p99);
    e2e.set("qps", load.samples.len() as f64 / opts.seconds);
    e2e.set("p50_us", p50);
    Ok(p50)
}

/// Drives `conns` connections against `addr` for `warmup + measure`. The
/// connections walk the pool from evenly spaced offsets, wrapping around.
/// Replies completing during the warm-up are checked but not sampled.
pub fn closed_loop(
    addr: SocketAddr,
    pool: &[Req],
    expected: &[Expected],
    conns: usize,
    window: usize,
    warmup: Duration,
    measure: Duration,
) -> Load {
    let lines: Vec<String> = pool.iter().map(Req::line).collect();
    let barrier = Barrier::new(conns);
    let mut total = Load::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let (lines, barrier) = (&lines, &barrier);
                let offset = c * pool.len() / conns;
                scope.spawn(move || {
                    let mut load = Load::default();
                    match Conn::connect(addr) {
                        Ok(conn) => {
                            barrier.wait();
                            let run = ConnRun { lines, pool, expected, window, warmup, measure };
                            run.drive(conn, offset, &mut load);
                        }
                        Err(e) => {
                            barrier.wait();
                            load.attempted += 1;
                            load.fail(format!("connect: {e}"));
                        }
                    }
                    load
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("wire client thread panicked"));
        }
    });
    total
}

struct ConnRun<'a> {
    lines: &'a [String],
    pool: &'a [Req],
    expected: &'a [Expected],
    window: usize,
    warmup: Duration,
    measure: Duration,
}

impl ConnRun<'_> {
    fn drive(&self, mut conn: Conn, offset: usize, load: &mut Load) {
        let start = Instant::now();
        let measured_from = start + self.warmup;
        let deadline = measured_from + self.measure;
        // (sequence number, pool index, send time) of requests in flight.
        let mut in_flight: VecDeque<(u64, usize, Instant)> = VecDeque::new();
        let mut seq = 0u64;
        loop {
            while in_flight.len() < self.window && Instant::now() < deadline {
                let idx = (offset + seq as usize) % self.pool.len();
                let sent = Instant::now();
                load.attempted += 1;
                if let Err(e) = conn.send(&format!("#{seq} {}", self.lines[idx])) {
                    load.fail(format!("send: {e}"));
                    return;
                }
                in_flight.push_back((seq, idx, sent));
                seq += 1;
            }
            if in_flight.is_empty() {
                return;
            }
            let reply = match conn.recv() {
                Ok(r) => r,
                Err(e) => {
                    // The connection is gone: everything in flight failed.
                    load.failed += in_flight.len() as u64 - 1;
                    load.fail(format!("recv: {e}"));
                    return;
                }
            };
            let done = Instant::now();
            // The timestamp is taken; checking the answer is off the clock.
            let tag = reply.tag.as_deref().and_then(|t| t.parse::<u64>().ok());
            let Some(at) = in_flight.iter().position(|(s, _, _)| Some(*s) == tag) else {
                load.fail(format!("reply with unknown tag {:?}", reply.tag));
                continue;
            };
            let (_, idx, sent) = in_flight.remove(at).expect("position is in range");
            let decoded = reply.decode(self.pool[idx].count_only);
            if !self.expected[idx].matches(&decoded) {
                load.fail(format!("{:?}: expected {:?}, got {decoded:?}", self.lines[idx], {
                    self.expected[idx]
                }));
            } else if done >= measured_from && done <= deadline {
                load.samples.push(Sample {
                    done_s: (done - measured_from).as_secs_f64(),
                    lat_us: (done - sent).as_secs_f64() * 1e6,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spec, workloads};

    /// A wrong reply makes the run a failed one, not an aborted one: the
    /// metrics are still reported, from the replies that were right.
    #[test]
    fn a_wrong_reply_is_counted_and_the_metrics_are_still_reported() {
        let w = workloads::bulk(spec::WIRE_SMALL, 5, true).expect("a bulk workload");
        let up = w.table.set_up(w.table.rows(), None);
        let mut expected = w.expected.clone();
        expected[0].count += 1;
        let addr = crate::surface::server_addr(&up.server);
        let span = Duration::from_millis(300);
        let load = closed_loop(addr, &w.pool, &expected, 1, 1, Duration::ZERO, span);
        assert!(load.failed >= 1 && load.failed < load.attempted, "{load:?}");
        assert!(load.first_failure.as_deref().is_some_and(|why| why.contains("expected")));
        // The last right reply may arrive past the deadline, unsampled.
        let right = load.attempted - load.failed;
        assert!((right - 1..=right).contains(&(load.samples.len() as u64)), "{load:?}");

        let opts = Options { seconds: span.as_secs_f64(), ..Options::default() };
        let tables = || (Metrics::new(spec::END_TO_END), Metrics::new(spec::PER_LAYER));
        let (mut e2e, mut layer) = tables();
        let p50 = end_to_end(&load, &opts, &mut e2e, &mut layer).expect("reported, not aborted");
        assert!(p50 > 0.0);
        // The same few samples without a failure are too thin for a p99.
        let healthy = Load { failed: 0, first_failure: None, ..load };
        let (mut e2e, mut layer) = tables();
        assert!(end_to_end(&healthy, &opts, &mut e2e, &mut layer).is_err());
    }
}
