//! The four bulk-loaded, read-only workloads: load, settle, warm up,
//! measure with tracing off, then trace.

use std::time::{Duration, Instant};

use crate::json::Json;
use crate::spec::Metrics;
use crate::stats::fastest;
use crate::surface::{self, Col};
use crate::trace::{self, Checked};
use crate::wire;
use crate::workloads;
use crate::{Options, Outcome};

/// Fresh loads timed for `setup_s`: at least three, and as many more as fit
/// in three seconds (half a second of a smoke run). The fastest is reported
/// (see [`fastest`]).
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_SPEND: Duration = Duration::from_secs(3);
const SMOKE_SETUP_SPEND: Duration = Duration::from_millis(500);

pub fn run(
    opts: &Options,
    e2e: &mut Metrics,
    layer: &mut Metrics,
    tracer_out: &mut Option<trace::Tracer>,
) -> Result<Outcome, String> {
    let w = workloads::bulk(&opts.workload, opts.seed, opts.smoke)
        .ok_or_else(|| format!("{} is not a bulk workload", opts.workload))?;
    // The oracle's sorted copies are gone; what is resident from here on is
    // the generated table and the system under test.
    crate::reset_peak_rss();

    let mut setups = Vec::new();
    let setup_started = Instant::now();
    let rows = w.table.rows();
    let spend = if opts.smoke { SMOKE_SETUP_SPEND } else { SETUP_SPEND };
    let (db, server) = loop {
        let up = w.table.set_up(rows, None);
        setups.push(up.seconds);
        if setups.len() >= SETUP_MIN_REPEATS && setup_started.elapsed() >= spend {
            break (up.db, up.server);
        }
    };
    let setup_s = fastest(&setups);
    e2e.set("setup_s", setup_s);

    let before = surface::server_stats(&server);
    let load = wire::with_steal(|| {
        wire::closed_loop(
            surface::server_addr(&server),
            &w.pool,
            &w.expected,
            w.conns,
            w.window,
            Duration::from_secs_f64(opts.warmup_s()),
            Duration::from_secs_f64(opts.seconds),
        )
    });
    let after = surface::server_stats(&server);
    let p50 = wire::end_to_end(&load, opts, e2e, layer)?;
    let storage = db.storage_stats();
    e2e.set("index_bytes_per_row", storage.index_bytes as f64 / rows as f64);
    e2e.set("peak_rss_mb", crate::peak_rss_mib());

    let mut checked = Checked::default();
    if opts.trace {
        wire::server_counters(&before, &after, layer);
        layer.set("engine.load_rows_per_s", rows as f64 / setup_s);

        let budget = Duration::from_secs_f64(if opts.smoke { 0.5 } else { 2.5 });
        let tracer = trace::traced_pass(
            &db,
            surface::server_addr(&server),
            &w.pool,
            &w.expected,
            budget,
            p50,
            layer,
            &mut checked,
        )?;
        *tracer_out = Some(tracer);
        let column = w.pool[0].preds[0].col;
        match w.table.col(column) {
            Col::I64(v) => {
                trace::whole_column(v, column, &w.pool, true, budget, layer, &mut checked)
            }
            Col::I32(v) => {
                trace::whole_column(v, column, &w.pool, true, budget, layer, &mut checked)
            }
            _ => return Err(format!("no whole-column pass for column {column}")),
        }
    }
    let (engine_config, server_config) = db.config_debug();
    drop(server);

    let mut out = Outcome::from_load(load);
    out.absorb(checked);
    out.info = vec![
        ("rows", Json::Num(rows as f64)),
        ("table", Json::str(w.table.name)),
        ("data_bytes", Json::Num((rows * w.table.bytes_per_row()) as f64)),
        ("connections", Json::Num(w.conns as f64)),
        ("window", Json::Num(w.window as f64)),
        ("loop", Json::str("closed")),
        ("sealed_segments", Json::Num(storage.sealed_segments as f64)),
        ("engine_config", Json::str(engine_config)),
        ("server_config", Json::str(server_config)),
    ];
    Ok(out)
}
