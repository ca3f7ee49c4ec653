//! The batching dispatchers: each drains admitted tickets, groups them by
//! table, and evaluates each group as one shared morsel pass.
//!
//! One dispatcher thread per pool worker runs [`run`], all competing on
//! the same admission queue. A dispatcher never waits for company: one
//! [`drain`](crate::admission::Drainer::drain) takes what queued while
//! every dispatcher was busy — a single request on an idle server, up to
//! `batch_max` under load — and holds those requests' connections until
//! the batch's last reply is written, so no second dispatcher answers the
//! same connection beside it. The batch is grouped by table (arrival order
//! preserved within each group) and every group goes through
//! [`Table::query_batch`], which pins **one** consistent snapshot for the
//! whole group and answers all its predicates from one sweep per segment.
//! Per-request failures (bad column, bad bound, panicked task) are
//! answered per request and never poison batch neighbors.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use imprints_engine::{BatchAnswer, BatchQuery, Table, ValueSet};

use crate::protocol::{fmt_err, fmt_ok_count, fmt_ok_ids};
use crate::server::{Shared, Ticket};

/// Dispatcher thread body: drain → group → evaluate, until the admission
/// queue is closed. The drainer is dropped on the way out — also by a
/// panic — which releases the connections of the batch in hand.
pub(crate) fn run(shared: &Shared) {
    let mut drainer = shared.admission.drainer();
    loop {
        let batch = drainer.drain(shared.cfg.batch_max);
        if batch.is_empty() {
            // Only returned once the queue is closed.
            return;
        }
        shared.counters.batches.fetch_add(1, Ordering::Relaxed);
        shared.counters.batched_requests.fetch_add(batch.len() as u64, Ordering::Relaxed);
        dispatch(shared, batch);
    }
}

/// Groups one drained batch by table and evaluates each group.
fn dispatch(shared: &Shared, batch: Vec<Ticket>) {
    let mut groups: Vec<(String, Vec<Ticket>)> = Vec::new();
    for t in batch {
        match groups.iter_mut().find(|(name, _)| *name == t.table) {
            Some((_, g)) => g.push(t),
            None => groups.push((t.table.clone(), vec![t])),
        }
    }
    for (name, tickets) in groups {
        // Resolving the table pins an `Arc<Table>`: even if the table is
        // dropped from the catalog mid-batch, this group's snapshot stays
        // valid until the last answer is written.
        match shared.engine.catalog().table(&name) {
            Ok(table) => run_group(shared, &table, tickets),
            Err(e) => {
                let msg = e.to_string();
                for t in tickets {
                    t.conn.send(fmt_err(t.tag.as_deref(), &msg));
                }
            }
        }
    }
}

/// Evaluates one same-table group as a single `query_batch` call.
fn run_group(shared: &Shared, table: &Arc<Table>, tickets: Vec<Ticket>) {
    // Tickets that fail typing are answered immediately; the rest ride in
    // `owners`, index-aligned with `queries`, so answers pair back to their
    // connections by zip — no positional bookkeeping to get wrong.
    let mut queries = Vec::with_capacity(tickets.len());
    let mut owners = Vec::with_capacity(tickets.len());
    for t in tickets {
        match typed_query(table, &t) {
            Ok(q) => {
                queries.push(q);
                owners.push(t);
            }
            Err(msg) => t.conn.send(fmt_err(t.tag.as_deref(), &msg)),
        }
    }
    if queries.is_empty() {
        return;
    }
    let answers = table.query_batch(&queries, Some(shared.engine.pool()));
    for (t, answer) in owners.iter().zip(answers) {
        let tag = t.tag.as_deref();
        match answer {
            Ok((BatchAnswer::Ids(ids), _)) => t.conn.send(fmt_ok_ids(tag, ids.as_slice())),
            Ok((BatchAnswer::Count(n), _)) => t.conn.send(fmt_ok_count(tag, n)),
            Err(e) => t.conn.send(fmt_err(tag, &e.to_string())),
        }
    }
}

/// Types a ticket's wire predicates against the table schema.
fn typed_query(table: &Table, t: &Ticket) -> Result<BatchQuery, String> {
    let mut preds: Vec<(String, ValueSet)> = Vec::with_capacity(t.preds.len());
    for p in &t.preds {
        let def = table
            .schema()
            .iter()
            .find(|c| c.name == p.column)
            .ok_or_else(|| format!("no column {:?} in table {:?}", p.column, table.name()))?;
        preds.push((p.column.clone(), p.to_set(def.ty)?));
    }
    Ok(BatchQuery { preds, any: t.any, count_only: t.count_only })
}
