//! Sim-time attribution of replicated writes, from `World::attribution`.

use crate::round::Round;
use hl_sim::telemetry::{Attribution, OpKind};

/// Segments reported, in the order `Stage::segment` names them.
pub const SEGMENTS: [&str; 10] = [
    "client-post",
    "nic-queue",
    "wait-block",
    "wqe-exec",
    "wire",
    "dma",
    "cqe-deliver",
    "cpu-queue",
    "replica-cpu",
    "ack-deliver",
];

/// Record the mean time per replicated write spent in each segment
/// (`attr.<segment>_us`, over the gWRITE and naive-write spans of every
/// world in `worlds`), and
/// `attr.unattributed_us`: the client-observed mean latency of the
/// `writes` user writes, `write_mean_ns`, minus the sum of the segments. Where no write span exists
/// (two-sided `send_msg` replication) every segment is 0 and the whole
/// latency is unattributed.
pub fn record(r: &mut Round, worlds: &[Attribution], write_mean_ns: f64, writes: u64) {
    let kinds: Vec<_> = worlds
        .iter()
        .flat_map(|a| [OpKind::GWrite, OpKind::NaiveWrite].map(|k| a.kind(k)))
        .flatten()
        .collect();
    let spans: u64 = kinds.iter().map(|k| k.ops).sum();
    let mut attributed = 0.0;
    for label in SEGMENTS {
        let ns: u64 = kinds.iter().map(|k| k.segment_ns(label)).sum();
        let us = if spans == 0 {
            0.0
        } else {
            ns as f64 / spans as f64 / 1e3
        };
        attributed += us;
        r.attr.insert(format!("attr.{label}_us"), us);
    }
    r.attr.insert(
        "attr.unattributed_us".into(),
        write_mean_ns / 1e3 - attributed,
    );
    r.attr.insert(
        "attr.spans_per_write".into(),
        spans as f64 / writes.max(1) as f64,
    );
}
