//! Per-layer host-time metrics derived from a traced round's spans.

use crate::round::Round;
use crate::trace::{self, Span, NO_PARENT};

/// Layers whose calls the benchmark wraps in spans, plus `bench` for
/// its own callback code. Time spent in the NIC, fabric, CPU-scheduler
/// and NVM models is reached only through `Engine::run_*`, so from
/// outside it shows as `hl-sim` self time.
pub const SPANNED_LAYERS: [&str; 6] = [
    "bench",
    "hl-sim",
    "hl-cluster",
    "hyperloop",
    "hl-store",
    "hl-ycsb",
];

/// Record the span-derived metrics. `ops` are the measured user ops,
/// `events` the engine events of the measured phase and `threads` the
/// executor's worker count (1 when no executor runs).
pub fn record(r: &mut Round, spans: Vec<Span>, ops: u64, events: u64, threads: usize) {
    // A span belongs to the measured phase when it or an ancestor is a
    // `bench.measure` span; parents always precede children.
    let mut measured = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        measured[i] =
            s.name == "bench.measure" || (s.parent != NO_PARENT && measured[s.parent as usize]);
    }
    let own = trace::self_ns(&spans);
    let per_op = |ns: u64| ns as f64 / ops.max(1) as f64;

    let mut layer_self = [0u64; SPANNED_LAYERS.len()];
    let sum = |name: &str| -> (u64, u64) {
        spans
            .iter()
            .zip(&measured)
            .filter(|(s, &m)| m && s.name == name)
            .fold((0, 0), |(ns, n), (s, _)| (ns + s.dur_ns(), n + 1))
    };
    let mean = |(ns, n): (u64, u64)| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    let run = sum("hl-sim.run").0;
    let put = mean(sum("hl-store.put"));
    let get = mean(sum("hl-store.get"));
    let next_op = mean(sum("hl-ycsb.next_op"));
    let route = sum("hyperloop.route").0;
    let mut callback_self = 0;
    for ((s, &m), &o) in spans.iter().zip(&measured).zip(&own) {
        if !m {
            continue;
        }
        if let Some(i) = SPANNED_LAYERS.iter().position(|&l| l == s.layer()) {
            layer_self[i] += o;
        }
        if s.name == "bench.callback" {
            callback_self += o;
        }
    }
    let l = &mut r.layers;
    for (name, ns) in SPANNED_LAYERS.iter().zip(layer_self) {
        l.insert(format!("{name}.self_ns_per_op"), per_op(ns));
    }
    l.insert(
        "hl-sim.run_ns_per_event".into(),
        run.saturating_sub(callback_self) as f64 / events.max(1) as f64,
    );
    l.insert("hl-store.put_ns".into(), put);
    l.insert("hl-store.get_ns".into(), get);
    l.insert("hl-ycsb.next_op_ns".into(), next_op);
    l.insert("hyperloop.route_ns_per_op".into(), per_op(route));

    // Set-up calls, whole round.
    let secs = |name: &str| trace::total(&spans, name).0 as f64 / 1e9;
    l.insert("hl-cluster.build_s".into(), secs("hl-cluster.build"));
    l.insert(
        "hyperloop.group_build_s".into(),
        secs("hyperloop.group_build"),
    );
    l.insert("hl-store.open_s".into(), secs("hl-store.open"));

    // Shard executor: busy share, merge tail and the straggler.
    let jobs: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "hl-cluster.job")
        .collect();
    let (exec_ns, _) = trace::total(&spans, "hl-cluster.exec");
    let exec_end = spans
        .iter()
        .filter(|s| s.name == "hl-cluster.exec")
        .map(|s| s.end_ns)
        .max();
    let job_ns: u64 = jobs.iter().map(|s| s.dur_ns()).sum();
    let (busy, merge, straggler) = match (exec_end, jobs.iter().map(|s| s.end_ns).max()) {
        (Some(end), Some(last_job)) if exec_ns > 0 => {
            let mean = job_ns as f64 / jobs.len() as f64;
            let max = jobs.iter().map(|s| s.dur_ns()).max().unwrap_or(0) as f64;
            (
                job_ns as f64 / (threads as f64 * exec_ns as f64),
                (end.saturating_sub(last_job) + trace::total(&spans, "hl-cluster.merge").0) as f64
                    / 1e9,
                max / mean,
            )
        }
        _ => (0.0, 0.0, 0.0),
    };
    l.insert("hl-cluster.exec_busy_share".into(), busy);
    l.insert("hl-cluster.exec_merge_s".into(), merge);
    l.insert("hl-cluster.job_max_over_mean".into(), straggler);
    r.spans = spans;
}
