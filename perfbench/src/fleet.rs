//! `sharded-fleet`: the SHARD_BENCH / BENCH_9 scale-out. 64 HyperLoop
//! shards on disjoint hosts, 2 replicas each; every shard keeps 8
//! closed-loop 512 B gWRITEs outstanding, routed by key through
//! `ShardRouter` → `RetryClient`, and the shard worlds run on a
//! 2-thread `ShardExecutor`.

use crate::round::{reset_cpu_accounting, run_until, Mode, Round, Snap};
use crate::stats::{mean, sorted_quantile_ns};
use crate::trace::{self, span, timed};
use hl_cluster::exec::ShardExecutor;
use hl_cluster::shard::HashRing;
use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::{Attribution, Engine, Histogram, SimDuration, SimTime};
use hyperloop::api::GroupClient;
use hyperloop::{
    replica, DeadlinePolicy, GroupBuilder, GroupConfig, HyperLoopClient, RetryClient, RetryStats,
    ShardRouter,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

const SHARDS: usize = 64;
const REPLICAS: usize = 2;
const PIPELINE: usize = 8;
const WRITE_BYTES: usize = 512;
/// Distinct write slots per shard; more than `PIPELINE`, so writes in
/// flight never overlap.
const SLOTS: u64 = 128;
/// Unrecorded writes per shard before the measured phase.
const WARMUP_OPS: u64 = 200;
/// Recorded writes per shard: 64 x 3,200 = 204,800 writes, so p99.9
/// has 204 samples beyond it.
const OPS_PER_SHARD: u64 = 3_200;
/// Executor threads.
pub const THREADS: usize = 2;

/// What one shard job hands back across the executor boundary.
struct ShardOut {
    /// Recorded write latencies, ns.
    lat: Vec<u64>,
    sched: Histogram,
    snap: Snap,
    stats: RetryStats,
    errors: Vec<String>,
    failed: u64,
    ops: u64,
    sim_s: f64,
    setup_ns: u64,
    pending_peak: u64,
    /// Deterministic one-line report.
    report: String,
    /// Sim-time attribution (telemetry rounds).
    attr: Option<Attribution>,
}

struct Pump {
    keys: Vec<Vec<u8>>,
    issued: u64,
    completed: u64,
    failed: u64,
    measure_from: Option<SimTime>,
    done_at: Option<SimTime>,
    lat: Vec<u64>,
    sid: u64,
}

const TOTAL: u64 = WARMUP_OPS + OPS_PER_SHARD;

fn payload(key: &[u8], idx: u64) -> Vec<u8> {
    let mut v = vec![(idx as u8) ^ key[7]; WRITE_BYTES];
    v[..8].copy_from_slice(key);
    v[8..16].copy_from_slice(&idx.to_le_bytes());
    v
}

fn issue_next(
    router: &ShardRouter,
    pump: &Rc<RefCell<Pump>>,
    w: &mut World,
    eng: &mut Engine<World>,
) {
    let (idx, key) = {
        let mut p = pump.borrow_mut();
        if p.issued >= TOTAL {
            return;
        }
        let idx = p.issued;
        p.issued += 1;
        (idx, p.keys[(idx as usize) % p.keys.len()].clone())
    };
    let op = (pump.borrow().sid << 32) | idx;
    let issued_at = eng.now();
    let (r2, p2) = (router.clone(), pump.clone());
    let done: hyperloop::OnOutcome = Box::new(move |w, eng, outcome| {
        let _g = span("bench.callback", op);
        {
            let mut p = p2.borrow_mut();
            p.completed += 1;
            if outcome.is_err() {
                p.failed += 1;
            } else if p.completed > WARMUP_OPS {
                p.lat.push(eng.now().duration_since(issued_at).as_nanos());
            }
            if p.completed == WARMUP_OPS {
                p.measure_from = Some(eng.now());
            }
            if p.completed == TOTAL {
                p.done_at = Some(eng.now());
            }
        }
        issue_next(&r2, &p2, w, eng);
    });
    let data = payload(&key, idx);
    let _g = span("hyperloop.route", op);
    router.gwrite_keyed(
        w,
        eng,
        &key,
        (idx % SLOTS) * WRITE_BYTES as u64,
        &data,
        false,
        done,
    );
}

/// Compare every member's written slot area with the client's copy.
/// Returns one line per member that differs.
pub fn check_members(regions: &[Vec<u8>]) -> Vec<String> {
    regions
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, r)| *r != &regions[0])
        .map(|(m, _)| format!("member {m} region differs from the client's"))
        .collect()
}

fn shard_seed(seed: u64, sid: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ sid as u64
}

fn shard_job(seed: u64, sid: usize, telemetry: bool) -> ShardOut {
    let t0 = Instant::now();
    let job = span("hl-cluster.job", 0);
    let setup = span("bench.setup", 0);
    let rep_bytes = (SLOTS * WRITE_BYTES as u64 + (64 << 10)).next_power_of_two();
    let arena = (rep_bytes as usize + (256 << 10)).next_power_of_two();
    let (mut w, mut eng) = timed("hl-cluster.build", 0, || {
        ClusterBuilder::new(1 + REPLICAS)
            .arena_size(arena)
            .seed(shard_seed(seed, sid))
            .build()
    });
    let replicas: Vec<HostId> = (1..=REPLICAS).map(HostId).collect();
    let router = timed("hyperloop.group_build", 0, || {
        let group = GroupBuilder::new(GroupConfig {
            client: HostId(0),
            replicas: replicas.clone(),
            rep_bytes,
            ring_slots: 256,
            replenish_period: SimDuration::from_micros(50),
            transport_timeout: None,
        })
        .build(&mut w);
        replica::start_replenishers(&group, &mut w, &mut eng);
        let client = HyperLoopClient::new(group, &mut w);
        ShardRouter::new(vec![RetryClient::with_policy(
            client,
            DeadlinePolicy::default(),
        )])
    });
    // This shard's cut of the fleet-wide key space, by the fleet ring.
    let ring = HashRing::new(SHARDS);
    let keys: Vec<Vec<u8>> = (0..1024 * SHARDS as u64)
        .map(|k| k.to_be_bytes().to_vec())
        .filter(|k| ring.shard_of(k) == sid)
        .collect();
    let pump = Rc::new(RefCell::new(Pump {
        keys,
        issued: 0,
        completed: 0,
        failed: 0,
        measure_from: None,
        done_at: None,
        lat: Vec::with_capacity(OPS_PER_SHARD as usize),
        sid: sid as u64,
    }));
    // Prime the chains (replenishers, QP wiring), then warm up.
    let mut pending_peak = 0;
    {
        let _g = span("hl-sim.run", 0);
        eng.run_until(&mut w, SimTime::from_nanos(2_000_000));
    }
    for _ in 0..PIPELINE {
        issue_next(&router, &pump, &mut w, &mut eng);
    }
    let p2 = pump.clone();
    run_until(&mut w, &mut eng, &mut pending_peak, |_| {
        p2.borrow().measure_from.is_some()
    });
    drop(setup);
    let setup_ns = t0.elapsed().as_nanos() as u64;

    if telemetry {
        w.enable_telemetry();
    }
    reset_cpu_accounting(&mut w, &eng);
    let before = Snap::take(&w, &eng, &replicas);
    let measure = span("bench.measure", 0);
    let p2 = pump.clone();
    run_until(&mut w, &mut eng, &mut pending_peak, |_| {
        p2.borrow().completed >= TOTAL
    });
    drop(measure);
    let snap = Snap::take(&w, &eng, &replicas).since(&before);

    let mut errors = Vec::new();
    let p = pump.borrow();
    let failures = router.failures().len() as u64;
    if failures > 0 {
        errors.push(format!("shard {sid}: router reports {failures} failures"));
    }
    if p.completed != TOTAL {
        errors.push(format!(
            "shard {sid}: {} of {TOTAL} writes completed",
            p.completed
        ));
    }
    let stats = router.client(0).stats();
    let sim_s = match (p.measure_from, p.done_at) {
        (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
        _ => 0.0,
    };
    // Every member must hold the client's bytes in the slot area.
    let c = router.client(0).client();
    let span_bytes = SLOTS as usize * WRITE_BYTES;
    let regions: Vec<Vec<u8>> = (0..c.group_size())
        .map(|m| {
            w.hosts[c.member_host(m).0]
                .mem
                .read_vec(c.member_addr(m, 0), span_bytes)
                .expect("replicated region mapped")
        })
        .collect();
    errors.extend(
        check_members(&regions)
            .into_iter()
            .map(|e| format!("shard {sid}: {e}")),
    );
    let report = format!(
        "shard={sid} ops={} lat_sum_ns={} sim_ns={} events={} region={:016x}",
        p.lat.len(),
        p.lat.iter().sum::<u64>(),
        (sim_s * 1e9).round(),
        snap.events,
        crate::round::fnv1a(&regions[0]),
    );
    drop(job);
    ShardOut {
        lat: p.lat.clone(),
        sched: crate::round::sched_latency(&w),
        snap,
        stats,
        failed: p.failed + (TOTAL - p.completed.min(TOTAL)),
        errors,
        ops: p.lat.len() as u64,
        sim_s,
        setup_ns,
        pending_peak,
        report,
        attr: telemetry.then(|| w.attribution()),
    }
}

/// The merged report of a fleet run (also what the 1-thread
/// comparison checks byte for byte).
fn merged_report(outs: &[ShardOut]) -> String {
    outs.iter()
        .map(|o| o.report.as_str())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Run one round; with `check_sequential`, also rerun the fleet on one
/// thread and require a byte-identical merged report.
pub fn run(seed: u64, mode: Mode, check_sequential: bool) -> Round {
    let mut r = Round::default();
    let telemetry = mode == Mode::Telemetry;
    let t0 = Instant::now();
    let round = span("bench.round", 0);
    let exec = span("hl-cluster.exec", 0);
    let jobs = ShardExecutor::new(THREADS).run(SHARDS, |sid| {
        trace::isolated(|| shard_job(seed, sid, telemetry))
    });
    let exec_id = exec.id();
    drop(exec);
    let exec_s = t0.elapsed().as_secs_f64();
    let mut outs = Vec::with_capacity(SHARDS);
    for (sid, (out, spans)) in jobs.into_iter().enumerate() {
        if let Some(parent) = exec_id {
            trace::adopt(spans, parent, 1 + sid as u32);
        }
        outs.push(out);
    }
    let merge = span("hl-cluster.merge", 0);
    let mut lat = Vec::with_capacity((SHARDS as u64 * OPS_PER_SHARD) as usize);
    let mut sched = Histogram::new();
    let mut snap = Snap::default();
    let mut stats = RetryStats::default();
    let (mut ops, mut kops, mut setup_ns, mut pending_peak) = (0u64, 0.0, 0u64, 0u64);
    for o in &outs {
        lat.extend_from_slice(&o.lat);
        sched.merge(&o.sched);
        snap = snap.plus(&o.snap);
        stats.backpressured += o.stats.backpressured;
        stats.reissues += o.stats.reissues;
        ops += o.ops;
        // Shards share nothing, so simulated throughput adds up.
        kops += if o.sim_s > 0.0 {
            o.ops as f64 / o.sim_s / 1e3
        } else {
            0.0
        };
        setup_ns += o.setup_ns;
        pending_peak = pending_peak.max(o.pending_peak);
        r.failed += o.failed;
        for e in &o.errors {
            r.fail(e.clone());
        }
    }
    let report = merged_report(&outs);
    drop(merge);

    // Shard set-up runs inside the jobs, overlapped across threads:
    // charge it at its share of the workers.
    let setup_s = setup_ns as f64 / 1e9 / THREADS as f64;
    r.host.insert("wall_setup_s", setup_s);
    let measure_s = exec_s - setup_s;
    r.host.insert("measure_s", measure_s);
    r.host.insert("wall_ops_per_s", ops as f64 / measure_s);
    r.attempted = SHARDS as u64 * OPS_PER_SHARD;
    lat.sort_unstable();
    r.sim_tail("sim_p50_us", sorted_quantile_ns(&lat, 0.5));
    r.sim_tail("sim_p999_us", sorted_quantile_ns(&lat, 0.999));
    r.sim.insert("sim_kops", kops);
    r.counts.insert("write_samples", lat.len() as f64);
    r.counts.insert("read_samples", 0.0);
    snap.record(&mut r, ops, ops * WRITE_BYTES as u64);
    r.counts.insert("hl-sim.pending_peak", pending_peak as f64);
    r.counts.insert(
        "hyperloop.backpressure_per_op",
        stats.backpressured as f64 / ops.max(1) as f64,
    );
    r.counts.insert(
        "hyperloop.reissues_per_op",
        stats.reissues as f64 / ops.max(1) as f64,
    );
    r.counts.insert("hl-store.log_bytes_per_put", 0.0);
    // No tenants: scheduling latency is the replenishers' alone.
    r.sched_p99(&sched);

    if check_sequential {
        let _g = span("bench.check", 0);
        let seq = ShardExecutor::sequential().run(SHARDS, |sid| {
            trace::isolated(|| shard_job(seed, sid, telemetry)).0
        });
        if merged_report(&seq) != report {
            r.fail("merged report differs from the 1-thread run".into());
        }
    }
    drop(round);
    r.digest_text = report;
    if mode == Mode::Traced {
        crate::layers::record(&mut r, trace::take(), ops, snap.events, THREADS);
    }
    if telemetry {
        let attrs: Vec<_> = outs.iter_mut().filter_map(|o| o.attr.take()).collect();
        crate::attr::record(&mut r, &attrs, mean(&lat), lat.len() as u64);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_fires_on_a_member_that_differs() {
        let good = vec![vec![7u8; 64]; 3];
        assert!(check_members(&good).is_empty());
        let mut bad = good.clone();
        bad[2][13] ^= 1;
        assert_eq!(
            check_members(&bad),
            vec!["member 2 region differs from the client's"]
        );
    }

    #[test]
    fn payload_is_stamped_with_key_and_index() {
        let p = payload(&5u64.to_be_bytes(), 9);
        assert_eq!(p.len(), WRITE_BYTES);
        assert_eq!(&p[8..16], &9u64.to_le_bytes());
    }
}
