//! `native-tenants`: paper Fig 2 geometry. 18 CPU-replicated doclite
//! sets with MongoDB-like costs over 3 servers of 16 cores, each set
//! driven by 12 closed-loop YCSB-A clients on 3 client hosts.

use crate::round::{reset_cpu_accounting, run_until, sched_latency, Mode, Round, Snap};
use crate::stats::quantile_ns;
use crate::trace::{self, span, timed};
use hl_bench::apps::mongo_costs;
use hl_cluster::ClusterBuilder;
use hl_fabric::HostId;
use hl_sim::config::HwProfile;
use hl_sim::SimDuration;
use hl_store::doc::native;
use hl_ycsb::{ycsb_document, FrontEndCosts, NativeDriver, OpKind, Workload, YcsbStats};
use std::time::Instant;

const SETS: usize = 18;
const CLIENTS_PER_SET: usize = 12;
const RECORDS: u64 = 128;
const SLOT_BYTES: u64 = 1536;
/// Field bytes of a YCSB document (one upsert carries one document).
const FIELD_BYTES: u64 = 100;
/// Unrecorded ops per client.
const WARMUP_OPS: u64 = 20;
/// Recorded ops per client: 216 clients x 440 = 95,040 ops, about
/// 47,500 of them writes, so p99.9 has ~47 samples beyond it. Fewer
/// leave the p99.9 spread across seeds near its bound.
const OPS_PER_CLIENT: u64 = 440;

/// Check that every driver finished with its full op count.
pub fn check_drivers(done: usize, completed: u64, drivers: usize, ops_each: u64) -> Vec<String> {
    let mut bad = Vec::new();
    if done != drivers {
        bad.push(format!("{done} of {drivers} drivers finished"));
    }
    let want = drivers as u64 * ops_each;
    if completed != want {
        bad.push(format!("{completed} of {want} recorded ops completed"));
    }
    bad
}

/// Run one round.
pub fn run(seed: u64, mode: Mode) -> Round {
    let mut r = Round::default();
    let t0 = Instant::now();
    let round = span("bench.round", 0);
    let setup = span("bench.setup", 0);

    let mut profile = HwProfile::default();
    profile.cpu.cores = 16;
    let (mut w, mut eng) = timed("hl-cluster.build", 0, || {
        ClusterBuilder::new(6)
            .arena_size(32 << 20)
            .profile(profile)
            .seed(seed)
            .build()
    });
    let servers = [HostId(0), HostId(1), HostId(2)];
    let clients = [HostId(3), HostId(4), HostId(5)];
    let stats = YcsbStats::shared();
    let docs: Vec<_> = (0..RECORDS)
        .map(|id| ycsb_document(id, FIELD_BYTES as usize))
        .collect();
    for s in 0..SETS {
        // Rotate the primary across the servers.
        let hosts: Vec<HostId> = (0..3).map(|k| servers[(s + k) % 3]).collect();
        let set = timed("hl-store.native_spawn", 0, || {
            let set = native::spawn_native_set_workers(
                &mut w,
                &mut eng,
                &format!("set{s}"),
                &hosts,
                SLOT_BYTES,
                RECORDS,
                CLIENTS_PER_SET,
                mongo_costs(),
            );
            native::preload(&mut w, &set, SLOT_BYTES, RECORDS, &docs);
            set
        });
        for t in 0..CLIENTS_PER_SET {
            let rng = w.rng.stream_idx("native-driver", (s * 64 + t) as u64);
            w.start_process(
                clients[s % 3],
                &format!("ycsb-{s}-{t}"),
                None,
                Box::new(NativeDriver::new(
                    set.primaries[t % set.primaries.len()],
                    set.write_recv_cost,
                    set.read_recv_cost,
                    Workload::A,
                    RECORDS,
                    OPS_PER_CLIENT,
                    WARMUP_OPS,
                    rng,
                    stats.clone(),
                    FrontEndCosts {
                        write: SimDuration::from_micros(120),
                        read: SimDuration::from_micros(60),
                        scan_per_doc: SimDuration::from_micros(4),
                    },
                )),
                SimDuration::from_micros(1),
                &mut eng,
            );
        }
    }
    let drivers = SETS * CLIENTS_PER_SET;
    // Set-up ends at the first recorded op; later clients may still be
    // warming up, so their warmup ops count as measured work.
    let mut pending_peak = 0;
    let s2 = stats.clone();
    run_until(&mut w, &mut eng, &mut pending_peak, |_| {
        s2.borrow().completed >= 1
    });
    drop(setup);
    r.host.insert("wall_setup_s", t0.elapsed().as_secs_f64());

    if mode == Mode::Telemetry {
        w.enable_telemetry();
    }
    reset_cpu_accounting(&mut w, &eng);
    let before = Snap::take(&w, &eng, &servers);
    let first = stats.borrow().completed;
    let sim0 = eng.now();
    let t1 = Instant::now();
    let measure = span("bench.measure", 0);
    let s2 = stats.clone();
    run_until(&mut w, &mut eng, &mut pending_peak, |_| {
        s2.borrow().drivers_done >= drivers
    });
    drop(measure);
    let measure_s = t1.elapsed().as_secs_f64();
    let sim_s = eng.now().duration_since(sim0).as_secs_f64();
    let delta = Snap::take(&w, &eng, &servers).since(&before);

    let st = stats.borrow();
    let ops = st.completed - first;
    r.attempted = drivers as u64 * OPS_PER_CLIENT;
    r.failed = r.attempted - st.completed.min(r.attempted);
    r.host.insert("measure_s", measure_s);
    r.host.insert("wall_ops_per_s", ops as f64 / measure_s);
    // `NativeDriver` records into bucketed histograms (~1.6% wide).
    r.sim_tail("sim_p50_us", quantile_ns(&st.writes, 0.5));
    r.sim_tail("sim_p999_us", quantile_ns(&st.writes, 0.999));
    r.sim_tail(
        "sim_read_p999_us",
        quantile_ns(st.kind(OpKind::Read), 0.999),
    );
    r.sim.insert("sim_kops", ops as f64 / sim_s / 1e3);
    r.counts.insert("write_samples", st.writes.count() as f64);
    r.counts
        .insert("read_samples", st.kind(OpKind::Read).count() as f64);
    delta.record(&mut r, ops, st.writes.count() * FIELD_BYTES);
    r.counts.insert("hl-sim.pending_peak", pending_peak as f64);
    r.counts.insert("hyperloop.backpressure_per_op", 0.0);
    r.counts.insert("hyperloop.reissues_per_op", 0.0);
    r.counts.insert("hl-store.log_bytes_per_put", 0.0);
    r.sched_p99(&sched_latency(&w));
    if mode == Mode::Telemetry {
        crate::attr::record(
            &mut r,
            &[w.attribution()],
            st.writes.mean(),
            st.writes.count(),
        );
    }

    let check = span("bench.check", 0);
    for e in check_drivers(st.drivers_done, st.completed, drivers, OPS_PER_CLIENT) {
        r.fail(e);
    }
    drop(check);
    drop(round);
    r.digest_text = format!(
        "completed={} writes={} all_sum={}",
        st.completed,
        st.writes.count(),
        st.all.sum()
    );
    if mode == Mode::Traced {
        crate::layers::record(&mut r, trace::take(), ops, delta.events, 1);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_fires_when_a_driver_stops_short() {
        assert!(check_drivers(216, 216 * 440, 216, 440).is_empty());
        let bad = check_drivers(215, 216 * 440 - 3, 216, 440);
        assert_eq!(bad.len(), 2, "{bad:?}");
    }
}
