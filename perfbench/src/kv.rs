//! `kv-offload`: paper Fig 11. kvlite serves closed-loop YCSB-A from
//! one client; the store is replicated over a 3-replica HyperLoop chain
//! whose hosts (8 cores each) also run 4 hog and 6 bursty tenants.

use crate::round::{reset_cpu_accounting, run_until, sched_latency, Mode, Round, Snap};
use crate::stats::{mean, sorted_quantile_ns};
use crate::trace::{self, span, timed};
use hl_bench::apps::{spawn_background, Background};
use hl_cluster::{deliver, ClusterBuilder, Ctx, ProcEvent, Process, World};
use hl_fabric::HostId;
use hl_sim::config::HwProfile;
use hl_sim::{Engine, RngStream, SimDuration, SimTime};
use hl_store::kv::{KvConfig, KvDb};
use hl_ycsb::{OpGenerator, OpKind, Workload};
use hyperloop::api::LogLayout;
use hyperloop::{replica, GroupBuilder, GroupConfig, HyperLoopClient};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// YCSB record count (zipfian over these keys).
const RECORDS: u64 = 1_000;
/// Value bytes per record.
const VALUE_BYTES: usize = 1024;
/// Unrecorded YCSB ops after the preload.
const WARMUP_OPS: u64 = 200;
/// Recorded YCSB ops. YCSB-A is half updates, so this leaves ~12k
/// writes: p99.9 then has ~12 samples beyond it.
const MEASURED_OPS: u64 = 24_000;
/// Client-side CPU per op: kvlite is an embedded library.
const FRONT_END: SimDuration = SimDuration::from_micros(3);
const TAG_FE: u64 = 1;

type Db = KvDb<HyperLoopClient>;

/// State the driver shares with the round.
#[derive(Default)]
struct Shared {
    measuring: bool,
    done: bool,
    /// Recorded write and read latencies, ns.
    writes: Vec<u64>,
    reads: Vec<u64>,
    /// Model of the store: last version put per key (0 = never).
    versions: Vec<u64>,
    puts_issued: u64,
    puts_acked: u64,
    measured_puts: u64,
    backpressured: u64,
    /// Reads whose value did not match the model.
    bad_reads: u64,
}

/// The value of `key` at `version`: both stamped in the first 16
/// bytes so a stale replica copy cannot match.
fn value(key: u64, version: u64) -> Vec<u8> {
    let mut v = vec![(key ^ version) as u8; VALUE_BYTES];
    v[..8].copy_from_slice(&key.to_le_bytes());
    v[8..16].copy_from_slice(&version.to_le_bytes());
    v
}

fn key_bytes(key: u64) -> Vec<u8> {
    format!("user{key:08}").into_bytes()
}

enum Phase {
    Preload(u64),
    Warmup(u64),
    Measure(u64),
}

struct Driver {
    db: Rc<RefCell<Db>>,
    gen: OpGenerator,
    rng: RngStream,
    shared: Rc<RefCell<Shared>>,
    phase: Phase,
    /// Op in flight: kind, key, start time, op id.
    cur: Option<(OpKind, u64, SimTime, u64)>,
    next_id: u64,
}

struct WriteDone;
struct RetryPut;

impl Driver {
    fn start_next(&mut self, ctx: &mut Ctx<'_>) {
        let (kind, key) = match self.phase {
            Phase::Preload(k) if k < RECORDS => {
                self.phase = Phase::Preload(k + 1);
                (OpKind::Update, k)
            }
            Phase::Preload(_) => {
                self.phase = Phase::Warmup(0);
                return self.start_next(ctx);
            }
            Phase::Warmup(n) if n < WARMUP_OPS => {
                self.phase = Phase::Warmup(n + 1);
                self.draw()
            }
            Phase::Warmup(_) => {
                self.phase = Phase::Measure(0);
                self.shared.borrow_mut().measuring = true;
                return self.start_next(ctx);
            }
            Phase::Measure(n) if n < MEASURED_OPS => {
                self.phase = Phase::Measure(n + 1);
                self.draw()
            }
            Phase::Measure(_) => {
                self.shared.borrow_mut().done = true;
                return;
            }
        };
        self.next_id += 1;
        self.cur = Some((kind, key, ctx.now(), self.next_id));
        ctx.submit_work(FRONT_END, TAG_FE);
    }

    fn draw(&mut self) -> (OpKind, u64) {
        let op = timed("hl-ycsb.next_op", self.next_id + 1, || {
            self.gen.next_op(&mut self.rng)
        });
        (op.kind, op.key)
    }

    fn finish(&mut self, ctx: &mut Ctx<'_>) {
        let (kind, _, started, _) = self.cur.take().expect("op in flight");
        if matches!(self.phase, Phase::Measure(_)) {
            let lat = ctx.now().duration_since(started).as_nanos();
            let mut s = self.shared.borrow_mut();
            if kind == OpKind::Read {
                s.reads.push(lat);
            } else {
                s.writes.push(lat);
            }
        }
        self.start_next(ctx);
    }

    fn read(&mut self, key: u64, id: u64) {
        let want = self.shared.borrow().versions[key as usize];
        let db = self.db.borrow();
        let got = timed("hl-store.get", id, || {
            db.get(&key_bytes(key)).map(<[u8]>::to_vec)
        });
        if got != Some(value(key, want)) {
            self.shared.borrow_mut().bad_reads += 1;
        }
    }

    fn try_put(&mut self, ctx: &mut Ctx<'_>) {
        let (_, key, _, id) = self.cur.expect("op in flight");
        let version = id;
        let me = ctx.me;
        let shared = self.shared.clone();
        let done = Box::new(move |w: &mut World, eng: &mut Engine<World>, _r| {
            let _g = span("bench.callback", id);
            shared.borrow_mut().puts_acked += 1;
            deliver(
                me,
                ProcEvent::Message(Box::new(WriteDone)),
                SimDuration::from_micros(1),
                w,
                eng,
            );
        });
        let res = {
            let mut db = self.db.borrow_mut();
            let (k, v) = (key_bytes(key), value(key, version));
            timed("hl-store.put", id, || {
                db.put(ctx.world, ctx.eng, &k, &v, done)
            })
        };
        let mut s = self.shared.borrow_mut();
        match res {
            Ok(()) => {
                s.versions[key as usize] = version;
                s.puts_issued += 1;
                if matches!(self.phase, Phase::Measure(_)) {
                    s.measured_puts += 1;
                }
            }
            Err(_) => {
                // Log full or ring credits exhausted: retry shortly.
                s.backpressured += 1;
                let me = ctx.me;
                ctx.eng
                    .schedule(SimDuration::from_micros(200), move |w, eng| {
                        deliver(
                            me,
                            ProcEvent::Message(Box::new(RetryPut)),
                            SimDuration::from_micros(1),
                            w,
                            eng,
                        );
                    });
            }
        }
    }
}

impl Process for Driver {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
        let id = self.cur.map_or(0, |c| c.3);
        let _g = span("bench.callback", id);
        match ev {
            ProcEvent::Started => self.start_next(ctx),
            ProcEvent::WorkDone { tag: TAG_FE } => {
                let (kind, key, _, id) = self.cur.expect("op in flight");
                if kind == OpKind::Read {
                    self.read(key, id);
                    self.finish(ctx);
                } else {
                    self.try_put(ctx);
                }
            }
            ProcEvent::Message(m) if m.is::<WriteDone>() => self.finish(ctx),
            ProcEvent::Message(m) if m.is::<RetryPut>() => self.try_put(ctx),
            _ => {}
        }
    }
}

/// One view of the store: the value of key `k` at index `k`.
pub type Table = Vec<Option<Vec<u8>>>;

/// Compare the client's view of every key with each replica's.
/// Returns one line per disagreement.
pub fn check_replicas(primary: &Table, replicas: &[Table]) -> Vec<String> {
    let mut bad = Vec::new();
    for (r, table) in replicas.iter().enumerate() {
        for (k, want) in primary.iter().enumerate() {
            if table.get(k) != Some(want) {
                bad.push(format!("replica {r} disagrees with the client on key {k}"));
            }
        }
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
    profile.cpu.cores = 8;
    let (mut w, mut eng) = timed("hl-cluster.build", 0, || {
        ClusterBuilder::new(4)
            .arena_size(16 << 20)
            .profile(profile)
            .seed(seed)
            .build()
    });
    let replicas = [HostId(1), HostId(2), HostId(3)];
    for &h in &replicas {
        spawn_background(&mut w, &mut eng, h, Background { hogs: 4, bursty: 6 });
    }
    let client = timed("hyperloop.group_build", 0, || {
        let group = GroupBuilder::new(GroupConfig {
            client: HostId(0),
            replicas: replicas.to_vec(),
            rep_bytes: 4 << 20,
            ring_slots: 512,
            replenish_period: SimDuration::from_micros(100),
            transport_timeout: None,
        })
        .build(&mut w);
        replica::start_replenishers(&group, &mut w, &mut eng);
        Rc::new(HyperLoopClient::new(group, &mut w))
    });
    let cfg = KvConfig {
        layout: LogLayout {
            log_off: 0,
            log_cap: 2 << 20,
            db_off: 3 << 20,
        },
        sync_period: SimDuration::from_millis(1),
        truncate_at: 0.5,
        checkpoint_cap: 1 << 20,
    };
    let db = timed("hl-store.open", 0, || {
        Rc::new(RefCell::new(KvDb::open(client, cfg, &mut w, &mut eng)))
    });
    let shared = Rc::new(RefCell::new(Shared {
        versions: vec![0; RECORDS as usize],
        ..Shared::default()
    }));
    let rng = w.rng.stream("kv-driver");
    w.start_process(
        HostId(0),
        "kv-ycsb",
        None,
        Box::new(Driver {
            db: db.clone(),
            gen: OpGenerator::new(Workload::A, RECORDS),
            rng,
            shared: shared.clone(),
            phase: Phase::Preload(0),
            cur: None,
            next_id: 0,
        }),
        SimDuration::from_micros(1),
        &mut eng,
    );
    let mut pending_peak = 0;
    let s2 = shared.clone();
    run_until(&mut w, &mut eng, &mut pending_peak, |_| {
        s2.borrow().measuring
    });
    drop(setup);
    r.host.insert("wall_setup_s", t0.elapsed().as_secs_f64());

    // Measured phase.
    if mode == Mode::Telemetry {
        w.enable_telemetry();
    }
    reset_cpu_accounting(&mut w, &eng);
    let before = Snap::take(&w, &eng, &replicas);
    let (_, tail0) = db.borrow().log_cursors();
    let backpressured0 = shared.borrow().backpressured;
    let sim0 = eng.now();
    let t1 = Instant::now();
    let measure = span("bench.measure", 0);
    let s2 = shared.clone();
    let finished = run_until(&mut w, &mut eng, &mut pending_peak, |_| s2.borrow().done);
    drop(measure);
    let measure_s = t1.elapsed().as_secs_f64();
    let sim_s = eng.now().duration_since(sim0).as_secs_f64();
    let delta = Snap::take(&w, &eng, &replicas).since(&before);
    let (_, tail1) = db.borrow().log_cursors();
    let sched = sched_latency(&w);

    let mut s = shared.borrow_mut();
    s.writes.sort_unstable();
    s.reads.sort_unstable();
    r.attempted = MEASURED_OPS;
    let completed = (s.writes.len() + s.reads.len()) as u64;
    if !finished || completed != MEASURED_OPS {
        r.failed += MEASURED_OPS - completed.min(MEASURED_OPS);
        r.fail(format!("{completed} of {MEASURED_OPS} ops completed"));
    }
    r.host.insert("measure_s", measure_s);
    r.host
        .insert("wall_ops_per_s", completed as f64 / measure_s);
    r.sim_tail("sim_p50_us", sorted_quantile_ns(&s.writes, 0.5));
    r.sim_tail("sim_p999_us", sorted_quantile_ns(&s.writes, 0.999));
    r.sim_tail("sim_read_p999_us", sorted_quantile_ns(&s.reads, 0.999));
    r.sim.insert("sim_kops", completed as f64 / sim_s / 1e3);
    r.counts.insert("write_samples", s.writes.len() as f64);
    r.counts.insert("read_samples", s.reads.len() as f64);
    delta.record(
        &mut r,
        completed,
        s.measured_puts * (16 + VALUE_BYTES as u64),
    );
    r.counts.insert("hl-sim.pending_peak", pending_peak as f64);
    r.counts.insert(
        "hyperloop.backpressure_per_op",
        (s.backpressured - backpressured0) as f64 / completed.max(1) as f64,
    );
    r.counts.insert("hyperloop.reissues_per_op", 0.0);
    r.counts.insert(
        "hl-store.log_bytes_per_put",
        (tail1 - tail0) as f64 / s.measured_puts.max(1) as f64,
    );
    r.sched_p99(&sched);
    if s.bad_reads > 0 {
        r.fail(format!(
            "{} reads returned a value the model did not",
            s.bad_reads
        ));
    }
    let puts = (s.puts_issued, s.puts_acked);
    drop(s);

    if mode == Mode::Telemetry {
        let s = shared.borrow();
        crate::attr::record(
            &mut r,
            &[w.attribution()],
            mean(&s.writes),
            s.writes.len() as u64,
        );
    }

    // Correctness gate: every put acked, and every replica's table
    // equals the client's once the syncers catch up.
    let check = span("bench.check", 0);
    if puts.0 != puts.1 {
        r.failed += puts.0 - puts.1.min(puts.0);
        r.fail(format!("{} puts issued, {} acked", puts.0, puts.1));
    }
    let tail = db.borrow().log_cursors().1;
    for _ in 0..50 {
        if db.borrow().replica_applied().iter().all(|&a| a >= tail) {
            break;
        }
        let next = eng.now() + SimDuration::from_millis(1);
        eng.run_until(&mut w, next);
    }
    let db = db.borrow();
    let primary: Table = (0..RECORDS)
        .map(|k| db.get(&key_bytes(k)).map(<[u8]>::to_vec))
        .collect();
    let tables: Vec<Table> = (0..replicas.len())
        .map(|i| {
            (0..RECORDS)
                .map(|k| db.get_at_replica(i, &key_bytes(k)))
                .collect()
        })
        .collect();
    for e in check_replicas(&primary, &tables) {
        r.fail(e);
    }
    drop(check);
    drop(round);

    r.digest_text = primary
        .iter()
        .map(|v| format!("{:016x}", v.as_deref().map_or(0, crate::round::fnv1a)))
        .collect();
    if mode == Mode::Traced {
        crate::layers::record(&mut r, trace::take(), completed, delta.events, 1);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables() -> (Table, Vec<Table>) {
        let primary: Vec<_> = (0..4).map(|k| Some(value(k, k + 10))).collect();
        (primary.clone(), vec![primary.clone(), primary])
    }

    #[test]
    fn gate_passes_when_every_replica_agrees() {
        let (primary, replicas) = tables();
        assert!(check_replicas(&primary, &replicas).is_empty());
    }

    #[test]
    fn gate_fires_on_one_flipped_replica_value() {
        let (primary, mut replicas) = tables();
        replicas[1][2].as_mut().expect("key 2 present")[100] ^= 0x01;
        assert_eq!(
            check_replicas(&primary, &replicas),
            vec!["replica 1 disagrees with the client on key 2"]
        );
    }

    #[test]
    fn gate_fires_on_a_stale_or_missing_key() {
        let (primary, mut replicas) = tables();
        replicas[0][1] = Some(value(1, 3));
        replicas[1].truncate(3);
        assert_eq!(check_replicas(&primary, &replicas).len(), 2);
    }
}
