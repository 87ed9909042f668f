//! Live-migration campaign: quantifies what a shard split *costs* the
//! keys being moved and proves it costs the neighbours nothing.
//!
//! One three-shard HyperLoop deployment (disjoint chains) serves an
//! open-loop keyed write stream while shard 0 is split onto a freshly
//! placed chain with [`hyperloop::split_live`] — dirty-log + bulk
//! catch-up + bounded drain + dual-window cutover, traffic flowing
//! throughout. Every op's end-to-end supervised latency is recorded
//! against the key's *original* owner shard, and the campaign reports:
//!
//! * **Disruption ratio** — the migrating shard's p99 over ops issued
//!   inside the migration window `[t_split, t_retired]` divided by its
//!   steady-state p99 (every op issued outside the window).
//! * **Bystander ratio** — the bystander shards' p99 in the migrating
//!   run divided by the same shards' p99 in a no-migration control of
//!   the same seed. The per-op latency vectors must be byte-identical,
//!   so this ratio is **exactly 1.0** — computed from the two vectors,
//!   not asserted into existence.
//!
//! The run doubles as a correctness gate: every op acks, the router
//! flips exactly once, and every key's final record is byte-identical
//! on every member of its final owner chain to the pure-function
//! expected payload.

use hl_cluster::chaos::{member_snapshot, BystanderProbe};
use hl_cluster::shard::{HashRing, ShardGroup, ShardPlan};
use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::{SimDuration, SimTime};
use hyperloop::api::GroupClient;
use hyperloop::{
    replica, split_live, DeadlinePolicy, GroupBuilder, GroupConfig, HyperLoopClient, MigrationSpec,
    RetryClient, ShardRouter,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Initial shards, members per chain, dest-chain hosts.
const N_SHARDS: usize = 3;
const REPLICAS: usize = 2;
const G: usize = 1 + REPLICAS;
const DEST_CLIENT: HostId = HostId(9);
const DEST_REPLICAS: [HostId; 2] = [HostId(10), HostId(11)];
const N_HOSTS: usize = 12;

/// The shard being split.
pub const PARENT: usize = 0;

/// Key/slot geometry: each key owns one globally unique record slot. The
/// replicated region is deliberately large (4 MiB) so the bulk stream
/// keeps the migration window open across many paced ops — the window is
/// what the campaign measures.
const K: usize = 48;
const REC_BYTES: usize = 64;
const REP_BYTES: u64 = 4 << 20;

/// Open-loop schedule: one write per `OP_PERIOD_NS` from `T_START_NS`;
/// the split lands at `T_SPLIT_NS`, well inside the traffic window.
const T_START_NS: u64 = 1_000_000;
const OP_PERIOD_NS: u64 = 50_000;
const T_SPLIT_NS: u64 = 4_000_000;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct MigrationCfg {
    /// Total recorded operations across the three shards.
    pub ops: usize,
    /// Simulation seed (shared by the migrating run and its control).
    pub seed: u64,
}

impl Default for MigrationCfg {
    fn default() -> Self {
        MigrationCfg {
            ops: 800,
            seed: 1010,
        }
    }
}

fn key_bytes(i: usize) -> [u8; 8] {
    (i as u64).to_le_bytes()
}

fn slot_off(i: usize) -> u64 {
    (i * REC_BYTES) as u64
}

/// Op `j` writes key `j % K`; the payload is a pure function of both.
fn record(i: usize, j: usize) -> Vec<u8> {
    let mut v = format!("mig{i:03}-v{j:04}-").into_bytes();
    while v.len() < REC_BYTES {
        v.push(b'a' + ((i + j) % 26) as u8);
    }
    v
}

/// The last op index writing key `i` under an `ops`-long schedule.
fn last_version(i: usize, ops: usize) -> usize {
    i + K * ((ops - 1 - i) / K)
}

fn retry_policy() -> DeadlinePolicy {
    DeadlinePolicy {
        deadline: SimDuration::from_millis(2),
        max_attempts: 20,
        backoff: SimDuration::from_micros(500),
        backoff_cap: SimDuration::from_millis(4),
    }
}

/// One campaign run's raw observations.
pub struct MigrationRun {
    /// True once the split's cutover retired the old ownership.
    pub migrated: bool,
    /// Router ring flips (1 for the split run, 0 for the control).
    pub epoch: u64,
    /// Ops that settled OK.
    pub acked: usize,
    /// Ops that failed with a typed error.
    pub failed: usize,
    /// When the split was initiated (ns), 0 for the control.
    pub t_split_ns: u64,
    /// When the migration retired (ns), 0 for the control.
    pub t_retired_ns: u64,
    /// Per *original* shard: `(op index, latency_ns)` in settle order.
    pub latencies: Vec<Vec<(usize, u64)>>,
    /// `[key][member]` final record bytes on the key's final owner.
    pub key_values: Vec<Vec<Vec<u8>>>,
}

/// Run the campaign once: three chains + router, open-loop keyed
/// writes, and (when `do_split`) the live split of shard 0 mid-stream.
pub fn run_migration_campaign(cfg: &MigrationCfg, do_split: bool) -> MigrationRun {
    let (mut w, mut eng) = ClusterBuilder::new(N_HOSTS)
        .arena_size(16 << 20)
        .seed(cfg.seed)
        .build();

    let hosts: Vec<HostId> = (0..N_SHARDS * G).map(HostId).collect();
    let plan = ShardPlan::place(N_SHARDS, REPLICAS, &hosts);
    assert!(plan.is_disjoint());
    let mut retries = Vec::new();
    for g in &plan.groups {
        let group = GroupBuilder::new(GroupConfig {
            client: g.client,
            replicas: g.replicas.clone(),
            rep_bytes: REP_BYTES,
            ring_slots: 64,
            transport_timeout: Some((SimDuration::from_millis(3), 7)),
            ..Default::default()
        })
        .build(&mut w);
        replica::start_replenishers(&group, &mut w, &mut eng);
        let client = HyperLoopClient::new(group, &mut w);
        retries.push(RetryClient::with_policy(client, retry_policy()));
    }
    let router = ShardRouter::new(retries);

    // Completions recorded per *original* owner so the migrating run
    // and the control index identically.
    let ring0 = HashRing::new(N_SHARDS);
    let acked = Rc::new(RefCell::new(0usize));
    let probes: Vec<BystanderProbe> = (0..N_SHARDS).map(|_| BystanderProbe::new()).collect();
    for j in 0..cfg.ops {
        let i = j % K;
        let router = router.clone();
        let acked = acked.clone();
        let probe = probes[ring0.shard_of(&key_bytes(i))].clone();
        let at = SimTime::from_nanos(T_START_NS + j as u64 * OP_PERIOD_NS);
        eng.schedule_at(at, move |w: &mut World, eng| {
            router.gwrite_keyed(
                w,
                eng,
                &key_bytes(i),
                slot_off(i),
                &record(i, j),
                true,
                Box::new(move |_w, _e, r| match r {
                    Ok(res) => {
                        *acked.borrow_mut() += 1;
                        probe.record(j, res.latency.as_nanos());
                    }
                    Err(_) => probe.record_failure(),
                }),
            );
        });
    }

    let t_retired = Rc::new(RefCell::new(0u64));
    if do_split {
        let router2 = router.clone();
        let t = t_retired.clone();
        eng.schedule_at(
            SimTime::from_nanos(T_SPLIT_NS),
            move |w: &mut World, eng| {
                split_live(
                    &router2,
                    PARENT,
                    ShardGroup {
                        shard: N_SHARDS,
                        client: DEST_CLIENT,
                        replicas: DEST_REPLICAS.to_vec(),
                    },
                    MigrationSpec {
                        policy: retry_policy(),
                    },
                    w,
                    eng,
                    Box::new(move |_w, eng| *t.borrow_mut() = eng.now().as_nanos()),
                );
            },
        );
    }

    let horizon = T_START_NS + cfg.ops as u64 * OP_PERIOD_NS + 60_000_000;
    eng.run_until(&mut w, SimTime::from_nanos(horizon));
    assert_eq!(router.outstanding(), 0, "ops still in flight at horizon");
    assert_eq!(router.parked(), 0, "ops left parked at horizon");

    let final_ring = if do_split {
        ring0.split_shard(PARENT)
    } else {
        ring0.clone()
    };
    let key_values = (0..K)
        .map(|i| {
            let c = router.client(final_ring.shard_of(&key_bytes(i))).client();
            (0..c.group_size())
                .map(|m| {
                    member_snapshot(
                        &w,
                        c.member_host(m),
                        c.member_addr(m, slot_off(i)),
                        REC_BYTES,
                    )
                })
                .collect()
        })
        .collect();

    let failed = probes.iter().map(|p| p.failed()).sum();
    let t_retired_ns = *t_retired.borrow();
    let acked = *acked.borrow();
    MigrationRun {
        migrated: t_retired_ns > 0,
        epoch: router.epoch(),
        acked,
        failed,
        t_split_ns: if do_split { T_SPLIT_NS } else { 0 },
        t_retired_ns,
        latencies: probes.iter().map(|p| p.latencies()).collect(),
        key_values,
    }
}

/// p99 (nearest-rank over the sorted vector); 0 for an empty set.
pub fn p99_ns(lat: &[u64]) -> u64 {
    if lat.is_empty() {
        return 0;
    }
    let mut v = lat.to_vec();
    v.sort_unstable();
    v[(v.len() - 1) * 99 / 100]
}

/// Partition one shard's `(op, latency)` vector by whether the op was
/// *issued* inside the migration window `[t_split, t_retired]`.
pub fn split_window(
    lat: &[(usize, u64)],
    t_split_ns: u64,
    t_retired_ns: u64,
) -> (Vec<u64>, Vec<u64>) {
    let issued_at = |j: usize| T_START_NS + j as u64 * OP_PERIOD_NS;
    let (mut during, mut steady) = (Vec::new(), Vec::new());
    for &(j, l) in lat {
        if issued_at(j) >= t_split_ns && issued_at(j) <= t_retired_ns {
            during.push(l);
        } else {
            steady.push(l);
        }
    }
    (during, steady)
}

/// The distilled campaign verdict written to BENCH_10.json.
pub struct MigrationVerdict {
    /// Migration window width in nanoseconds.
    pub window_ns: u64,
    /// Migrating-shard ops issued inside the window.
    pub during_ops: usize,
    /// Migrating-shard ops issued outside the window.
    pub steady_ops: usize,
    /// Migrating-shard p99 inside the window (ns).
    pub during_p99_ns: u64,
    /// Migrating-shard p99 outside the window (ns).
    pub steady_p99_ns: u64,
    /// `during_p99 / steady_p99`.
    pub disruption_ratio: f64,
    /// True iff both bystander shards' latency vectors are
    /// byte-identical between the migrating run and the control.
    pub bystander_identical: bool,
    /// Bystander p99 in the migrating run / in the control — exactly
    /// 1.0 when the vectors are identical.
    pub bystander_ratio: f64,
    /// Bystander p99 (ns), identical across both runs.
    pub bystander_p99_ns: u64,
}

/// Reduce a (migrating run, control run) pair to the verdict.
pub fn verdict(mig: &MigrationRun, control: &MigrationRun) -> MigrationVerdict {
    let (during, steady) = split_window(&mig.latencies[PARENT], mig.t_split_ns, mig.t_retired_ns);
    let during_p99_ns = p99_ns(&during);
    let steady_p99_ns = p99_ns(&steady);

    let bystander_identical = (1..N_SHARDS).all(|s| mig.latencies[s] == control.latencies[s]);
    let by = |run: &MigrationRun| {
        let all: Vec<u64> = (1..N_SHARDS)
            .flat_map(|s| run.latencies[s].iter().map(|&(_, l)| l))
            .collect();
        p99_ns(&all)
    };
    let (by_mig, by_ctl) = (by(mig), by(control));
    MigrationVerdict {
        window_ns: mig.t_retired_ns.saturating_sub(mig.t_split_ns),
        during_ops: during.len(),
        steady_ops: steady.len(),
        during_p99_ns,
        steady_p99_ns,
        disruption_ratio: during_p99_ns as f64 / steady_p99_ns as f64,
        bystander_identical,
        bystander_ratio: by_mig as f64 / by_ctl as f64,
        bystander_p99_ns: by_mig,
    }
}

/// Correctness floor: every key's final record on every member of its
/// final owner chain equals the pure-function expectation. Returns the
/// first divergence as an error string.
pub fn check_oracle(run: &MigrationRun, ops: usize) -> Result<(), String> {
    for i in 0..K {
        let want = record(i, last_version(i, ops));
        for (m, got) in run.key_values[i].iter().enumerate() {
            if got != &want {
                return Err(format!("key {i} member {m}: final record diverges"));
            }
        }
    }
    Ok(())
}
