//! Live shard split/merge under traffic, proven correct by a migration
//! test battery.
//!
//! A three-shard HyperLoop deployment (disjoint chains placed by
//! [`ShardPlan::place`]) serves an open-loop keyed write stream while
//! shard 0 is split onto a freshly placed chain —
//! [`split_live`] streams the donor region with the dirty-log + bulk
//! catch-up + bounded-drain + dual-window machinery — and, in the
//! round-trip campaign, merged back with [`merge_live`]. The invariants,
//! per seed:
//!
//! 1. **Differential oracle** — per key, the value replicated by the
//!    HyperLoop-with-mid-run-split run is byte-identical on every member
//!    of the key's *final* owner chain to a never-split Naïve control
//!    driving the same schedule (and to the pure-function expected
//!    payload).
//! 2. **Bystander isolation** — shards 1 and 2 record byte-identical
//!    per-op latency vectors (and whole-region member snapshots) to a
//!    no-migration control of the same seed, including when the donor
//!    chain runs under a gray impairment matrix for the whole window.
//! 3. **Thread-count determinism** — the same seeds produce identical
//!    snapshots at 1, 2 and 4 [`ShardExecutor`] threads.
//! 4. **Protocol order** — stage transitions fire exactly
//!    `idle→planned→streaming→draining→cutover→retired`, and the router
//!    flip replays every parked op.
//! 5. **Model battery** — seeded proptest sequences interleaving issued
//!    ops, stage advances and crashes over [`MigrationModel`] never lose
//!    or double-apply an op.

use hyperloop_repro::cluster::chaos::{member_snapshot, BystanderProbe, FaultSchedule};
use hyperloop_repro::cluster::exec::ShardExecutor;
use hyperloop_repro::cluster::migrate::{MigrationActor, MigrationModel, MigrationStage};
use hyperloop_repro::cluster::shard::{HashRing, ShardGroup, ShardPlan};
use hyperloop_repro::cluster::{ClusterBuilder, World};
use hyperloop_repro::fabric::HostId;
use hyperloop_repro::hyperloop::api::GroupClient;
use hyperloop_repro::hyperloop::health::live_cutover;
use hyperloop_repro::hyperloop::naive::{Mode, NaiveBuilder, NaiveClient, NaiveConfig};
use hyperloop_repro::hyperloop::{
    merge_live, replica, split_live, DeadlinePolicy, GroupBuilder, GroupConfig, HyperLoopClient,
    MigrationSpec, RetryClient, ShardRouter,
};
use hyperloop_repro::sim::{Engine, SimDuration, SimTime};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Initial shards, members per chain, dest chain hosts.
const N_SHARDS: usize = 3;
const REPLICAS: usize = 2;
const G: usize = 1 + REPLICAS;
const DEST_CLIENT: HostId = HostId(9);
const DEST_REPLICAS: [HostId; 2] = [HostId(10), HostId(11)];
const N_HOSTS: usize = 12;
const PARENT: usize = 0;

/// Key/slot geometry: every key owns one globally unique record slot,
/// so a migrated range can never clobber a surviving shard's keys.
const K: usize = 48;
const REC_BYTES: usize = 64;
const REP_BYTES: u64 = 16 << 10;

/// Open-loop schedule: `N_OPS` writes, one every 100µs from 1ms; the
/// split starts at 4ms and the (optional) merge back at 14ms, both well
/// inside the traffic window.
const N_OPS: usize = 240;
const T_START: u64 = 1_000_000;
const OP_PERIOD: u64 = 100_000;
const T_SPLIT: u64 = 4_000_000;
const T_MERGE: u64 = 14_000_000;
const T_END: u64 = 40_000_000;

fn key_bytes(i: usize) -> [u8; 8] {
    (i as u64).to_le_bytes()
}

fn slot_off(i: usize) -> u64 {
    (i * REC_BYTES) as u64
}

/// Op `j` writes key `j % K`; the payload is a pure function of both.
fn record(i: usize, j: usize) -> Vec<u8> {
    let mut v = format!("key{i:03}-v{j:04}-").into_bytes();
    while v.len() < REC_BYTES {
        v.push(b'a' + ((i + j) % 26) as u8);
    }
    v
}

/// The last op index writing key `i` — its expected final version.
fn last_version(i: usize) -> usize {
    last_write(i, K, N_OPS)
}

/// The last of `ops` round-robin writes over `keys` keys that hits `i`.
fn last_write(i: usize, keys: usize, ops: usize) -> usize {
    i + keys * ((ops - 1 - i) / keys)
}

fn base_ring() -> HashRing {
    HashRing::new(N_SHARDS)
}

fn split_ring() -> HashRing {
    base_ring().split_shard(PARENT)
}

fn dest_group() -> ShardGroup {
    ShardGroup {
        shard: N_SHARDS,
        client: DEST_CLIENT,
        replicas: DEST_REPLICAS.to_vec(),
    }
}

fn place() -> ShardPlan {
    let hosts: Vec<HostId> = (0..N_SHARDS * G).map(HostId).collect();
    let plan = ShardPlan::place(N_SHARDS, REPLICAS, &hosts);
    assert!(plan.is_disjoint());
    plan
}

fn mig_spec() -> MigrationSpec {
    MigrationSpec {
        policy: retry_policy(),
    }
}

fn retry_policy() -> DeadlinePolicy {
    DeadlinePolicy {
        deadline: SimDuration::from_millis(2),
        max_attempts: 20,
        backoff: SimDuration::from_micros(500),
        backoff_cap: SimDuration::from_millis(4),
    }
}

/// Everything one campaign run observes. Only plain data + shared
/// probes — no simulation state — so [`digest`] can lower it to `Send`
/// bytes for the threaded determinism property.
struct CampaignRun {
    migrated: bool,
    merged: bool,
    epoch: u64,
    n_failures: usize,
    acked: Vec<bool>,
    /// Per *original* shard: completion latencies in op order.
    probes: Vec<BystanderProbe>,
    /// `[key][member]` record bytes on the key's final owner chain.
    key_values: Vec<Vec<Vec<u8>>>,
    /// `[shard 1, shard 2][member]` whole-region snapshots.
    bystander_regions: Vec<Vec<Vec<u8>>>,
    /// Telemetry mark names in emission order (empty when disabled).
    marks: Vec<String>,
    race: Vec<String>,
}

/// The chain config of one placed shard group (also what a live
/// cutover rebuilds it with).
fn chain_config(g: &ShardGroup) -> GroupConfig {
    GroupConfig {
        client: g.client,
        replicas: g.replicas.clone(),
        rep_bytes: REP_BYTES,
        ring_slots: 64,
        transport_timeout: Some((SimDuration::from_millis(3), 7)),
        ..Default::default()
    }
}

/// Three placed chains behind one router on the base ring.
fn build_router(w: &mut World, eng: &mut Engine<World>) -> ShardRouter {
    let retries = place()
        .groups
        .iter()
        .map(|g| {
            let group = GroupBuilder::new(chain_config(g)).build(w);
            replica::start_replenishers(&group, w, eng);
            let client = HyperLoopClient::new(group, w);
            RetryClient::with_policy(client, retry_policy())
        })
        .collect();
    let router = ShardRouter::new(retries);
    assert_eq!(router.ring(), base_ring());
    router
}

/// Run the campaign: three chains + router, open-loop keyed writes,
/// optional mid-run split (and merge back), optional fault schedule.
fn run_campaign(
    seed: u64,
    do_split: bool,
    merge_back: bool,
    faults: Option<&FaultSchedule>,
    telemetry: bool,
) -> CampaignRun {
    assert!(do_split || !merge_back, "merge-back requires the split");
    let (mut w, mut eng) = ClusterBuilder::new(N_HOSTS)
        .arena_size(4 << 20)
        .seed(seed)
        .build();
    if telemetry {
        w.enable_telemetry();
    }

    let router = build_router(&mut w, &mut eng);

    // Open-loop keyed traffic; completions recorded per *original*
    // owner so migration and control runs index identically.
    let ring0 = base_ring();
    let acked = Rc::new(RefCell::new(vec![false; N_OPS]));
    let probes: Vec<BystanderProbe> = (0..N_SHARDS).map(|_| BystanderProbe::new()).collect();
    for j in 0..N_OPS {
        let i = j % K;
        let router = router.clone();
        let acked = acked.clone();
        let probe = probes[ring0.shard_of(&key_bytes(i))].clone();
        let at = SimTime::from_nanos(T_START + j as u64 * OP_PERIOD);
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
                        acked.borrow_mut()[j] = true;
                        probe.record(j, res.latency.as_nanos());
                    }
                    Err(_) => probe.record_failure(),
                }),
            );
        });
    }

    let migrated = Rc::new(RefCell::new(false));
    let merged = Rc::new(RefCell::new(false));
    if do_split {
        let router2 = router.clone();
        let m = migrated.clone();
        eng.schedule_at(SimTime::from_nanos(T_SPLIT), move |w: &mut World, eng| {
            split_live(
                &router2,
                PARENT,
                dest_group(),
                mig_spec(),
                w,
                eng,
                Box::new(move |_w, _e| *m.borrow_mut() = true),
            );
        });
    }
    if merge_back {
        // Merge the split-off shard straight back into its parent. The
        // moving ranges are the slots of the keys the split moved.
        let moving: Vec<(u64, u64)> = (0..K)
            .filter(|&i| split_ring().shard_of(&key_bytes(i)) == N_SHARDS)
            .map(|i| (slot_off(i), REC_BYTES as u64))
            .collect();
        let router2 = router.clone();
        let migrated = migrated.clone();
        let m = merged.clone();
        eng.schedule_at(SimTime::from_nanos(T_MERGE), move |w: &mut World, eng| {
            assert!(
                *migrated.borrow(),
                "split must have finished before the merge starts"
            );
            merge_live(
                &router2,
                PARENT,
                moving,
                w,
                eng,
                Box::new(move |_w, _e| *m.borrow_mut() = true),
            );
        });
    }

    if let Some(sched) = faults {
        sched.apply(&mut eng);
    }
    eng.run_until(&mut w, SimTime::from_nanos(T_END));
    assert_eq!(router.outstanding(), 0, "seed {seed}: ops still in flight");
    assert_eq!(router.parked(), 0, "seed {seed}: ops left parked");

    // Final owner ring of every key.
    let final_ring = if do_split && !merge_back {
        split_ring()
    } else {
        base_ring()
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
    let bystander_regions = (1..N_SHARDS)
        .map(|sid| {
            let c = router.client(sid).client();
            (0..c.group_size())
                .map(|m| {
                    member_snapshot(
                        &w,
                        c.member_host(m),
                        c.member_addr(m, 0),
                        REP_BYTES as usize,
                    )
                })
                .collect()
        })
        .collect();

    let race = w.race_report();

    let (did_migrate, did_merge) = (*migrated.borrow(), *merged.borrow());
    let acked = acked.borrow().clone();
    CampaignRun {
        migrated: did_migrate,
        merged: did_merge,
        epoch: router.epoch(),
        n_failures: router.failures().len(),
        acked,
        probes,
        key_values,
        bystander_regions,
        marks: w.telemetry.marks().iter().map(|m| m.name.clone()).collect(),
        race,
    }
}

/// The never-split Naïve control: the same schedule over naive chains
/// on the same placement; returns `[key][member]` record bytes.
fn run_naive_control(seed: u64) -> Vec<Vec<Vec<u8>>> {
    let (mut w, mut eng) = ClusterBuilder::new(N_HOSTS)
        .arena_size(4 << 20)
        .seed(seed)
        .build();
    let plan = place();
    let clients: Vec<Rc<NaiveClient>> = plan
        .groups
        .iter()
        .map(|g| {
            Rc::new(
                NaiveBuilder::new(NaiveConfig {
                    client: g.client,
                    replicas: g.replicas.clone(),
                    rep_bytes: REP_BYTES,
                    ring_slots: 64,
                    mode: Mode::Event,
                    ..Default::default()
                })
                .build(&mut w, &mut eng),
            )
        })
        .collect();

    let ring = base_ring();
    for j in 0..N_OPS {
        let i = j % K;
        let c = clients[ring.shard_of(&key_bytes(i))].clone();
        let at = SimTime::from_nanos(T_START + j as u64 * OP_PERIOD);
        eng.schedule_at(at, move |w: &mut World, eng| {
            c.gwrite(
                w,
                eng,
                slot_off(i),
                &record(i, j),
                true,
                Box::new(|_w, _e, _r| {}),
            )
            .expect("paced naive issue never backpressures");
        });
    }
    eng.run_until(&mut w, SimTime::from_nanos(T_END));

    (0..K)
        .map(|i| {
            let c = &clients[ring.shard_of(&key_bytes(i))];
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
        .collect()
}

fn assert_race_free(run: &CampaignRun, what: &str) {
    assert!(run.race.is_empty(), "{what}: races: {:?}", run.race);
}

/// The split must move some of shard 0's keys and keep some — otherwise
/// both the oracle and the bystander property are vacuous.
fn assert_split_nontrivial() {
    let (b, s) = (base_ring(), split_ring());
    let moved = (0..K)
        .filter(|&i| b.shard_of(&key_bytes(i)) == PARENT && s.shard_of(&key_bytes(i)) == N_SHARDS)
        .count();
    let kept = (0..K)
        .filter(|&i| b.shard_of(&key_bytes(i)) == PARENT && s.shard_of(&key_bytes(i)) == PARENT)
        .count();
    assert!(moved > 0, "no key moves in the split; enlarge K");
    assert!(kept > 0, "every donor key moves; enlarge K");
    for i in 0..K {
        let (from, to) = (b.shard_of(&key_bytes(i)), s.shard_of(&key_bytes(i)));
        assert!(
            from == to || (from == PARENT && to == N_SHARDS),
            "key {i} moved {from}->{to}, not parent->new"
        );
    }
}

/// Invariant 1: mid-run split vs never-split Naïve control, per-key
/// byte identity on every member of the final owner chain.
#[test]
fn mid_run_split_matches_never_split_naive_control() {
    assert_split_nontrivial();
    let hl = run_campaign(42, true, false, None, false);
    assert!(hl.migrated, "split did not complete");
    assert_eq!(hl.epoch, 1, "exactly one router flip");
    assert_eq!(hl.n_failures, 0, "fault-free run must not fail ops");
    assert!(hl.acked.iter().all(|&a| a), "every op must ack");
    assert_race_free(&hl, "split campaign");

    let nv = run_naive_control(42);
    for (i, (hl_kv, nv_kv)) in hl.key_values.iter().zip(&nv).enumerate() {
        let want = record(i, last_version(i));
        for (m, got) in hl_kv.iter().enumerate() {
            assert_eq!(
                got, &want,
                "key {i}: HyperLoop member {m} of the final owner diverges"
            );
        }
        for (m, got) in nv_kv.iter().enumerate() {
            assert_eq!(got, &want, "key {i}: naive member {m} diverges");
        }
        for (m, (a, b)) in hl_kv.iter().zip(nv_kv).enumerate() {
            assert_eq!(
                a, b,
                "key {i} member {m}: split run diverges from never-split control"
            );
        }
    }
}

/// Invariant 1 (shrink direction): split, keep writing, merge back —
/// ownership is restored and every key's final version lands on every
/// member of its (original) owner chain, byte-identical to the control.
#[test]
fn split_then_merge_back_under_traffic_matches_control() {
    let hl = run_campaign(43, true, true, None, false);
    assert!(hl.migrated && hl.merged, "split+merge did not complete");
    assert_eq!(hl.epoch, 2, "two router flips (split, merge)");
    assert_eq!(hl.n_failures, 0);
    assert!(hl.acked.iter().all(|&a| a), "every op must ack");
    assert_race_free(&hl, "split+merge campaign");

    let nv = run_naive_control(43);
    for (i, (hl_kv, nv_kv)) in hl.key_values.iter().zip(&nv).enumerate() {
        let want = record(i, last_version(i));
        for (m, (a, b)) in hl_kv.iter().zip(nv_kv).enumerate() {
            assert_eq!(a, &want, "key {i} member {m}: wrong final version");
            assert_eq!(a, b, "key {i} member {m}: round trip diverges from control");
        }
    }
}

/// Invariant 2: shards 1 and 2 must not notice shard 0's migration —
/// per-op latency vectors and whole-region member snapshots are
/// byte-identical to the no-migration control of the same seed.
#[test]
fn bystanders_unperturbed_by_neighbor_split() {
    let split = run_campaign(44, true, false, None, false);
    let control = run_campaign(44, false, false, None, false);
    assert!(split.migrated);
    assert_eq!(control.epoch, 0);

    for sid in 1..N_SHARDS {
        split.probes[sid].assert_identical_to(&control.probes[sid], "migration-bystander");
        assert_eq!(
            split.bystander_regions[sid - 1],
            control.bystander_regions[sid - 1],
            "shard {sid}: member regions perturbed by the neighbor's migration"
        );
    }
    assert_race_free(&split, "bystander campaign");
}

/// Invariant 2 under gray impairment: the donor chain is degraded by a
/// seeded impairment matrix (jitter, lossy links, rate limits,
/// straggler NICs — donor-scoped by construction) for the whole
/// migration window; bystander timing must still be byte-identical
/// between the migrating run and the impaired-but-not-migrating
/// control.
#[test]
fn bystanders_unperturbed_by_split_under_gray_impairment() {
    let plan = place();
    let donor = &plan.groups[PARENT];
    let sched = FaultSchedule::generate_gray(
        77,
        &donor.replicas,
        donor.client,
        SimTime::from_nanos(2_000_000),
        SimTime::from_nanos(20_000_000),
    );
    assert!(!sched.events.is_empty());

    let split = run_campaign(45, true, false, Some(&sched), false);
    let control = run_campaign(45, false, false, Some(&sched), false);
    assert!(
        split.migrated,
        "split must ride out the gray impairment matrix"
    );
    for sid in 1..N_SHARDS {
        split.probes[sid].assert_identical_to(&control.probes[sid], "gray-migration-bystander");
        assert_eq!(
            split.bystander_regions[sid - 1],
            control.bystander_regions[sid - 1],
            "shard {sid}: member regions perturbed under impairment"
        );
        assert_eq!(split.probes[sid].failed(), 0, "bystander saw failures");
    }
    assert_race_free(&split, "gray bystander campaign");
}

/// `Send` digest of a campaign for the threaded determinism property:
/// `(migrated, epoch, acked, per-shard latencies, flattened bytes)`.
type Digest = (bool, u64, Vec<bool>, Vec<Vec<(usize, u64)>>, Vec<u8>);

fn digest(run: &CampaignRun) -> Digest {
    let lat: Vec<Vec<(usize, u64)>> = run.probes.iter().map(|p| p.latencies()).collect();
    let mut bytes = Vec::new();
    for kv in &run.key_values {
        for m in kv {
            bytes.extend_from_slice(m);
        }
    }
    for sr in &run.bystander_regions {
        for m in sr {
            bytes.extend_from_slice(m);
        }
    }
    (run.migrated, run.epoch, run.acked.clone(), lat, bytes)
}

/// Invariant 3: the same seeds produce byte-identical campaign
/// artifacts at 1, 2 and 4 executor threads (each job builds its whole
/// world inside the closure — the executor's purity contract).
#[test]
fn same_seed_identical_snapshots_across_executor_threads() {
    const JOBS: usize = 3;
    let job = |idx: usize| digest(&run_campaign(300 + idx as u64, true, false, None, false));

    let t1 = ShardExecutor::new(1).run(JOBS, job);
    let t2 = ShardExecutor::new(2).run(JOBS, job);
    let t4 = ShardExecutor::new(4).run(JOBS, job);
    for idx in 0..JOBS {
        assert_eq!(t1[idx], t2[idx], "job {idx}: 2-thread run diverged");
        assert_eq!(t1[idx], t4[idx], "job {idx}: 4-thread run diverged");
    }
}

/// Invariant 4: the protocol walks its five stages in order and the
/// router flip is observable between drain and retirement.
#[test]
fn split_stage_transitions_fire_in_order() {
    let run = run_campaign(46, true, false, None, true);
    assert!(run.migrated);

    let stages: Vec<&str> = run
        .marks
        .iter()
        .filter(|m| m.starts_with("transition:migration:"))
        .map(|m| m.as_str())
        .collect();
    assert_eq!(
        stages,
        vec![
            "transition:migration:idle->planned",
            "transition:migration:planned->streaming",
            "transition:migration:streaming->draining",
            "transition:migration:draining->cutover",
            "transition:migration:cutover->retired",
        ],
        "stage transitions out of order: {stages:?}"
    );
    assert!(
        run.marks.iter().any(|m| m == "router:flip:epoch1"),
        "router flip mark missing"
    );
    let flip = run.marks.iter().position(|m| m == "router:flip:epoch1");
    let cutover = run
        .marks
        .iter()
        .position(|m| m == "transition:migration:draining->cutover");
    let retired = run
        .marks
        .iter()
        .position(|m| m == "transition:migration:cutover->retired");
    assert!(
        cutover < flip && flip < retired,
        "flip must land inside the cutover stage"
    );
}

// ---------------------------------------------------------------------
// Overlapping reconfigurations: a split or merge racing a live cutover.
// ---------------------------------------------------------------------

/// Overlap traffic: a write every 10µs over 12 keys from 3ms, nine per
/// key, so the stream ends at 4.07ms — after the first reconfiguration
/// starts at 4ms and the second up to 50µs later, while both still run.
const OV_KEYS: usize = 12;
const OV_OPS: usize = 9 * OV_KEYS;
const OV_START: u64 = 3_000_000;
const OV_PERIOD: u64 = 10_000;
const OV_FIRST: u64 = 4_000_000;
const OV_OFFSETS: [u64; 3] = [0, 20_000, 50_000];
/// The merge victim: the last of the three base shards.
const VICTIM: usize = N_SHARDS - 1;

/// Which topology change races the live cutover of shard 0.
#[derive(Debug, Clone, Copy)]
enum Race {
    /// Split shard 0 (the cutover rebuilds the donor).
    Split,
    /// Merge the last shard into shard 0 (the cutover rebuilds the
    /// survivor).
    Merge,
}

/// Run one overlap and return what went wrong (empty when the run
/// converged): a reconfiguration that never completed, a failed op, or
/// a member of a key's final owner chain not holding its last write.
fn run_overlap(seed: u64, race: Race, cutover_first: bool, offset: u64) -> Vec<String> {
    let (mut w, mut eng) = ClusterBuilder::new(N_HOSTS)
        .arena_size(4 << 20)
        .seed(seed)
        .build();
    let router = build_router(&mut w, &mut eng);
    for j in 0..OV_OPS {
        let i = j % OV_KEYS;
        let router = router.clone();
        let at = SimTime::from_nanos(OV_START + j as u64 * OV_PERIOD);
        eng.schedule_at(at, move |w: &mut World, eng| {
            let done = Box::new(|_: &mut World, _: &mut Engine<World>, _| {});
            router.gwrite_keyed(
                w,
                eng,
                &key_bytes(i),
                slot_off(i),
                &record(i, j),
                true,
                done,
            );
        });
    }

    let final_ring = match race {
        Race::Split => split_ring(),
        Race::Merge => base_ring().merge_shard(VICTIM, PARENT),
    };
    let moving: Vec<(u64, u64)> = (0..OV_KEYS)
        .filter(|&i| base_ring().shard_of(&key_bytes(i)) == VICTIM)
        .map(|i| (slot_off(i), REC_BYTES as u64))
        .collect();
    assert!(
        !moving.is_empty(),
        "no overlap key lives on the merge victim"
    );
    let topo_done = Rc::new(RefCell::new(false));
    let cut_done = Rc::new(RefCell::new(false));
    let topo = {
        let (router, flag) = (router.clone(), topo_done.clone());
        move |w: &mut World, eng: &mut Engine<World>| {
            let done =
                Box::new(move |_: &mut World, _: &mut Engine<World>| *flag.borrow_mut() = true);
            match race {
                Race::Split => split_live(&router, PARENT, dest_group(), mig_spec(), w, eng, done),
                Race::Merge => merge_live(&router, PARENT, moving, w, eng, done),
            }
        }
    };
    let cut = {
        let (retry, flag) = (router.client(PARENT), cut_done.clone());
        let cfg = chain_config(&place().groups[PARENT]);
        move |w: &mut World, eng: &mut Engine<World>| {
            let done =
                Box::new(move |_: &mut World, _: &mut Engine<World>, _| *flag.borrow_mut() = true);
            live_cutover(&retry, cfg, w, eng, done);
        }
    };
    let (first, second) = (
        SimTime::from_nanos(OV_FIRST),
        SimTime::from_nanos(OV_FIRST + offset),
    );
    if cutover_first {
        eng.schedule_at(first, cut);
        eng.schedule_at(second, topo);
    } else {
        eng.schedule_at(first, topo);
        eng.schedule_at(second, cut);
    }
    eng.run_until(&mut w, SimTime::from_nanos(T_END));

    let mut bad = Vec::new();
    if !*topo_done.borrow() {
        bad.push(format!("{race:?} never completed"));
    }
    if !*cut_done.borrow() {
        bad.push("cutover never completed".to_string());
    }
    if !router.failures().is_empty() {
        bad.push(format!("{} ops failed", router.failures().len()));
    }
    for i in 0..OV_KEYS {
        let last = last_write(i, OV_KEYS, OV_OPS);
        let owner = router.client(final_ring.shard_of(&key_bytes(i))).backend();
        for m in 0..owner.group_size() {
            let addr = owner.member_addr(m, slot_off(i));
            let got = member_snapshot(&w, owner.member_host(m), addr, REC_BYTES);
            if got != record(i, last) {
                let held = String::from_utf8_lossy(&got[..12]);
                bad.push(format!("key {i} member {m}: {held:?}, want v{last:04}"));
            }
        }
    }
    bad
}

/// Run every seed, offset and order of one race; fail listing each
/// divergent run.
fn assert_overlaps_converge(race: Race) {
    let mut divergent = Vec::new();
    for seed in 1..=6 {
        for offset in OV_OFFSETS {
            for cutover_first in [false, true] {
                let bad = run_overlap(seed, race, cutover_first, offset);
                if !bad.is_empty() {
                    divergent.push(format!(
                        "seed {seed} +{}us cutover_first={cutover_first}: {bad:?}",
                        offset / 1_000
                    ));
                }
            }
        }
    }
    assert!(
        divergent.is_empty(),
        "{race:?} x cutover diverged in {} runs:\n{}",
        divergent.len(),
        divergent.join("\n")
    );
}

/// A split and a live cutover of the donor, started 0-50µs apart in
/// either order, both complete and leave every key's last write on
/// every member of its final owner chain.
#[test]
fn split_overlapping_donor_cutover_converges() {
    assert_overlaps_converge(Race::Split);
}

/// The same for a merge and a live cutover of the survivor.
#[test]
fn merge_overlapping_survivor_cutover_converges() {
    assert_overlaps_converge(Race::Merge);
}

// ---------------------------------------------------------------------
// Model battery: interleaved issue/advance/crash sequences.
// ---------------------------------------------------------------------

/// One step of a generated migration history.
#[derive(Debug, Clone)]
enum Step {
    /// Client issues a write to key `k`.
    Issue(u64),
    /// The migration advances one stage.
    Advance,
    /// `actor` crashes (first crash wins; later ones are no-ops since
    /// the model is already Retired).
    Crash(usize),
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => (0u64..16).prop_map(Step::Issue),
        3 => Just(Step::Advance),
        1 => (0usize..MigrationActor::ALL.len()).prop_map(Step::Crash),
    ]
}

/// Every third key is in the moving range.
fn moving(k: u64) -> bool {
    k.is_multiple_of(3)
}

fn run_model(steps: &[Step]) -> MigrationModel {
    let mut m = MigrationModel::new();
    for k in 0..16 {
        m.seed(k);
    }
    for s in steps {
        match *s {
            Step::Issue(k) => {
                m.issue(k, moving(k));
            }
            Step::Advance => {
                if m.stage() != MigrationStage::Retired {
                    m.advance(moving);
                }
            }
            Step::Crash(a) => {
                if m.stage() != MigrationStage::Retired {
                    m.crash(MigrationActor::ALL[a]);
                }
            }
        }
    }
    // Drive any unfinished migration to completion.
    while m.stage() != MigrationStage::Retired {
        m.advance(moving);
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Invariant 5: whatever the interleaving of issued ops, stage
    /// advances and crashes (of source head, dest head or router), the
    /// final owner of every key holds each issued op exactly once — no
    /// op lost, none double-applied.
    #[test]
    fn model_interleavings_lose_nothing_apply_nothing_twice(
        steps in pvec(step_strategy(), 1..48)
    ) {
        let m = run_model(&steps);
        prop_assert!(m.check(moving).is_ok(), "{:?}", m.check(moving).err());
    }
}

/// A deterministic long interleaving as a fast CI path (no proptest
/// runner): issue-heavy traffic with a crash landing mid-drain.
#[test]
fn model_fixed_crash_mid_drain_keeps_history_exact() {
    let mut steps: Vec<Step> = (0..24).map(|k| Step::Issue(k % 16)).collect();
    steps.push(Step::Advance); // planned -> streaming
    steps.extend((0..8).map(Step::Issue));
    steps.push(Step::Advance); // streaming -> draining (window opens)
    steps.extend((0..8).map(Step::Issue)); // moving keys park
    steps.push(Step::Crash(0)); // source head dies pre-commit
    steps.extend((0..8).map(Step::Issue));
    let m = run_model(&steps);
    assert!(m.aborted(), "crash before cutover must abort to source");
    m.check(moving).expect("history exact after abort");
}
