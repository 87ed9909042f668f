//! Reconfiguration lease: reconfigurations of one chain run one at a
//! time, in request order, each planned against the topology its
//! predecessor left; a merge holds both of its chains until it commits;
//! a health-monitor degrade waits for a running split.

use hl_cluster::shard::{HashRing, ShardGroup};
use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::{Engine, SimDuration, SimTime};
use hyperloop::api::GroupClient;
use hyperloop::health::{live_cutover, HealthConfig, HealthMonitor, HealthState};
use hyperloop::{
    merge_live, replica, split_live, GroupBuilder, GroupConfig, HyperLoopClient, MigrationSpec,
    RetryClient, ShardRouter,
};
use std::cell::RefCell;
use std::rc::Rc;

const REP_BYTES: u64 = 16 << 10;
const REC: usize = 32;
const KEYS: usize = 8;
/// Writes in the stream: two per key.
const OPS: usize = 2 * KEYS;
/// Reconfigurations start here; the write stream runs from 1ms until
/// 1.3ms, while they are still running.
const T_RECONF: u64 = 1_100_000;
const T_END: u64 = 40_000_000;

/// Shard `s` is a one-replica chain on hosts `2s` (client) and `2s+1`.
fn config(s: usize) -> GroupConfig {
    GroupConfig {
        client: HostId(2 * s),
        replicas: vec![HostId(2 * s + 1)],
        rep_bytes: REP_BYTES,
        ring_slots: 64,
        ..Default::default()
    }
}

/// A world with telemetry on and a router over `n` shards; hosts
/// `2n` and `2n+1` are left free for a split's destination chain.
fn build(n: usize) -> (World, Engine<World>, ShardRouter) {
    let (mut w, mut eng) = ClusterBuilder::new(2 * n + 2)
        .arena_size(4 << 20)
        .seed(5)
        .build();
    w.enable_telemetry();
    let shards = (0..n)
        .map(|s| {
            let group = GroupBuilder::new(config(s)).build(&mut w);
            replica::start_replenishers(&group, &mut w, &mut eng);
            RetryClient::new(HyperLoopClient::new(group, &mut w))
        })
        .collect();
    (w, eng, ShardRouter::new(shards))
}

fn key(i: usize) -> [u8; 8] {
    (i as u64).to_le_bytes()
}

fn record(i: usize, j: usize) -> Vec<u8> {
    let mut v = format!("k{i:02}v{j:04}").into_bytes();
    v.resize(REC, b'.');
    v
}

/// Keyed writes every 20µs from 1ms to 1.3ms.
fn write_stream(router: &ShardRouter, eng: &mut Engine<World>) {
    for j in 0..OPS {
        let router = router.clone();
        let at = SimTime::from_nanos(1_000_000 + j as u64 * 20_000);
        eng.schedule_at(at, move |w: &mut World, eng| {
            let i = j % KEYS;
            let done = Box::new(|_: &mut World, _: &mut Engine<World>, _| {});
            router.gwrite_keyed(w, eng, &key(i), (i * REC) as u64, &record(i, j), true, done);
        });
    }
}

/// Every key holds its last write on every member of its owner under
/// `ring`.
fn assert_converged(w: &World, router: &ShardRouter, ring: &HashRing) {
    assert!(router.failures().is_empty(), "ops failed");
    for i in 0..KEYS {
        let owner = router.client(ring.shard_of(&key(i))).backend();
        for m in 0..owner.group_size() {
            let addr = owner.member_addr(m, (i * REC) as u64);
            let got = w.hosts[owner.member_host(m).0]
                .mem
                .read_vec(addr, REC)
                .expect("member region readable");
            assert_eq!(got, record(i, i + KEYS), "key {i} member {m}");
        }
    }
}

/// When the first mark named `name` was dropped.
fn mark_at(w: &World, name: &str) -> u64 {
    let m = w.telemetry.marks().iter().find(|m| m.name == name);
    m.unwrap_or_else(|| panic!("no {name} mark")).at.as_nanos()
}

fn dest() -> ShardGroup {
    ShardGroup {
        shard: 1,
        client: HostId(2),
        replicas: vec![HostId(3)],
    }
}

type Log = Rc<RefCell<Vec<&'static str>>>;

fn cutover_at(
    retry: &RetryClient,
    at: u64,
    label: &'static str,
    log: &Log,
    eng: &mut Engine<World>,
) {
    let (retry, log) = (retry.clone(), log.clone());
    eng.schedule_at(SimTime::from_nanos(at), move |w: &mut World, eng| {
        let done =
            Box::new(move |_: &mut World, _: &mut Engine<World>, _| log.borrow_mut().push(label));
        live_cutover(&retry, config(0), w, eng, done);
    });
}

fn split_at(router: &ShardRouter, at: u64, log: &Log, eng: &mut Engine<World>) {
    let (router, log) = (router.clone(), log.clone());
    eng.schedule_at(SimTime::from_nanos(at), move |w: &mut World, eng| {
        let done =
            Box::new(move |_: &mut World, _: &mut Engine<World>| log.borrow_mut().push("split"));
        split_live(&router, 0, dest(), MigrationSpec::default(), w, eng, done);
    });
}

/// Three cutovers requested at once run one after another, in request
/// order, and never interleave their stages.
#[test]
fn queued_requests_run_in_fifo_order() {
    let (mut w, mut eng, router) = build(1);
    write_stream(&router, &mut eng);
    let retry = router.client(0);
    let log: Log = Rc::default();
    for label in ["a", "b", "c"] {
        cutover_at(&retry, T_RECONF, label, &log, &mut eng);
    }
    let probe = retry.clone();
    let held = Rc::new(RefCell::new(false));
    let h = held.clone();
    eng.schedule_at(
        SimTime::from_nanos(T_RECONF + 1),
        move |_: &mut World, _| *h.borrow_mut() = probe.reconfiguring(),
    );
    eng.run_until(&mut w, SimTime::from_nanos(T_END));

    assert!(*held.borrow(), "the first cutover holds the lease");
    assert!(!retry.reconfiguring(), "the lease is free once all ran");
    assert_eq!(*log.borrow(), ["a", "b", "c"]);
    let stages: Vec<&str> = w
        .telemetry
        .marks()
        .iter()
        .filter(|m| m.name.starts_with("cutover:"))
        .map(|m| m.name.as_str())
        .collect();
    assert_eq!(
        stages,
        ["cutover:start", "cutover:pause", "cutover:swap"].repeat(3)
    );
    assert_converged(&w, &router, &router.ring());
}

/// A request builds its plan only when granted. A cutover queued behind
/// a split starts once the split retires and copies the donor head the
/// split left, writes made during the split included. A split queued
/// behind a cutover streams from the head the cutover moved the donor to.
#[test]
fn queued_request_plans_against_the_head_its_predecessor_left() {
    for cutover_first in [false, true] {
        let (mut w, mut eng, router) = build(1);
        write_stream(&router, &mut eng);
        let donor = router.client(0);
        let old_head = donor.backend().head().1.addr;
        let log: Log = Rc::default();
        if cutover_first {
            cutover_at(&donor, T_RECONF, "cutover", &log, &mut eng);
            split_at(&router, T_RECONF, &log, &mut eng);
        } else {
            split_at(&router, T_RECONF, &log, &mut eng);
            cutover_at(&donor, T_RECONF, "cutover", &log, &mut eng);
        }
        eng.run_until(&mut w, SimTime::from_nanos(T_END));

        let (start, swap) = (mark_at(&w, "cutover:start"), mark_at(&w, "cutover:swap"));
        let (planned, retired) = (
            mark_at(&w, "transition:migration:idle->planned"),
            mark_at(&w, "transition:migration:cutover->retired"),
        );
        if cutover_first {
            assert_eq!(*log.borrow(), ["cutover", "split"]);
            assert!(planned >= swap, "split planned before the cutover swapped");
        } else {
            assert_eq!(*log.borrow(), ["split", "cutover"]);
            assert!(start >= retired, "cutover started before the split retired");
        }
        assert_ne!(donor.backend().head().1.addr, old_head, "donor head moved");
        assert_converged(&w, &router, &HashRing::new(1).split_shard(0));
    }
}

/// A merge takes the victim's lease, then the survivor's, and holds
/// both until its commit has flipped the router.
#[test]
fn merge_holds_both_leases_until_it_commits() {
    let (mut w, mut eng, router) = build(2);
    write_stream(&router, &mut eng);
    let (survivor, victim) = (router.client(0), router.client(1));
    let moving: Vec<(u64, u64)> = (0..KEYS)
        .filter(|&i| router.ring().shard_of(&key(i)) == 1)
        .map(|i| ((i * REC) as u64, REC as u64))
        .collect();
    // `(epoch, victim held, survivor held)` every 10µs, and at commit.
    let samples = Rc::new(RefCell::new(Vec::new()));
    let at_commit = Rc::new(RefCell::new(None));
    {
        let (router, at_commit) = (router.clone(), at_commit.clone());
        let (v, s) = (victim.clone(), survivor.clone());
        eng.schedule_at(SimTime::from_nanos(T_RECONF), move |w: &mut World, eng| {
            let done = Box::new(move |_: &mut World, _: &mut Engine<World>| {
                *at_commit.borrow_mut() = Some((v.reconfiguring(), s.reconfiguring()))
            });
            merge_live(&router, 0, moving, w, eng, done);
        });
    }
    for k in 0..500u64 {
        let (router, samples) = (router.clone(), samples.clone());
        let (v, s) = (victim.clone(), survivor.clone());
        eng.schedule_at(
            SimTime::from_nanos(T_RECONF + 1 + k * 10_000),
            move |_: &mut World, _| {
                let sample = (router.epoch(), v.reconfiguring(), s.reconfiguring());
                samples.borrow_mut().push(sample);
            },
        );
    }
    eng.run_until(&mut w, SimTime::from_nanos(T_END));

    assert_eq!(
        *at_commit.borrow(),
        Some((true, true)),
        "leases held at commit"
    );
    let samples = samples.borrow();
    assert!(
        samples.iter().any(|&(e, _, _)| e == 0),
        "no sample mid-merge"
    );
    for &(epoch, v, s) in samples.iter() {
        assert_eq!((v, s), (epoch == 0, epoch == 0), "epoch {epoch}");
    }
    assert_converged(&w, &router, &router.ring());
}

/// A health-monitor degrade decided while a split runs on the same chain
/// waits for the split to retire before it pauses the chain.
#[test]
fn health_degrade_raised_during_a_split_waits_for_it() {
    let (mut w, mut eng, router) = build(1);
    write_stream(&router, &mut eng);
    let donor = router.client(0);
    let monitor = Rc::new(RefCell::new(None));
    {
        let (router, donor, monitor) = (router.clone(), donor.clone(), monitor.clone());
        eng.schedule_at(SimTime::from_nanos(T_RECONF), move |w: &mut World, eng| {
            split_live(
                &router,
                0,
                dest(),
                MigrationSpec::default(),
                w,
                eng,
                Box::new(|_: &mut World, _: &mut Engine<World>| {}),
            );
            // Every period scores sick, so the monitor degrades on its
            // first evaluation, 20µs into the split.
            let cfg = HealthConfig {
                period: SimDuration::from_micros(20),
                degrade_score: 0,
                degrade_after: 1,
                min_degraded_dwell: SimDuration::from_secs(1),
                ..Default::default()
            };
            let group = donor.client().group().clone();
            *monitor.borrow_mut() = Some(HealthMonitor::start(donor, group, cfg, w, eng));
        });
    }
    eng.run_until(&mut w, SimTime::from_nanos(T_END));

    let monitor = monitor.borrow_mut().take().expect("monitor started");
    monitor.stop();
    assert_eq!(monitor.state(), HealthState::Degraded);
    assert_eq!(monitor.degrades(), 1);
    let decided = mark_at(&w, "transition:backend:offloaded->degrading");
    let retired = mark_at(&w, "transition:migration:cutover->retired");
    let degraded = mark_at(&w, "recovery:degrade-naive");
    assert!(decided < retired, "the degrade was raised during the split");
    assert!(
        degraded >= retired,
        "the degrade ran before the split retired"
    );
    assert!(!donor.is_offloaded());
    assert_converged(&w, &router, &HashRing::new(1).split_shard(0));
}
