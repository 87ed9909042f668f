//! The chaos campaign: seeded fault schedules against the replicated
//! chain, and a runner that fans seeds across OS threads without
//! giving up determinism.
//!
//! Each simulated world is strictly single-threaded — that is the
//! repo-wide determinism contract — so the unit of parallelism is a
//! whole campaign: [`ShardExecutor`] gives every seed its own cluster,
//! runs it to quiescence on a worker thread, and merges the plain-string
//! artifacts back in seed order, which makes the parallel output
//! byte-identical to the sequential one whatever the thread count or
//! scheduling.

use hl_cluster::chaos::FaultSchedule;
use hl_cluster::exec::ShardExecutor;
use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::{Engine, SimDuration, SimTime};
use hyperloop::api::GroupClient;
use hyperloop::recovery::{self, HeartbeatConfig};
use hyperloop::{
    replica, DeadlinePolicy, GroupBuilder, GroupConfig, GroupRef, HyperLoopClient, RetryClient,
};
use std::cell::RefCell;
use std::rc::Rc;

const N_RECORDS: usize = 24;
const REC_BYTES: usize = 64;
const STANDBY: HostId = HostId(3);

/// Everything a chaos campaign produces, reduced to deterministic
/// strings so it can cross a thread boundary (the live `World` holds
/// `Rc`s and cannot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignArtifact {
    /// The seed that generated the fault schedule and all RNG streams.
    pub seed: u64,
    /// One-line-per-fact invariant report (acked/failed counts,
    /// reconvergence, settlement).
    pub invariants: String,
    /// Chrome trace-event JSON export of the whole campaign.
    pub chrome_trace: String,
    /// Windowed time-series JSON snapshot (counters, sketches, marks).
    /// Participates in the parallel == sequential byte-identity check
    /// like every other field.
    pub timeseries: String,
}

fn record(k: usize) -> Vec<u8> {
    let mut v = format!("chaos-record-{k:04}-").into_bytes();
    while v.len() < REC_BYTES {
        v.push(b'a' + (k % 26) as u8);
    }
    v
}

/// Rebuild `group`'s chain without `failed`, drawing a replacement from
/// the standby pool if one is left, and re-arm detection on the rebuilt
/// chain. The per-group latch makes each chain generation rebuild at
/// most once, however many detection paths fire.
#[allow(clippy::too_many_arguments)]
fn trigger_rebuild(
    latch: &Rc<RefCell<bool>>,
    group: &GroupRef,
    retry: &RetryClient,
    members: &[HostId],
    standbys: &Rc<RefCell<Vec<HostId>>>,
    failed: HostId,
    w: &mut World,
    eng: &mut Engine<World>,
) {
    if std::mem::replace(&mut *latch.borrow_mut(), true) {
        return;
    }
    group.borrow_mut().paused = true;
    let survivors: Vec<HostId> = members.iter().copied().filter(|&h| h != failed).collect();
    let new_member = standbys.borrow_mut().pop();
    if survivors.is_empty() && new_member.is_none() {
        return;
    }
    let mut final_members = survivors.clone();
    if let Some(nm) = new_member {
        final_members.push(nm);
    }
    let retry = retry.clone();
    let standbys = standbys.clone();
    recovery::rebuild_chain(
        w,
        eng,
        group,
        survivors,
        new_member,
        64,
        Box::new(move |w, eng, new_client| {
            retry.swap(new_client.clone());
            arm_recovery(new_client.group(), &retry, final_members, standbys, w, eng);
        }),
    );
}

/// Arm both detection paths (heartbeat misses and transport-error CQEs)
/// and funnel them into one rebuild per chain generation.
fn arm_recovery(
    group: &GroupRef,
    retry: &RetryClient,
    members: Vec<HostId>,
    standbys: Rc<RefCell<Vec<HostId>>>,
    w: &mut World,
    eng: &mut Engine<World>,
) {
    let latch = Rc::new(RefCell::new(false));
    {
        let latch = latch.clone();
        let g = group.clone();
        let retry = retry.clone();
        let members = members.clone();
        let standbys = standbys.clone();
        recovery::start_heartbeats(
            group,
            HeartbeatConfig {
                period: SimDuration::from_millis(2),
                miss_threshold: 3,
            },
            Box::new(move |w, eng, idx| {
                let failed = members[idx];
                trigger_rebuild(&latch, &g, &retry, &members, &standbys, failed, w, eng);
            }),
            w,
            eng,
        );
    }
    {
        let g = group.clone();
        let retry = retry.clone();
        recovery::watch_transport_errors(
            group,
            w,
            Box::new(move |w, eng, _cqe| {
                // Transport errors surface on the hop to the head.
                let failed = members[0];
                trigger_rebuild(&latch, &g, &retry, &members, &standbys, failed, w, eng);
            }),
        );
    }
}

/// Run one chaos campaign to quiescence and reduce it to a
/// [`CampaignArtifact`].
///
/// A 4-host cluster (client `h0`, chain `h1`-`h2`, standby `h3`) takes
/// one durable record every 2ms through a deadline-supervised
/// [`RetryClient`] while the seed's [`FaultSchedule`] replays. Two
/// detection paths (heartbeat misses and transport-error CQEs) funnel
/// into one rebuild per chain generation. `tests/chaos.rs` runs this
/// campaign over 22 seeds. Panics if any invariant is violated — a
/// bench sweep must not quietly average over broken campaigns:
///
/// 1. every supervised op settled, with an ACK or a typed error;
/// 2. every ACKed record is byte-identical on the client copy and
///    every member of the final chain;
/// 3. an append issued after the fault window completes;
/// 4. the race detector ([`World::race_report`], feature
///    `check-ownership`) saw nothing.
pub fn run_campaign(seed: u64) -> CampaignArtifact {
    let (mut w, mut eng) = ClusterBuilder::new(4)
        .arena_size(2 << 20)
        .seed(seed)
        .build();
    w.enable_timeseries(SimDuration::from_millis(1));

    let group = GroupBuilder::new(GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2)],
        rep_bytes: 256 << 10,
        ring_slots: 64,
        // The retry budget (8 x 3ms) outlasts any transient fault
        // window the schedule can generate, so only a permanent head
        // failure exhausts it and escalates to a transport-error
        // rebuild.
        transport_timeout: Some((SimDuration::from_millis(3), 7)),
        ..Default::default()
    })
    .build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let client = HyperLoopClient::new(group.clone(), &mut w);
    let retry = RetryClient::with_policy(
        client,
        DeadlinePolicy {
            deadline: SimDuration::from_millis(2),
            max_attempts: 20,
            backoff: SimDuration::from_micros(500),
            backoff_cap: SimDuration::from_millis(4),
        },
    );

    arm_recovery(
        &group,
        &retry,
        vec![HostId(1), HostId(2)],
        Rc::new(RefCell::new(vec![STANDBY])),
        &mut w,
        &mut eng,
    );

    // Workload: one durable record every 2ms, spanning the fault window.
    let acked = Rc::new(RefCell::new(vec![false; N_RECORDS]));
    let failed_ops = Rc::new(RefCell::new(0u32));
    for k in 0..N_RECORDS {
        let retry = retry.clone();
        let acked = acked.clone();
        let failed_ops = failed_ops.clone();
        let at = SimTime::from_nanos(1_000_000 + k as u64 * 2_000_000);
        eng.schedule_at(at, move |w: &mut World, eng| {
            retry.gwrite(
                w,
                eng,
                (k * REC_BYTES) as u64,
                &record(k),
                true,
                Box::new(move |_w, _e, r| match r {
                    Ok(_) => acked.borrow_mut()[k] = true,
                    Err(_) => *failed_ops.borrow_mut() += 1,
                }),
            );
        });
    }

    let sched = FaultSchedule::generate(
        seed,
        &[HostId(1), HostId(2)],
        HostId(0),
        SimTime::from_nanos(2_000_000),
        SimTime::from_nanos(50_000_000),
    );
    sched.apply(&mut eng);

    // Quiesce: all transients heal by ~63ms, supervision settles every
    // op well before 200ms.
    eng.run_until(&mut w, SimTime::from_nanos(200_000_000));

    // Reconvergence: a fresh append on the (possibly rebuilt) chain.
    let final_ok = Rc::new(RefCell::new(None::<bool>));
    {
        let final_ok = final_ok.clone();
        retry.gwrite(
            &mut w,
            &mut eng,
            (N_RECORDS * REC_BYTES) as u64,
            &record(N_RECORDS),
            true,
            Box::new(move |_w, _e, r| *final_ok.borrow_mut() = Some(r.is_ok())),
        );
    }
    eng.run_until(&mut w, SimTime::from_nanos(400_000_000));

    let now = eng.now();
    w.collect_metrics(now);
    let chrome_trace = w.telemetry.chrome_trace();
    let timeseries = w.telemetry.timeseries_json();
    let acked = acked.borrow().clone();
    let failed_ops = *failed_ops.borrow();
    let final_ok = *final_ok.borrow();

    // Enforce the tier-1 invariants before reporting anything.
    assert_eq!(
        retry.outstanding(),
        0,
        "seed {seed}: supervised ops left unsettled"
    );
    let n_acked = acked.iter().filter(|&&a| a).count();
    assert_eq!(
        n_acked + failed_ops as usize,
        N_RECORDS,
        "seed {seed}: op settled neither ACK nor typed error"
    );
    assert_eq!(
        final_ok,
        Some(true),
        "seed {seed}: append after the fault window did not complete"
    );
    let c = retry.client();
    let mut intact = 0usize;
    for (k, was_acked) in acked.iter().enumerate() {
        if !was_acked {
            continue;
        }
        let want = record(k);
        for m in 0..c.group_size() {
            let host = c.member_host(m);
            let addr = c.member_addr(m, (k * REC_BYTES) as u64);
            let got = w.hosts[host.0].mem.read_vec(addr, REC_BYTES).unwrap();
            assert_eq!(
                got, want,
                "seed {seed}: acked record {k} diverges on member {m} ({host})"
            );
        }
        intact += 1;
    }
    let races = w.race_report();
    assert!(
        races.is_empty(),
        "seed {seed}: race detector flagged:\n{}",
        races.join("\n")
    );

    let invariants = format!(
        "seed {seed}\nacked {n_acked}/{N_RECORDS}\nfailed_ops {failed_ops}\n\
         final_ok true\noutstanding 0\nacked_records_intact {intact}\n\
         events_executed {}\nend_ns {}\n",
        eng.events_executed(),
        now.as_nanos()
    );
    CampaignArtifact {
        seed,
        invariants,
        chrome_trace,
        timeseries,
    }
}

/// Run the chaos campaigns for `seeds` one after the other on this
/// thread.
pub fn run_campaigns_sequential(seeds: &[u64]) -> Vec<CampaignArtifact> {
    seeds.iter().map(|&s| run_campaign(s)).collect()
}

/// Run the chaos campaigns for `seeds` fanned across `threads` OS
/// threads by a [`ShardExecutor`]. Output is byte-identical to
/// [`run_campaigns_sequential`] — same artifacts, same order.
pub fn run_campaigns_parallel(seeds: &[u64], threads: usize) -> Vec<CampaignArtifact> {
    ShardExecutor::new(threads).run(seeds.len(), |i| run_campaign(seeds[i]))
}
