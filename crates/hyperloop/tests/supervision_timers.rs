//! Settled supervised ops leave nothing in the event queue: the attempt
//! deadline each issue arms is cancelled when its op settles, so shortly
//! after the last op of a burst is acknowledged the queue holds only
//! what an idle group keeps there (its replenishers' timers).

use hl_cluster::{ClusterBuilder, World};
use hl_fabric::HostId;
use hl_sim::{Engine, SimDuration, SimTime};
use hyperloop::{replica, GroupBuilder, GroupConfig, HyperLoopClient, OnOutcome, RetryClient};
use std::cell::Cell;
use std::rc::Rc;

const OPS: u32 = 1_000;
const PIPELINE: u32 = 8;
const REC: u64 = 64;

/// Issue the next write of the closed loop, if any are left.
fn issue_next(
    rc: &RetryClient,
    issued: &Rc<Cell<u32>>,
    acked: &Rc<Cell<u32>>,
    w: &mut World,
    eng: &mut Engine<World>,
) {
    let i = issued.get();
    if i == OPS {
        return;
    }
    issued.set(i + 1);
    let (next, issued, acked) = (rc.clone(), issued.clone(), acked.clone());
    let done: OnOutcome = Box::new(move |w, eng, outcome| {
        assert!(outcome.is_ok(), "write {i} failed: {outcome:?}");
        acked.set(acked.get() + 1);
        issue_next(&next, &issued, &acked, w, eng);
    });
    let data = [(i % 251) as u8; REC as usize];
    rc.gwrite(w, eng, (i as u64 % 64) * REC, &data, false, done);
}

#[test]
fn settled_ops_leave_only_idle_timers_queued() {
    let (mut w, mut eng) = ClusterBuilder::new(3).seed(11).build();
    let group = GroupBuilder::new(GroupConfig {
        client: HostId(0),
        replicas: vec![HostId(1), HostId(2)],
        ..Default::default()
    })
    .build(&mut w);
    replica::start_replenishers(&group, &mut w, &mut eng);
    let rc = RetryClient::new(HyperLoopClient::new(group, &mut w));

    // The idle baseline: what a group with no traffic keeps queued.
    eng.run_until(&mut w, SimTime::from_nanos(1_000_000));
    let idle = eng.pending();

    let (issued, acked) = (Rc::new(Cell::new(0)), Rc::new(Cell::new(0)));
    for _ in 0..PIPELINE {
        issue_next(&rc, &issued, &acked, &mut w, &mut eng);
    }
    let acked_probe = acked.clone();
    let drained = eng.run_while(&mut w, move |_| acked_probe.get() < OPS);
    assert!(
        drained,
        "the event queue ran dry before every write settled"
    );
    assert_eq!(rc.outstanding(), 0);
    assert_eq!(rc.stats().acked, OPS as u64);
    // Let the last op's trailing transport ACKs land: 100 µs is far
    // inside the 2 ms attempt deadline a settled op used to leave
    // behind.
    let settled_at = eng.now();
    eng.run_until(&mut w, settled_at + SimDuration::from_micros(100));
    assert_eq!(
        eng.pending(),
        idle,
        "settled ops left {} events queued beyond the idle baseline",
        eng.pending() as i64 - idle as i64
    );
}
