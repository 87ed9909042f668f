//! Live shard split/merge under traffic.
//!
//! Online elasticity for a sharded deployment: stand up (or retire) a
//! replication chain and re-home a key range **while writes keep
//! flowing**. Both are plans for the [`crate::reconfig`] executor, the
//! same one that runs a live cutover; what is particular to them is the
//! fence — the router's dual window, which parks new moving-key
//! operations while the source chain keeps serving every other key —
//! and the commit, an atomic router flip. Each stage boundary is
//! stamped as a telemetry transition
//! (`transition:migration:<from>-><to>`) so timelines and SLO rules can
//! see exactly where a latency excursion sits.
//!
//! * [`split_live`] — stand up a fresh chain (placed by
//!   `ShardPlan::place`) as shard N, stream the donor's region to every
//!   new member, then flip with `HashRing::split_shard` so only
//!   `parent → N` keys move.
//! * [`merge_live`] — stream the retiring (last) shard's moving slot
//!   ranges into a survivor's chain, flip with `HashRing::merge_shard`,
//!   and tear the victim chain down.

use crate::deadline::{DeadlinePolicy, RetryClient};
use crate::group::{GroupBuilder, GroupConfig};
use crate::reconfig::{lease, members, run, Plan, Stamp, Step};
use crate::router::ShardRouter;
use crate::HyperLoopClient;
use hl_cluster::migrate::MigrationStage;
use hl_cluster::shard::{HashRing, ShardGroup};
use hl_cluster::World;
use hl_fabric::HostId;
use hl_sim::Engine;
use std::cell::Cell;

/// Knobs for one live split.
#[derive(Debug, Clone, Default)]
pub struct MigrationSpec {
    /// Deadline policy for the destination shard's supervised client.
    pub policy: DeadlinePolicy,
}

/// Completion callback: the migration reached `Retired` and the router
/// serves the new topology.
pub type OnMigrated = Box<dyn FnOnce(&mut World, &mut Engine<World>)>;

/// Stage telemetry of a migration: each boundary is a
/// `transition:migration:<from>-><to>`, and entering `Planned` also
/// drops the `label` mark.
fn stages(label: String, host: HostId) -> Stamp {
    let from = Cell::new("idle");
    Box::new(move |w, now, stage| {
        let to = stage.name();
        w.telemetry
            .transition(now, "migration", from.replace(to), to, host.0);
        if stage == MigrationStage::Planned {
            w.telemetry.mark(now, label.clone(), host.0);
        }
    })
}

/// The fence of a migration: park new operations on keys whose owner
/// differs between the serving ring and `next`. The source chain is
/// not paused — it still owns every key that does not move.
fn window(router: &ShardRouter, next: &HashRing) -> Step {
    let (router, next) = (router.clone(), next.clone());
    Box::new(move |_, _| router.open_window(next))
}

/// Split shard `parent` online: build a fresh chain over `dest`
/// (disjoint hosts placed by `ShardPlan::place`) with the donor chain's
/// config, stream the donor head's whole region to every new member
/// while the donor keeps serving, park new moving-key traffic for a
/// bounded drain, copy the dirty delta, then flip the router to
/// `ring.split_shard(parent)` — parked ops replay onto the new shard.
/// Only keys moving `parent → new` ever change owner, so every other
/// shard's timing is untouched. Runs under the donor's lease.
pub fn split_live(
    router: &ShardRouter,
    parent: usize,
    dest: ShardGroup,
    spec: MigrationSpec,
    w: &mut World,
    eng: &mut Engine<World>,
    done: OnMigrated,
) {
    assert!(parent < router.n_shards(), "split of unknown shard");
    let donor = router.client(parent);
    let router = router.clone();
    lease(
        vec![donor.clone()],
        w,
        eng,
        Box::new(move |w, eng, lease| {
            let backend = donor.backend();
            let (host, region) = backend.head();
            let next = router.ring().split_shard(parent);
            let group = GroupBuilder::new(GroupConfig {
                client: dest.client,
                replicas: dest.replicas,
                ..backend.chain_config()
            })
            .build(w);
            let client = HyperLoopClient::new(group.clone(), w);
            let plan = Plan {
                source: donor,
                ranges: vec![(0, region.len)],
                targets: members(&client),
                fence: window(&router, &next),
                commit: Box::new(move |w, eng| {
                    crate::replica::start_replenishers(&group, w, eng);
                    let mut shards: Vec<RetryClient> =
                        (0..router.n_shards()).map(|s| router.client(s)).collect();
                    shards.push(RetryClient::with_policy(client, spec.policy));
                    router.install(w, eng, next, shards);
                }),
                done,
                stamp: stages(format!("migrate:split:shard{parent}"), host),
            };
            run(plan, lease, w, eng);
        }),
    );
}

/// Merge the **last** shard into survivor `into`, online: stream the
/// victim head's `move_ranges` (the slot ranges holding its keys —
/// range extraction is the store layer's job) into every member of the
/// survivor's chain, park new victim-key traffic, copy the dirty delta
/// (clipped to the move ranges so survivor-owned slots are never
/// clobbered), flip the router to `ring.merge_shard(victim, into)` and
/// pause the victim chain. Runs under the victim's lease and then the
/// survivor's, holding both until the flip.
pub fn merge_live(
    router: &ShardRouter,
    into: usize,
    move_ranges: Vec<(u64, u64)>,
    w: &mut World,
    eng: &mut Engine<World>,
    done: OnMigrated,
) {
    let victim = router.n_shards() - 1;
    assert!(into < victim, "merge target must be a surviving shard");
    assert!(
        !move_ranges.is_empty(),
        "merge needs the moving slot ranges"
    );
    let (source, survivor) = (router.client(victim), router.client(into));
    let router = router.clone();
    lease(
        vec![source.clone(), survivor.clone()],
        w,
        eng,
        Box::new(move |w, eng, lease| {
            assert_eq!(
                victim,
                router.n_shards() - 1,
                "a split landed while the merge waited: its victim is no longer the last shard"
            );
            let backend = source.backend();
            let (host, region) = backend.head();
            for &(off, len) in &move_ranges {
                assert!(off + len <= region.len, "move range outside victim region");
            }
            let next = router.ring().merge_shard(victim, into);
            let plan = Plan {
                source,
                ranges: move_ranges,
                targets: members(&survivor.backend()),
                fence: window(&router, &next),
                commit: Box::new(move |w, eng| {
                    let shards = (0..victim).map(|s| router.client(s)).collect();
                    router.install(w, eng, next, shards);
                    backend.pause();
                }),
                done,
                stamp: stages(format!("migrate:merge:shard{victim}"), host),
            };
            run(plan, lease, w, eng);
        }),
    );
}
