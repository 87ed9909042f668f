//! The one reconfiguration executor: live cutover, crash-rejoin, split
//! and merge are all plans it runs.
//!
//! HyperLoop leaves chain reconfiguration to the storage system's own
//! control plane. Every live reconfiguration here has the same shape:
//! copy a region of the source chain's head to a new set of members
//! while the source keeps serving, fence new traffic, wait out the
//! operations in flight, copy what they dirtied, and commit. A [`Plan`]
//! names what differs — the ranges, the targets, the fence and the
//! commit — and [`run`] walks the five [`MigrationStage`]s:
//!
//! 1. **Planned** — arm the source's dirty-range log before any byte is
//!    copied, so every concurrent write is either caught by the bulk
//!    stream or replayed by the delta;
//! 2. **Streaming** — copy every range to every target while the source
//!    keeps serving;
//! 3. **Draining** — apply the fence (pause the old backend, or open the
//!    router window) and wait, bounded, for in-flight source ops;
//! 4. **CutOver** — take the log and copy, for each plan range, the
//!    bounding range of the dirty entries clipped to it;
//! 5. **Retired** — commit, then hand the lease on.
//!
//! Correctness rests on one source-of-truth argument: both backends
//! apply every mutation to the head's local region at issue time, so
//! once the fence stops new source traffic, the head region plus the
//! dirty log hold every issued write.
//!
//! Reconfigurations of one chain must not overlap — the log has one
//! reader, and a cutover moves the head region a concurrent stream
//! would still read from — so each runs under the chain's
//! [`RetryClient`] lease ([`lease`]). A request that finds the lease
//! held queues FIFO and builds its plan only when granted, so it reads
//! the topology the previous reconfiguration left behind.

use crate::api::GroupClient;
use crate::deadline::RetryClient;
use crate::recovery::catch_up;
use hl_cluster::migrate::MigrationStage;
use hl_cluster::World;
use hl_fabric::HostId;
use hl_nvm::Region;
use hl_rnic::Access;
use hl_sim::{Engine, SimDuration, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Chunk size of every streaming catch-up copy.
pub(crate) const CHUNK: u32 = 64 * 1024;

/// How long the drain polls for outstanding source ops before going
/// ahead anyway: under loss, in-flight ops may never reach zero within
/// any bound; they re-issue after the commit and their target ranges
/// are in the dirty log.
const DRAIN_POLLS: u32 = 20;
const DRAIN_POLL_PERIOD: SimDuration = SimDuration::from_micros(100);

/// One step of a reconfiguration.
pub(crate) type Step = Box<dyn FnOnce(&mut World, &mut Engine<World>)>;

/// Telemetry for entering each stage (marks or stage transitions).
pub(crate) type Stamp = Box<dyn Fn(&mut World, SimTime, MigrationStage)>;

/// What one reconfiguration does, built once its lease is granted.
pub(crate) struct Plan {
    /// The chain being copied from: its head region is the source, its
    /// dirty log is armed, and its in-flight ops are drained.
    pub source: RetryClient,
    /// `(offset, len)` ranges of the head region to move.
    pub ranges: Vec<(u64, u64)>,
    /// Every member that receives the ranges, as `(host, region base)`.
    pub targets: Vec<(HostId, u64)>,
    /// Stops new source traffic for the moving ranges.
    pub fence: Step,
    /// Makes the new topology serve.
    pub commit: Step,
    /// The caller's completion, run after the commit.
    pub done: Step,
    /// Stage telemetry.
    pub stamp: Stamp,
}

/// A request's continuation, run once it holds every lease it asked for.
pub(crate) type OnLeased = Box<dyn FnOnce(&mut World, &mut Engine<World>, Lease)>;

/// The reconfiguration leases one request holds, released together.
pub(crate) struct Lease(Vec<RetryClient>);

impl Lease {
    /// Hand every lease on, in the order they were taken.
    pub(crate) fn release(self, w: &mut World, eng: &mut Engine<World>) {
        for c in self.0 {
            c.release(w, eng);
        }
    }
}

/// Take the leases of `clients` one after another, then run `granted`.
/// Callers that take more than one order them the same way (a merge
/// takes the last shard's before the survivor's), so no two requests
/// can each hold a lease the other waits for.
pub(crate) fn lease(
    clients: Vec<RetryClient>,
    w: &mut World,
    eng: &mut Engine<World>,
    granted: OnLeased,
) {
    take_next(clients, Vec::new(), w, eng, granted);
}

fn take_next(
    mut pending: Vec<RetryClient>,
    mut held: Vec<RetryClient>,
    w: &mut World,
    eng: &mut Engine<World>,
    granted: OnLeased,
) {
    if pending.is_empty() {
        granted(w, eng, Lease(held));
        return;
    }
    let next = pending.remove(0);
    next.clone().acquire(
        w,
        eng,
        Box::new(move |w, eng| {
            held.push(next);
            take_next(pending, held, w, eng, granted);
        }),
    );
}

/// Every member of a chain as `(host, region base)`, head first.
pub(crate) fn members(c: &dyn GroupClient) -> Vec<(HostId, u64)> {
    (0..c.group_size())
        .map(|m| (c.member_host(m), c.member_addr(m, 0)))
        .collect()
}

/// A head region registered for remote reads, and the members it is
/// copied to.
pub(crate) struct Stream {
    host: HostId,
    rkey: u32,
    addr: u64,
    targets: Vec<(HostId, u64)>,
}

impl Stream {
    /// Register `region` on `host` for the targets' catch-up READs.
    pub(crate) fn open(
        w: &mut World,
        host: HostId,
        region: &Region,
        targets: Vec<(HostId, u64)>,
    ) -> Stream {
        let rkey = w
            .host(host)
            .nic
            .register_mr(region.addr, region.len, Access::REMOTE_READ)
            .rkey;
        Stream {
            host,
            rkey,
            addr: region.addr,
            targets,
        }
    }

    /// Copy each `(offset, len)` range to the same offset on every
    /// target — a local memcpy for a target on the source host, chunked
    /// catch-up READs otherwise — and run `then` once the last copy
    /// lands.
    pub(crate) fn copy(
        &self,
        w: &mut World,
        eng: &mut Engine<World>,
        ranges: &[(u64, u64)],
        then: Step,
    ) {
        // One count per copy in flight, plus one held until every copy
        // is issued, so `then` runs once even if a copy lands at once.
        let left = Rc::new(Cell::new(1usize));
        let then = Rc::new(RefCell::new(Some(then)));
        let arrive = {
            let left = left.clone();
            move |w: &mut World, eng: &mut Engine<World>| {
                left.set(left.get() - 1);
                if left.get() == 0 {
                    let then = then.borrow_mut().take().expect("join fires once");
                    then(w, eng);
                }
            }
        };
        for &(off, len) in ranges {
            for &(host, base) in &self.targets {
                if host == self.host {
                    let mem = &mut w.host(host).mem;
                    let bytes = mem
                        .read_vec(self.addr + off, len as usize)
                        .expect("source range readable");
                    mem.write(base + off, &bytes)
                        .expect("target range writable");
                    continue;
                }
                left.set(left.get() + 1);
                catch_up(
                    w,
                    eng,
                    self.host,
                    self.rkey,
                    self.addr + off,
                    host,
                    base + off,
                    len,
                    CHUNK,
                    Box::new(arrive.clone()),
                );
            }
        }
        arrive(w, eng);
    }
}

/// Run `plan` under `lease`, releasing it after the commit.
pub(crate) fn run(plan: Plan, lease: Lease, w: &mut World, eng: &mut Engine<World>) {
    let Plan {
        source,
        ranges,
        targets,
        fence,
        commit,
        done,
        stamp,
    } = plan;
    let (host, region) = source.backend().head();
    source.begin_dirty_log();
    stamp(w, eng.now(), MigrationStage::Planned);
    let stream = Rc::new(Stream::open(w, host, &region, targets));
    stamp(w, eng.now(), MigrationStage::Streaming);
    let bulk = ranges.clone();
    stream.clone().copy(
        w,
        eng,
        &bulk,
        Box::new(move |w, eng| {
            stamp(w, eng.now(), MigrationStage::Draining);
            fence(w, eng);
            drain_then(
                source.clone(),
                DRAIN_POLLS,
                eng,
                Box::new(move |w, eng| {
                    stamp(w, eng.now(), MigrationStage::CutOver);
                    let deltas = clip(&source.take_dirty_log(), &ranges);
                    if w.telemetry.enabled() && !deltas.is_empty() {
                        let bytes = deltas.iter().map(|&(_, len)| len).sum();
                        w.telemetry.metrics.counter_add(
                            "reconfig_delta_bytes",
                            "layer=reconfig",
                            bytes,
                        );
                    }
                    stream.copy(
                        w,
                        eng,
                        &deltas,
                        Box::new(move |w, eng| {
                            commit(w, eng);
                            stamp(w, eng.now(), MigrationStage::Retired);
                            done(w, eng);
                            lease.release(w, eng);
                        }),
                    );
                }),
            );
        }),
    );
}

/// For each plan range, the bounding range of the dirty entries clipped
/// to it (none if nothing in it was dirtied). For a whole-region plan
/// this is the bounding range of everything dirtied since the log was
/// armed; for a merge it never reaches the survivor's own slots.
fn clip(dirty: &[(u64, u32)], ranges: &[(u64, u64)]) -> Vec<(u64, u64)> {
    ranges
        .iter()
        .filter_map(|&(off, len)| {
            dirty
                .iter()
                .map(|&(o, l)| (o.max(off), (o + l as u64).min(off + len)))
                .filter(|&(lo, hi)| lo < hi)
                .reduce(|(a, b), (lo, hi)| (a.min(lo), b.max(hi)))
                .map(|(lo, hi)| (lo, hi - lo))
        })
        .collect()
}

/// Poll until no supervised ops are outstanding on `source`, or the poll
/// budget is spent, then run `then`.
fn drain_then(source: RetryClient, polls_left: u32, eng: &mut Engine<World>, then: Step) {
    eng.schedule(DRAIN_POLL_PERIOD, move |w: &mut World, eng| {
        if source.outstanding() == 0 || polls_left == 0 {
            then(w, eng);
        } else {
            drain_then(source, polls_left - 1, eng, then);
        }
    });
}
