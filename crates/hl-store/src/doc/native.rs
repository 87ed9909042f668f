//! Native doclite replication — the conventional MongoDB-style path the
//! paper measures in Figures 2 and 12.
//!
//! One *primary* process and N *secondary* processes per replica set,
//! all CPU-driven: the client's query is parsed by the primary, written
//! to its journal (with a persist), applied to its database slots, and
//! shipped as an oplog message to every secondary, which applies and
//! acknowledges before the primary replies. Every hop rides the kernel
//! network stack (modelled as per-message CPU cost) and the multi-tenant
//! scheduler — this is where the paper's context-switch-driven tails
//! come from.

use super::document::Document;
use hl_cluster::{Ctx, ProcAddr, ProcEvent, Process, World};
use hl_fabric::HostId;
use hl_nvm::Region;
use hl_sim::{Engine, SimDuration};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// CPU cost knobs for the native path.
#[derive(Debug, Clone)]
pub struct NativeDocCosts {
    /// Kernel TCP receive + socket wakeup per message.
    pub tcp_rx: SimDuration,
    /// Query parse / validation on the primary.
    pub parse: SimDuration,
    /// Journal write + persist.
    pub journal: SimDuration,
    /// Apply one document to the slot area.
    pub apply: SimDuration,
    /// Building + sending one oplog or reply message.
    pub send: SimDuration,
}

impl Default for NativeDocCosts {
    fn default() -> Self {
        NativeDocCosts {
            tcp_rx: SimDuration::from_micros(3),
            parse: SimDuration::from_micros(4),
            journal: SimDuration::from_micros(2),
            apply: SimDuration::from_micros(2),
            send: SimDuration::from_micros(2),
        }
    }
}

/// Client request kinds (YCSB surface).
#[derive(Debug, Clone)]
pub enum DocOp {
    /// Insert or update a whole document.
    Upsert(Document),
    /// Point read.
    Read {
        /// Document id.
        id: u64,
    },
    /// Range scan of consecutive ids.
    Scan {
        /// First id.
        id: u64,
        /// Number of documents.
        n: usize,
    },
}

/// Client → primary request.
pub struct ClientOp {
    /// Correlation id (chosen by the driver).
    pub op_id: u64,
    /// Where the reply goes.
    pub reply_to: ProcAddr,
    /// The operation.
    pub op: DocOp,
}

/// Primary → client reply.
pub struct ClientReply {
    /// Echoed correlation id.
    pub op_id: u64,
    /// Read/scan payload.
    pub docs: Vec<Document>,
}

/// Primary → secondary oplog shipment.
pub struct Oplog {
    /// Correlation id.
    pub op_id: u64,
    /// The document to apply.
    pub doc: Document,
    /// Ack target (the primary).
    pub reply_to: ProcAddr,
}

/// Secondary → primary acknowledgement.
pub struct OplogAck {
    /// Correlation id.
    pub op_id: u64,
}

/// Fixed wire sizing (headers + encoded doc).
fn op_wire_size(op: &DocOp) -> usize {
    64 + match op {
        DocOp::Upsert(d) => d.encoded_len(),
        _ => 0,
    }
}

struct PendingWrite {
    reply_to: ProcAddr,
    acks_needed: usize,
}

/// Storage area of one native replica (journal + slots in its arena).
pub struct NativeArea {
    journal: Region,
    slots: Region,
    slot_size: u64,
    n_slots: u64,
    journal_at: u64,
}

impl NativeArea {
    /// Allocate journal + slot regions on `host`.
    pub fn alloc(w: &mut World, host: HostId, tag: &str, slot_size: u64, n_slots: u64) -> Self {
        let journal = w
            .host(host)
            .layout
            .alloc(&format!("{tag}.journal"), 64 << 10, 64);
        let slots = w
            .host(host)
            .layout
            .alloc(&format!("{tag}.slots"), slot_size * n_slots, 64);
        NativeArea {
            journal,
            slots,
            slot_size,
            n_slots,
            journal_at: 0,
        }
    }

    fn slot_addr(&self, id: u64) -> u64 {
        self.slots.at((id % self.n_slots) * self.slot_size)
    }

    /// Journal a blob (ring) + persist; then apply to the slot + persist.
    fn journal_and_apply(&mut self, ctx: &mut Ctx<'_>, doc: &Document) {
        let host = ctx.me.host;
        let blob = doc.encode_slot(self.slot_size as usize);
        let jlen = blob.len().min(512); // journal entry (truncated image)
        let jat = self.journal.at(self.journal_at % (self.journal.len - 1024));
        self.journal_at += jlen as u64;
        let mem = &mut ctx.world.hosts[host.0].mem;
        mem.write(jat, &blob[..jlen]).unwrap();
        mem.flush(jat, jlen).unwrap();
        let sat = self.slot_addr(doc.id);
        mem.write(sat, &blob).unwrap();
        mem.flush(sat, blob.len()).unwrap();
    }

    fn read_doc(&self, ctx: &mut Ctx<'_>, id: u64) -> Option<Document> {
        let host = ctx.me.host;
        let bytes = ctx.world.hosts[host.0]
            .mem
            .read_vec(self.slot_addr(id), self.slot_size as usize)
            .ok()?;
        Document::decode_slot(&bytes)
    }
}

/// One primary worker thread of a native replica set (mongod is
/// thread-per-connection; workers share the storage area).
pub struct NativePrimary {
    area: Rc<RefCell<NativeArea>>,
    secondaries: Vec<ProcAddr>,
    costs: NativeDocCosts,
    pending: BTreeMap<u64, PendingWrite>,
}

impl NativePrimary {
    /// Create with (shared) storage and this worker's secondary peers.
    pub fn new(
        area: Rc<RefCell<NativeArea>>,
        secondaries: Vec<ProcAddr>,
        costs: NativeDocCosts,
    ) -> Self {
        NativePrimary {
            area,
            secondaries,
            costs,
            pending: BTreeMap::new(),
        }
    }
}

impl Process for NativePrimary {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
        let ProcEvent::Message(m) = ev else { return };
        if let Some(req) = m.downcast_ref::<ClientOp>() {
            match &req.op {
                DocOp::Upsert(doc) => {
                    // Journal + apply locally (costs were charged at
                    // delivery: tcp_rx + parse + journal + apply).
                    self.area.borrow_mut().journal_and_apply(ctx, doc);
                    if self.secondaries.is_empty() {
                        ctx.send_msg(
                            req.reply_to,
                            Box::new(ClientReply {
                                op_id: req.op_id,
                                docs: vec![],
                            }),
                            96,
                            self.costs.tcp_rx,
                        );
                        return;
                    }
                    self.pending.insert(
                        req.op_id,
                        PendingWrite {
                            reply_to: req.reply_to,
                            acks_needed: self.secondaries.len(),
                        },
                    );
                    // Ship the oplog; each send costs CPU.
                    let me = ctx.me;
                    for &sec in &self.secondaries {
                        ctx.submit_work(self.costs.send, u64::MAX - 1);
                        ctx.send_msg(
                            sec,
                            Box::new(Oplog {
                                op_id: req.op_id,
                                doc: doc.clone(),
                                reply_to: me,
                            }),
                            op_wire_size(&req.op),
                            self.costs.tcp_rx + self.costs.journal + self.costs.apply,
                        );
                    }
                }
                DocOp::Read { id } => {
                    let docs = self.area.borrow().read_doc(ctx, *id).into_iter().collect();
                    ctx.send_msg(
                        req.reply_to,
                        Box::new(ClientReply {
                            op_id: req.op_id,
                            docs,
                        }),
                        64 + self.area.borrow().slot_size as usize,
                        self.costs.tcp_rx,
                    );
                }
                DocOp::Scan { id, n } => {
                    let area = self.area.borrow();
                    let docs: Vec<Document> = (0..*n as u64)
                        .filter_map(|k| area.read_doc(ctx, id + k))
                        .collect();
                    drop(area);
                    // Scans cost extra CPU proportional to width.
                    ctx.submit_work(SimDuration::from_nanos(300 * *n as u64), u64::MAX - 1);
                    ctx.send_msg(
                        req.reply_to,
                        Box::new(ClientReply {
                            op_id: req.op_id,
                            docs,
                        }),
                        64 + *n * self.area.borrow().slot_size as usize,
                        self.costs.tcp_rx,
                    );
                }
            }
        } else if let Some(ack) = m.downcast_ref::<OplogAck>() {
            if let Some(p) = self.pending.get_mut(&ack.op_id) {
                p.acks_needed -= 1;
                if p.acks_needed == 0 {
                    let p = self.pending.remove(&ack.op_id).unwrap();
                    ctx.send_msg(
                        p.reply_to,
                        Box::new(ClientReply {
                            op_id: ack.op_id,
                            docs: vec![],
                        }),
                        96,
                        self.costs.tcp_rx,
                    );
                }
            }
        }
    }
}

/// A secondary (oplog-applier) worker: applies shipped entries and acks.
pub struct NativeSecondary {
    area: Rc<RefCell<NativeArea>>,
    costs: NativeDocCosts,
}

impl NativeSecondary {
    /// Create with (shared) storage.
    pub fn new(area: Rc<RefCell<NativeArea>>, costs: NativeDocCosts) -> Self {
        NativeSecondary { area, costs }
    }
}

impl Process for NativeSecondary {
    fn on_event(&mut self, ev: ProcEvent, ctx: &mut Ctx<'_>) {
        let ProcEvent::Message(m) = ev else { return };
        if let Some(op) = m.downcast_ref::<Oplog>() {
            self.area.borrow_mut().journal_and_apply(ctx, &op.doc);
            ctx.send_msg(
                op.reply_to,
                Box::new(OplogAck { op_id: op.op_id }),
                96,
                self.costs.tcp_rx,
            );
        }
    }
}

/// Handle to one spawned native replica set.
pub struct NativeSet {
    /// Primary workers (clients pick one per connection). `primary` is
    /// worker 0 for single-connection callers.
    pub primaries: Vec<ProcAddr>,
    /// The first primary worker (convenience).
    pub primary: ProcAddr,
    /// Secondary workers, `[host][worker]`.
    pub secondaries: Vec<Vec<ProcAddr>>,
    /// Slot regions per member (primary first) for untimed preloading.
    pub areas: Vec<(HostId, Region)>,
    /// CPU charged to the primary per incoming client write
    /// (tcp + parse + journal + apply) — drivers pass this as the
    /// message `recv_cost`.
    pub write_recv_cost: SimDuration,
    /// CPU charged per incoming read.
    pub read_recv_cost: SimDuration,
}

/// Spawn a native replica set: primary workers on `hosts[0]`, secondary
/// workers on the rest. `workers` models mongod's thread-per-connection
/// service model: each worker is an independently schedulable process,
/// all sharing the member's storage area.
#[allow(clippy::too_many_arguments)]
pub fn spawn_native_set_workers(
    w: &mut World,
    eng: &mut Engine<World>,
    tag: &str,
    hosts: &[HostId],
    slot_size: u64,
    n_slots: u64,
    workers: usize,
    costs: NativeDocCosts,
) -> NativeSet {
    assert!(!hosts.is_empty());
    assert!(workers >= 1);
    let mut areas = Vec::new();
    let mut secondaries: Vec<Vec<ProcAddr>> = Vec::new();
    for (i, &h) in hosts[1..].iter().enumerate() {
        let area = Rc::new(RefCell::new(NativeArea::alloc(
            w,
            h,
            &format!("{tag}.sec{i}"),
            slot_size,
            n_slots,
        )));
        areas.push((h, area.borrow().slots.clone()));
        let procs: Vec<ProcAddr> = (0..workers)
            .map(|k| {
                w.start_process(
                    h,
                    &format!("{tag}-sec{i}-w{k}"),
                    None,
                    Box::new(NativeSecondary::new(area.clone(), costs.clone())),
                    SimDuration::from_micros(2),
                    eng,
                )
            })
            .collect();
        secondaries.push(procs);
    }
    let area = Rc::new(RefCell::new(NativeArea::alloc(
        w,
        hosts[0],
        &format!("{tag}.pri"),
        slot_size,
        n_slots,
    )));
    areas.insert(0, (hosts[0], area.borrow().slots.clone()));
    let primaries: Vec<ProcAddr> = (0..workers)
        .map(|k| {
            // Worker k ships oplogs to worker k of every secondary.
            let peers: Vec<ProcAddr> = secondaries.iter().map(|host| host[k]).collect();
            w.start_process(
                hosts[0],
                &format!("{tag}-pri-w{k}"),
                None,
                Box::new(NativePrimary::new(area.clone(), peers, costs.clone())),
                SimDuration::from_micros(2),
                eng,
            )
        })
        .collect();
    NativeSet {
        primary: primaries[0],
        primaries,
        secondaries,
        areas,
        write_recv_cost: costs.tcp_rx + costs.parse + costs.journal + costs.apply,
        read_recv_cost: costs.tcp_rx + costs.parse,
    }
}

/// Single-worker convenience wrapper (see [`spawn_native_set_workers`]).
pub fn spawn_native_set(
    w: &mut World,
    eng: &mut Engine<World>,
    tag: &str,
    hosts: &[HostId],
    slot_size: u64,
    n_slots: u64,
    costs: NativeDocCosts,
) -> NativeSet {
    spawn_native_set_workers(w, eng, tag, hosts, slot_size, n_slots, 1, costs)
}

/// Untimed bulk preload of documents into every member's slot area
/// (the YCSB load phase, which the paper excludes from measurement).
pub fn preload(w: &mut World, set: &NativeSet, slot_size: u64, n_slots: u64, docs: &[Document]) {
    for (host, region) in &set.areas {
        for d in docs {
            let blob = d.encode_slot(slot_size as usize);
            let addr = region.at((d.id % n_slots) * slot_size);
            w.hosts[host.0].mem.write(addr, &blob).unwrap();
        }
        w.hosts[host.0].mem.flush_all();
    }
}

/// Wire size of a client op (drivers use this when sending).
pub fn client_op_wire_size(op: &DocOp) -> usize {
    op_wire_size(op)
}
