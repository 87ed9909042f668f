//! One measured round: its result record, the counters read from the
//! layers' public getters, and the JSON line the runner parses.

use crate::stats::{quantile_ns, TooFewSamples};
use hl_cluster::World;
use hl_fabric::HostId;
use hl_sim::{Engine, Histogram};
use std::collections::BTreeMap;

/// What a round records besides the untraced host-time metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Tracing and telemetry off: the end-to-end host-time round.
    Plain,
    /// Benchmark spans recorded around every layer call.
    Traced,
    /// `World::enable_telemetry` on, for the sim-time attribution.
    Telemetry,
}

impl Mode {
    /// Parse the `--mode` argument.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "plain" => Some(Mode::Plain),
            "traced" => Some(Mode::Traced),
            "telemetry" => Some(Mode::Telemetry),
            _ => None,
        }
    }

    /// The `--mode` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Plain => "plain",
            Mode::Traced => "traced",
            Mode::Telemetry => "telemetry",
        }
    }
}

/// Everything one round reports. Groups split what the runner may
/// average (`host`, `layers`) from what must repeat bit for bit across
/// every round of a seed (`sim`, `counts`, `attr`).
#[derive(Debug, Default)]
pub struct Round {
    /// Correctness-gate failures; empty when the round is correct.
    pub errors: Vec<String>,
    /// User ops attempted (YCSB ops or routed gWRITEs, warmup excluded).
    pub attempted: u64,
    /// Ops refused for good, errored, past deadline or never completed,
    /// plus one per failed correctness check.
    pub failed: u64,
    /// Host-time values: wall-clock ops/s and set-up, and peak memory.
    pub host: BTreeMap<&'static str, f64>,
    /// Sim-time end-to-end metrics (deterministic per seed).
    pub sim: BTreeMap<&'static str, f64>,
    /// Per-layer counts read from public getters (deterministic).
    pub counts: BTreeMap<&'static str, f64>,
    /// Per-layer host-time metrics derived from spans (traced rounds).
    pub layers: BTreeMap<String, f64>,
    /// Sim-time attribution per write op (telemetry rounds).
    pub attr: BTreeMap<String, f64>,
    /// Deterministic report text whose digest the runner compares.
    pub digest_text: String,
    /// Spans of a traced round, written out by `--trace-out`.
    pub spans: Vec<crate::trace::Span>,
}

impl Round {
    /// Record a failed correctness check.
    pub fn fail(&mut self, msg: String) {
        self.errors.push(msg);
        self.failed += 1;
    }

    /// Record a sim-time percentile in µs, failing the round if the
    /// samples could not carry it.
    pub fn sim_tail(&mut self, name: &'static str, ns: Result<u64, TooFewSamples>) {
        match ns {
            Ok(ns) => {
                self.sim.insert(name, ns as f64 / 1e3);
            }
            Err(e) => self.fail(format!("{name}: {e}")),
        }
    }

    /// Record the p99 of the merged scheduling-latency histogram, or 0
    /// when too few wakeups happened to carry it.
    pub fn sched_p99(&mut self, h: &Histogram) {
        let v = quantile_ns(h, 0.99).map_or(0.0, |ns| ns as f64 / 1e3);
        self.counts.insert("hl-cpu.sched_latency_p99_us", v);
    }

    /// Render as one JSON line.
    pub fn to_json(&self, workload: &str, seed: u64, mode: Mode) -> String {
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        format!(
            concat!(
                "{{\"workload\":{},\"seed\":{},\"mode\":{},\"correct\":{},\"errors\":[{}],",
                "\"attempted\":{},\"failed\":{},\"digest\":{},\"host\":{},\"sim\":{},",
                "\"counts\":{},\"layers\":{},\"attr\":{}}}"
            ),
            json_str(workload),
            seed,
            json_str(mode.name()),
            self.errors.is_empty(),
            errors.join(","),
            self.attempted,
            self.failed,
            json_str(&format!("{:016x}", fnv1a(self.digest_text.as_bytes()))),
            json_obj(self.host.iter().map(|(k, v)| (*k, *v))),
            json_obj(self.sim.iter().map(|(k, v)| (*k, *v))),
            json_obj(self.counts.iter().map(|(k, v)| (*k, *v))),
            json_obj(self.layers.iter().map(|(k, v)| (k.as_str(), *v))),
            json_obj(self.attr.iter().map(|(k, v)| (k.as_str(), *v))),
        )
    }
}

/// 64-bit FNV-1a, for the determinism digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_obj<'a>(fields: impl Iterator<Item = (&'a str, f64)>) -> String {
    let body: Vec<String> = fields
        .map(|(k, v)| {
            // JSON has no NaN or infinity; the runner treats null as a
            // broken metric.
            let v = if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_string()
            };
            format!("{}:{v}", json_str(k))
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Peak resident memory of this process in MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Layer counters of one world, read from public getters. Additive, so
/// shard worlds sum into one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snap {
    pub events: u64,
    pub wqes: u64,
    pub wait_fires: u64,
    pub doorbells: u64,
    pub tx_packets: u64,
    pub retransmits: u64,
    pub error_cqes: u64,
    pub msgs: u64,
    pub bytes: u64,
    pub drops: u64,
    pub flushes: u64,
    pub ctx_switches: u64,
    /// CPU busy ns on the replica hosts, all processes.
    pub replica_busy_ns: u64,
    /// CPU busy ns of `stress-` tenants on the replica hosts.
    pub tenant_busy_ns: u64,
}

impl Snap {
    /// Read `w`'s counters; `replicas` are the hosts whose CPU counts
    /// as replica CPU.
    pub fn take(w: &World, eng: &Engine<World>, replicas: &[HostId]) -> Snap {
        let mut s = Snap {
            events: eng.events_executed(),
            drops: w.fabric.drops() + w.dropped_packets,
            ..Snap::default()
        };
        for (i, h) in w.hosts.iter().enumerate() {
            let c = h.nic.counters();
            s.wqes += c.wqes_executed;
            s.wait_fires += c.wait_fires;
            s.doorbells += c.doorbells;
            s.tx_packets += c.tx_packets;
            s.retransmits += c.retransmits;
            s.error_cqes += c.error_cqes;
            s.msgs += w.fabric.msgs_tx(HostId(i));
            s.bytes += w.fabric.bytes_tx(HostId(i));
            s.flushes += h.mem.flush_count();
            s.ctx_switches += h.cpu.ctx_switches();
        }
        for h in replicas {
            let cpu = &w.hosts[h.0].cpu;
            s.replica_busy_ns += cpu.busy_ns_by_prefix("");
            s.tenant_busy_ns += cpu.busy_ns_by_prefix("stress-");
        }
        s
    }

    /// Counter advance from `before` to `self`.
    pub fn since(&self, before: &Snap) -> Snap {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        Snap {
            events: d(self.events, before.events),
            wqes: d(self.wqes, before.wqes),
            wait_fires: d(self.wait_fires, before.wait_fires),
            doorbells: d(self.doorbells, before.doorbells),
            tx_packets: d(self.tx_packets, before.tx_packets),
            retransmits: d(self.retransmits, before.retransmits),
            error_cqes: d(self.error_cqes, before.error_cqes),
            msgs: d(self.msgs, before.msgs),
            bytes: d(self.bytes, before.bytes),
            drops: d(self.drops, before.drops),
            flushes: d(self.flushes, before.flushes),
            ctx_switches: d(self.ctx_switches, before.ctx_switches),
            replica_busy_ns: d(self.replica_busy_ns, before.replica_busy_ns),
            tenant_busy_ns: d(self.tenant_busy_ns, before.tenant_busy_ns),
        }
    }

    /// Sum of two snapshots.
    pub fn plus(&self, o: &Snap) -> Snap {
        Snap {
            events: self.events + o.events,
            wqes: self.wqes + o.wqes,
            wait_fires: self.wait_fires + o.wait_fires,
            doorbells: self.doorbells + o.doorbells,
            tx_packets: self.tx_packets + o.tx_packets,
            retransmits: self.retransmits + o.retransmits,
            error_cqes: self.error_cqes + o.error_cqes,
            msgs: self.msgs + o.msgs,
            bytes: self.bytes + o.bytes,
            drops: self.drops + o.drops,
            flushes: self.flushes + o.flushes,
            ctx_switches: self.ctx_switches + o.ctx_switches,
            replica_busy_ns: self.replica_busy_ns + o.replica_busy_ns,
            tenant_busy_ns: self.tenant_busy_ns + o.tenant_busy_ns,
        }
    }

    /// Record the per-op layer counts of the measured phase. `payload`
    /// is the user bytes the ops asked to replicate.
    pub fn record(&self, r: &mut Round, ops: u64, payload: u64) {
        let per = |x: u64| x as f64 / ops.max(1) as f64;
        let c = &mut r.counts;
        c.insert("hl-sim.events_per_op", per(self.events));
        c.insert("hl-rnic.wqes_per_op", per(self.wqes));
        c.insert("hl-rnic.wait_fires_per_op", per(self.wait_fires));
        c.insert("hl-rnic.doorbells_per_op", per(self.doorbells));
        c.insert("hl-rnic.tx_packets_per_op", per(self.tx_packets));
        c.insert("hl-rnic.retransmits_per_op", per(self.retransmits));
        c.insert("hl-rnic.error_cqes", self.error_cqes as f64);
        c.insert("hl-fabric.msgs_per_op", per(self.msgs));
        c.insert("hl-fabric.bytes_per_op", per(self.bytes));
        c.insert(
            "hl-fabric.goodput_ratio",
            payload as f64 / self.bytes.max(1) as f64,
        );
        c.insert("hl-fabric.drops", self.drops as f64);
        c.insert("hl-nvm.flushes_per_op", per(self.flushes));
        c.insert("hl-cpu.ctx_switches_per_op", per(self.ctx_switches));
        c.insert(
            "hl-cpu.tenant_busy_share",
            self.tenant_busy_ns as f64 / self.replica_busy_ns.max(1) as f64,
        );
        r.sim.insert(
            "replica_cpu_us_per_op",
            per(self.replica_busy_ns - self.tenant_busy_ns) / 1e3,
        );
        if self.error_cqes > 0 {
            r.fail(format!("{} error CQEs", self.error_cqes));
        }
    }
}

/// Reset every host's CPU accounting so busy time, context switches
/// and scheduling latency cover the measured phase only. Accounting
/// only: the scheduler never reads these fields back.
pub fn reset_cpu_accounting(w: &mut World, eng: &Engine<World>) {
    let now = eng.now();
    for h in &mut w.hosts {
        h.cpu.reset_metrics(now);
    }
}

/// Merge every host's scheduling-latency histogram.
pub fn sched_latency(w: &World) -> Histogram {
    let mut h = Histogram::new();
    for host in &w.hosts {
        h.merge(host.cpu.sched_latency());
    }
    h
}

/// Run `eng` until `done` holds, sampling `Engine::pending` every
/// `SAMPLE_EVERY` events. Stops on exact event boundaries, so the
/// simulation is the same event for event as one `run_while`.
pub fn run_until<F: FnMut(&World) -> bool>(
    w: &mut World,
    eng: &mut Engine<World>,
    pending_peak: &mut u64,
    mut done: F,
) -> bool {
    const SAMPLE_EVERY: u32 = 1024;
    let _g = crate::trace::span("hl-sim.run", 0);
    loop {
        let mut n = 0u32;
        let finished = eng.run_while(w, |w| {
            n += 1;
            n <= SAMPLE_EVERY && !done(w)
        });
        *pending_peak = (*pending_peak).max(eng.pending() as u64);
        if !finished {
            return false; // queue drained
        }
        if n <= SAMPLE_EVERY {
            return true;
        }
    }
}
