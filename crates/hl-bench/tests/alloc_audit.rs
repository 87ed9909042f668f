//! Allocation audit of the per-op datapath, enforced with the counting
//! allocator behind `--features alloc-audit`:
//!
//! ```text
//! cargo test -p hl-bench --features alloc-audit --test alloc_audit
//! ```
//!
//! Without the feature the file compiles to nothing, so the default
//! test run pays no global-allocator overhead.
#![cfg(feature = "alloc-audit")]

use hl_bench::alloc_audit;
use hl_bench::micro::{run_micro, Backend, MicroCfg, MicroOp};
use hl_cpu::{CpuOutput, HostCpu, ProcId};
use hl_sim::config::CpuProfile;
use hl_sim::{Engine, EventCtx, RngFactory, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

struct Lanes {
    acc: u64,
    remaining: u64,
}

struct LaneEvent {
    lane: u32,
}

impl EventCtx for Lanes {
    type Event = LaneEvent;
    fn run_event(&mut self, eng: &mut Engine<Self>, ev: LaneEvent) {
        self.acc = self.acc.wrapping_add(ev.lane as u64);
        if self.remaining > 0 {
            self.remaining -= 1;
            eng.schedule_event(
                SimDuration::from_nanos(100 + (ev.lane as u64 % 7) * 10),
                LaneEvent { lane: ev.lane },
            );
        }
    }
}

/// The typed-event engine loop is amortized allocation-free in steady
/// state: after warmup has sized the arena, the slab and the calendar
/// wheel, the only remaining allocations are occasional wheel-bucket
/// capacity doublings as lane phases drift across bucket boundaries —
/// a few per thousand events, amortizing toward zero. A reintroduced
/// per-event allocation (one box or Vec per pop/push cycle) is 100×
/// over the bound and trips immediately.
#[test]
fn engine_steady_state_is_allocation_free() {
    let mut w = Lanes {
        acc: 0,
        remaining: 250_000 + 600_000,
    };
    let mut eng: Engine<Lanes> = Engine::new();
    for lane in 0..1024u32 {
        eng.schedule_event(
            SimDuration::from_nanos(100 + (lane as u64 % 7) * 10),
            LaneEvent { lane },
        );
    }
    // Warmup: let every Vec inside the engine reach its steady size.
    // This pattern advances ~0.13 ns of simulated time per event, so a
    // full calendar-wheel revolution (~65 µs, after which every ring
    // bucket has been filled once and holds its steady capacity) takes
    // ~520k events; 600k covers it with slack.
    for _ in 0..600_000 {
        assert!(eng.step(&mut w));
    }
    let (n, _) = alloc_audit::count_allocs(|| {
        for _ in 0..250_000 {
            assert!(eng.step(&mut w));
        }
    });
    assert!(
        n <= 2_500,
        "typed-event steady state allocated {n} times in 250k events \
         (bound is ~1 per 100 events; a per-event regression is ~100× this)"
    );
}

/// The full gWRITE datapath (NIC, fabric, NVM, telemetry drain, retry
/// supervision) stays within a small per-op allocation budget. This is
/// a regression tripwire: re-introducing a per-event box or a per-drain
/// `Vec` adds ~15 allocations per op (one per simulated event) and
/// blows the bound immediately.
#[test]
fn gwrite_datapath_allocations_are_bounded_per_op() {
    let cfg = MicroCfg {
        backend: Backend::HyperLoop,
        op: MicroOp::GWrite {
            size: 256,
            flush: false,
        },
        ops: 4_000,
        pipeline: 16,
        ..Default::default()
    };
    // First run warms allocator pools and sizes engine arenas inside
    // the process; the second run is the measured one. Worlds are
    // rebuilt per run, so this bounds *per-op* churn, not zero.
    let _ = run_micro(&cfg);
    let (n, _) = alloc_audit::count_allocs(|| {
        let _ = run_micro(&cfg);
    });
    // Measured ~18.4/op once NIC and CPU outputs go through the world's
    // reused buffers and a payload costs one allocation (~58/op
    // before). A reintroduced per-event box or per-call output `Vec`
    // costs ~15/op and blows straight through 32.
    let per_op = n as f64 / cfg.ops as f64;
    println!("gWRITE datapath: {per_op:.1} allocations per op");
    assert!(
        per_op < 32.0,
        "gWRITE datapath allocated {per_op:.1} times per op ({n} total)"
    );
}

/// The CPU scheduler's steady state allocates nothing: 200 processes
/// (16 hogs and 184 workers taking repeated submissions) on 16 cores,
/// driven by their own timers. Once the run queues, the output buffer
/// and every process's work queue have reached their steady capacity,
/// a submit/timer loop touches no allocator at all.
#[test]
fn cpu_scheduler_steady_state_is_allocation_free() {
    let profile = CpuProfile {
        cores: 16,
        ..CpuProfile::default()
    };
    let mut cpu = HostCpu::new(profile);
    cpu.set_rng(RngFactory::new(7).stream("cpu"));
    let mut out: Vec<CpuOutput> = Vec::with_capacity(64);
    let mut timers: BinaryHeap<Reverse<(SimTime, u64, usize, u64)>> =
        BinaryHeap::with_capacity(1024);
    let mut seq = 0u64;
    let mut arm = |out: &mut Vec<CpuOutput>, timers: &mut BinaryHeap<_>| {
        for o in out.drain(..) {
            if let CpuOutput::Timer { core, gen, at } = o {
                timers.push(Reverse((at, seq, core, gen)));
                seq += 1;
            }
        }
    };
    for i in 0..16 {
        cpu.spawn_hog(SimTime::ZERO, &format!("stress-{i}"), &mut out);
        arm(&mut out, &mut timers);
    }
    let workers: Vec<ProcId> = (0..184)
        .map(|i| cpu.spawn(&format!("worker-{i}"), (i % 8 == 0).then_some(i % 16)))
        .collect();
    let mut step =
        |n: u64, cpu: &mut HostCpu, out: &mut Vec<CpuOutput>, timers: &mut BinaryHeap<_>| {
            for k in 0..n {
                let Reverse((now, _, core, gen)) = timers.pop().expect("hogs keep timers armed");
                cpu.on_timer(now, core, gen, out);
                // Every timer wakes one worker with 20-220 us of work.
                let pid = workers[(k as usize * 7) % workers.len()];
                cpu.submit(now, pid, 20_000 + (k % 11) * 20_000, k, out);
                arm(out, timers);
            }
        };
    step(200_000, &mut cpu, &mut out, &mut timers);
    let (n, _) = alloc_audit::count_allocs(|| step(100_000, &mut cpu, &mut out, &mut timers));
    assert!(cpu.ctx_switches() > 100_000, "the loop must keep switching");
    assert_eq!(
        n, 0,
        "scheduler steady state allocated {n} times in 100k events"
    );
}
