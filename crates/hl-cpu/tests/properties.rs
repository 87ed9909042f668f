//! Property-based tests of scheduler invariants.

use hl_cpu::{CpuOutput, HostCpu, ProcId};
use hl_sim::config::CpuProfile;
use hl_sim::{Engine, SimTime};
use proptest::prelude::*;

/// Drives a HostCpu under the engine, recording completions.
struct Sim {
    cpu: HostCpu,
    done: Vec<(SimTime, ProcId, u64)>,
}
hl_sim::inert_event_ctx!(Sim);

fn route(out: Vec<CpuOutput>, sim: &mut Sim, eng: &mut Engine<Sim>) {
    for o in out {
        match o {
            CpuOutput::Timer { core, gen, at } => {
                eng.schedule_at(at, move |sim: &mut Sim, eng| {
                    let mut out = Vec::new();
                    sim.cpu.on_timer(eng.now(), core, gen, &mut out);
                    route(out, sim, eng);
                });
            }
            CpuOutput::WorkDone { pid, tag } => {
                let now = eng.now();
                sim.done.push((now, pid, tag));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Work conservation: every finite submitted work item completes,
    /// each process's busy time equals the sum of its submissions, and
    /// total busy time never exceeds cores × elapsed.
    #[test]
    fn all_work_completes_and_time_is_conserved(
        cores in 1usize..5,
        jobs in proptest::collection::vec(
            // (process, work_us 1..500, submit_at_us 0..2000)
            (0usize..6, 1u64..500, 0u64..2000),
            1..40,
        ),
    ) {
        let profile = CpuProfile { cores, ..CpuProfile::default() };
        let mut sim = Sim { cpu: HostCpu::new(profile), done: Vec::new() };
        let mut eng: Engine<Sim> = Engine::new();
        let nprocs = 6;
        let pids: Vec<ProcId> = (0..nprocs).map(|i| sim.cpu.spawn(&format!("p{i}"), None)).collect();

        let mut expected_busy = vec![0u64; nprocs];
        for (i, &(p, work_us, at_us)) in jobs.iter().enumerate() {
            let pid = pids[p];
            expected_busy[p] += work_us * 1000;
            let tag = i as u64;
            let work = work_us * 1000;
            eng.schedule_at(SimTime::from_nanos(at_us * 1000), move |sim: &mut Sim, eng| {
                let mut out = Vec::new();
                sim.cpu.submit(eng.now(), pid, work, tag, &mut out);
                route(out, sim, eng);
            });
        }
        eng.run(&mut sim);

        // Every job completed exactly once.
        prop_assert_eq!(sim.done.len(), jobs.len());
        let mut tags: Vec<u64> = sim.done.iter().map(|d| d.2).collect();
        tags.sort_unstable();
        prop_assert!(tags.windows(2).all(|w| w[0] != w[1]), "duplicate completion");

        // Per-process accounting matches submissions exactly.
        for (i, &pid) in pids.iter().enumerate() {
            prop_assert_eq!(sim.cpu.busy_ns(pid), expected_busy[i], "proc {}", i);
            prop_assert!(sim.cpu.is_idle(pid));
        }

        // The host can not have done more work than cores × elapsed.
        let elapsed = eng.now().as_nanos();
        let total: u64 = expected_busy.iter().sum();
        prop_assert!(total <= elapsed * cores as u64 + 1,
            "{} busy ns > {} cores x {} ns", total, cores, elapsed);
    }

    /// Completions per process respect FIFO submission order.
    #[test]
    fn per_process_fifo(
        works in proptest::collection::vec(1u64..100, 2..20),
    ) {
        let profile = CpuProfile { cores: 2, ..CpuProfile::default() };
        let mut sim = Sim { cpu: HostCpu::new(profile), done: Vec::new() };
        let mut eng: Engine<Sim> = Engine::new();
        let pid = sim.cpu.spawn("fifo", None);
        for (i, w) in works.iter().enumerate() {
            let mut out = Vec::new();
                sim.cpu.submit(SimTime::ZERO, pid, w * 1000, i as u64, &mut out);
            route(out, &mut sim, &mut eng);
        }
        eng.run(&mut sim);
        let tags: Vec<u64> = sim.done.iter().map(|d| d.2).collect();
        let want: Vec<u64> = (0..works.len() as u64).collect();
        prop_assert_eq!(tags, want);
    }
}

/// Hogs on every core never block a pinned process's exclusive core.
#[test]
fn exclusive_core_shields_pinned_process() {
    let profile = CpuProfile {
        cores: 2,
        ..CpuProfile::default()
    };
    let mut sim = Sim {
        cpu: HostCpu::new(profile),
        done: Vec::new(),
    };
    let mut eng: Engine<Sim> = Engine::new();
    sim.cpu.set_exclusive(0, true);
    for i in 0..4 {
        let mut out = Vec::new();
        let _pid = sim
            .cpu
            .spawn_hog(SimTime::ZERO, &format!("hog{i}"), &mut out);
        route(out, &mut sim, &mut eng);
    }
    let pinned = sim.cpu.spawn("pinned", Some(0));
    // Submit at t=5ms: core 0 must be free for the pinned proc at once.
    eng.schedule_at(SimTime::from_nanos(5_000_000), move |sim: &mut Sim, eng| {
        let mut out = Vec::new();
        sim.cpu.submit(eng.now(), pinned, 10_000, 9, &mut out);
        route(out, sim, eng);
    });
    eng.run_until(&mut sim, SimTime::from_nanos(10_000_000));
    assert_eq!(sim.done.len(), 1);
    let (t, _, _) = sim.done[0];
    // Wakeup + ctx + work only: well under one slice.
    assert!(t.as_nanos() < 5_100_000, "pinned proc was delayed: {t}");
}
