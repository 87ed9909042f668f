//! Differential test of the scheduler's run queues.
//!
//! `Reference` below is the linear-scan scheduler the run queues
//! replaced: every pick, slice length, overload test and vruntime floor
//! walks the whole process table. Both models are driven with the same
//! random scripts of spawns (pinned or not), exclusive-core toggles,
//! submissions, hogs and timer expirations, and must emit identical
//! outputs at identical instants and end with identical accounting.

use hl_cpu::{CpuOutput, HostCpu, ProcId};
use hl_sim::config::CpuProfile;
use hl_sim::{Engine, EventCtx, Histogram, NoEvent, RngFactory, RngStream, SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::VecDeque;

// ----- reference model: the pre-run-queue linear-scan scheduler ----------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RunState {
    Blocked,
    Runnable,
    Running,
}

struct WorkItem {
    remaining: u64,
    tag: u64,
}

struct Proc {
    state: RunState,
    pinned: Option<usize>,
    vruntime: u64,
    work: VecDeque<WorkItem>,
    busy_ns: u64,
    runnable_since: SimTime,
}

struct Core {
    running: Option<ProcId>,
    exclusive: bool,
    last_ran: Option<ProcId>,
    gen: u64,
    run_start: SimTime,
    slice_end: SimTime,
}

struct Reference {
    profile: CpuProfile,
    cores: Vec<Core>,
    procs: Vec<Proc>,
    min_vruntime: u64,
    wakeup_granularity: u64,
    ctx_switches: u64,
    sched_latency: Histogram,
    rng: RngStream,
}

impl Reference {
    fn new(profile: CpuProfile, rng: RngStream) -> Self {
        Reference {
            cores: (0..profile.cores)
                .map(|_| Core {
                    running: None,
                    exclusive: false,
                    last_ran: None,
                    gen: 0,
                    run_start: SimTime::ZERO,
                    slice_end: SimTime::ZERO,
                })
                .collect(),
            procs: Vec::new(),
            min_vruntime: 0,
            wakeup_granularity: profile.wakeup_granularity.as_nanos(),
            ctx_switches: 0,
            sched_latency: Histogram::new(),
            rng,
            profile,
        }
    }

    fn slice_len(&mut self) -> SimDuration {
        let runnable = self
            .procs
            .iter()
            .filter(|p| p.state != RunState::Blocked)
            .count()
            .max(1);
        let base = self.profile.time_slice.as_nanos() as f64;
        let scaled = (base * self.cores.len() as f64 / runnable as f64).clamp(base / 10.0, base);
        SimDuration::from_nanos((scaled * (0.9 + 0.2 * self.rng.f64())) as u64)
    }

    fn spawn(&mut self, pinned: Option<usize>) -> ProcId {
        self.procs.push(Proc {
            state: RunState::Blocked,
            pinned,
            vruntime: self.min_vruntime,
            work: VecDeque::new(),
            busy_ns: 0,
            runnable_since: SimTime::ZERO,
        });
        ProcId(self.procs.len() - 1)
    }

    fn submit(&mut self, now: SimTime, pid: ProcId, work_ns: u64, tag: u64) -> Vec<CpuOutput> {
        self.procs[pid.0].work.push_back(WorkItem {
            remaining: work_ns,
            tag,
        });
        match self.procs[pid.0].state {
            RunState::Blocked => self.wake(now, pid),
            _ => Vec::new(),
        }
    }

    fn wake(&mut self, now: SimTime, pid: ProcId) -> Vec<CpuOutput> {
        self.refresh_min_vruntime();
        let mut target = self
            .min_vruntime
            .saturating_sub(self.profile.sleeper_bonus.as_nanos());
        let runnable = self
            .procs
            .iter()
            .filter(|p| p.state != RunState::Blocked)
            .count();
        let overload = runnable.saturating_sub(self.cores.len());
        if overload > 0 && self.profile.wake_penalty_slices > 0.0 {
            let p_bad = (overload as f64 / (32.0 * self.cores.len() as f64)).min(0.04);
            if self.rng.chance(p_bad) {
                let max_pen =
                    self.profile.time_slice.as_nanos() as f64 * self.profile.wake_penalty_slices;
                target = self.min_vruntime + (self.rng.f64() * max_pen) as u64;
            }
        }
        let p = &mut self.procs[pid.0];
        p.vruntime = p.vruntime.max(target);
        p.state = RunState::Runnable;
        p.runnable_since = now;
        if let Some(core) = self.pick_idle_core(pid) {
            let delay = if self.cores[core].last_ran == Some(pid) {
                SimDuration::ZERO
            } else {
                self.profile.wakeup
            };
            return self.dispatch(now + delay, core, pid);
        }
        if let Some(core) = self.pick_preemption_victim(pid) {
            self.preempt(now, core);
            return self.dispatch(now + self.profile.wakeup, core, pid);
        }
        Vec::new()
    }

    fn pick_idle_core(&self, pid: ProcId) -> Option<usize> {
        match self.procs[pid.0].pinned {
            Some(c) => self.cores[c].running.is_none().then_some(c),
            None => {
                let usable = |c: usize| self.cores[c].running.is_none() && !self.cores[c].exclusive;
                (0..self.cores.len())
                    .find(|&c| usable(c) && self.cores[c].last_ran == Some(pid))
                    .or_else(|| (0..self.cores.len()).find(|&c| usable(c)))
            }
        }
    }

    fn pick_preemption_victim(&self, pid: ProcId) -> Option<usize> {
        let woken = &self.procs[pid.0];
        let mut best: Option<(usize, u64)> = None;
        for c in 0..self.cores.len() {
            if woken.pinned.is_some_and(|p| p != c) {
                continue;
            }
            if self.cores[c].exclusive && woken.pinned != Some(c) {
                continue;
            }
            let Some(victim) = self.cores[c].running else {
                continue;
            };
            let v = self.procs[victim.0].vruntime;
            if v > woken.vruntime + self.wakeup_granularity && best.is_none_or(|(_, bv)| v > bv) {
                best = Some((c, v));
            }
        }
        best.map(|(c, _)| c)
    }

    fn preempt(&mut self, now: SimTime, core: usize) {
        let pid = self.cores[core].running.expect("preempting idle core");
        self.charge(now, core, pid);
        let p = &mut self.procs[pid.0];
        p.state = RunState::Runnable;
        p.runnable_since = now;
        self.cores[core].running = None;
        self.cores[core].gen += 1;
    }

    fn charge(&mut self, now: SimTime, core: usize, pid: ProcId) {
        let elapsed = now
            .saturating_duration_since(self.cores[core].run_start)
            .as_nanos();
        let p = &mut self.procs[pid.0];
        p.busy_ns += elapsed;
        p.vruntime += elapsed;
        if let Some(item) = p.work.front_mut() {
            if item.remaining != u64::MAX {
                item.remaining = item.remaining.saturating_sub(elapsed);
            }
        }
    }

    fn decision(start: SimTime, slice_end: SimTime, front: Option<&WorkItem>) -> SimTime {
        match front {
            Some(w) if w.remaining != u64::MAX => {
                (start + SimDuration::from_nanos(w.remaining)).min(slice_end)
            }
            _ => slice_end,
        }
    }

    fn dispatch(&mut self, now: SimTime, core: usize, pid: ProcId) -> Vec<CpuOutput> {
        let ctx = if self.cores[core].last_ran == Some(pid) {
            SimDuration::ZERO
        } else {
            self.ctx_switches += 1;
            self.profile.ctx_switch
        };
        let start = now + ctx;
        let slice_end = start + self.slice_len();
        let p = &mut self.procs[pid.0];
        p.state = RunState::Running;
        self.sched_latency
            .record(now.saturating_duration_since(p.runnable_since).as_nanos());
        let at = Self::decision(start, slice_end, p.work.front());
        let c = &mut self.cores[core];
        c.running = Some(pid);
        c.last_ran = Some(pid);
        c.run_start = start;
        c.slice_end = slice_end;
        c.gen += 1;
        vec![CpuOutput::Timer {
            core,
            gen: c.gen,
            at,
        }]
    }

    fn on_timer(&mut self, now: SimTime, core: usize, gen: u64) -> Vec<CpuOutput> {
        if self.cores[core].gen != gen {
            return Vec::new();
        }
        let pid = self.cores[core].running.expect("timer on idle core");
        self.charge(now, core, pid);
        self.cores[core].run_start = now;
        let mut out = Vec::new();
        let finished = self.procs[pid.0]
            .work
            .front()
            .is_some_and(|w| w.remaining != u64::MAX && w.remaining == 0);
        if finished {
            let item = self.procs[pid.0].work.pop_front().unwrap();
            out.push(CpuOutput::WorkDone { pid, tag: item.tag });
        }
        let slice_end = self.cores[core].slice_end;
        let has_work = !self.procs[pid.0].work.is_empty();
        if has_work && now < slice_end {
            let at = Self::decision(now, slice_end, self.procs[pid.0].work.front());
            let c = &mut self.cores[core];
            c.gen += 1;
            out.push(CpuOutput::Timer {
                core,
                gen: c.gen,
                at,
            });
            return out;
        }
        self.cores[core].running = None;
        self.cores[core].gen += 1;
        let p = &mut self.procs[pid.0];
        if has_work {
            p.state = RunState::Runnable;
            p.runnable_since = now;
        } else {
            p.state = RunState::Blocked;
        }
        out.extend(self.schedule_core(now, core));
        out
    }

    fn schedule_core(&mut self, now: SimTime, core: usize) -> Vec<CpuOutput> {
        let mut best: Option<(ProcId, u64)> = None;
        let exclusive = self.cores[core].exclusive;
        for (i, p) in self.procs.iter().enumerate() {
            if p.state != RunState::Runnable
                || p.pinned.is_some_and(|c| c != core)
                || (exclusive && p.pinned != Some(core))
            {
                continue;
            }
            if best.is_none_or(|(_, bv)| p.vruntime < bv) {
                best = Some((ProcId(i), p.vruntime));
            }
        }
        match best {
            Some((pid, _)) => self.dispatch(now, core, pid),
            None => Vec::new(),
        }
    }

    fn refresh_min_vruntime(&mut self) {
        let active_min = self
            .procs
            .iter()
            .filter(|p| p.state != RunState::Blocked)
            .map(|p| p.vruntime)
            .min();
        if let Some(m) = active_min {
            self.min_vruntime = self.min_vruntime.max(m);
        }
    }
}

// ----- one harness for both models ----------------------------------------

trait Model {
    fn spawn(&mut self, pinned: Option<usize>) -> ProcId;
    fn set_exclusive(&mut self, core: usize, on: bool);
    fn submit(&mut self, now: SimTime, pid: ProcId, work: u64, tag: u64, out: &mut Vec<CpuOutput>);
    fn on_timer(&mut self, now: SimTime, core: usize, gen: u64, out: &mut Vec<CpuOutput>);
    fn busy_ns(&self, pid: ProcId) -> u64;
    fn ctx_switches(&self) -> u64;
    fn sched_latency(&self) -> &Histogram;
}

impl Model for HostCpu {
    fn spawn(&mut self, pinned: Option<usize>) -> ProcId {
        HostCpu::spawn(self, "p", pinned)
    }
    fn set_exclusive(&mut self, core: usize, on: bool) {
        HostCpu::set_exclusive(self, core, on)
    }
    fn submit(&mut self, now: SimTime, pid: ProcId, work: u64, tag: u64, out: &mut Vec<CpuOutput>) {
        HostCpu::submit(self, now, pid, work, tag, out)
    }
    fn on_timer(&mut self, now: SimTime, core: usize, gen: u64, out: &mut Vec<CpuOutput>) {
        HostCpu::on_timer(self, now, core, gen, out)
    }
    fn busy_ns(&self, pid: ProcId) -> u64 {
        HostCpu::busy_ns(self, pid)
    }
    fn ctx_switches(&self) -> u64 {
        HostCpu::ctx_switches(self)
    }
    fn sched_latency(&self) -> &Histogram {
        HostCpu::sched_latency(self)
    }
}

impl Model for Reference {
    fn spawn(&mut self, pinned: Option<usize>) -> ProcId {
        Reference::spawn(self, pinned)
    }
    fn set_exclusive(&mut self, core: usize, on: bool) {
        self.cores[core].exclusive = on;
    }
    fn submit(&mut self, now: SimTime, pid: ProcId, work: u64, tag: u64, out: &mut Vec<CpuOutput>) {
        out.extend(Reference::submit(self, now, pid, work, tag));
    }
    fn on_timer(&mut self, now: SimTime, core: usize, gen: u64, out: &mut Vec<CpuOutput>) {
        out.extend(Reference::on_timer(self, now, core, gen));
    }
    fn busy_ns(&self, pid: ProcId) -> u64 {
        self.procs[pid.0].busy_ns
    }
    fn ctx_switches(&self) -> u64 {
        self.ctx_switches
    }
    fn sched_latency(&self) -> &Histogram {
        &self.sched_latency
    }
}

struct Sim<M> {
    cpu: M,
    /// Every output, stamped with the instant it was emitted.
    log: Vec<(SimTime, CpuOutput)>,
}

impl<M: Model> EventCtx for Sim<M> {
    type Event = NoEvent;
    fn run_event(&mut self, _eng: &mut Engine<Self>, ev: NoEvent) {
        match ev {}
    }
}

fn route<M: Model + 'static>(out: Vec<CpuOutput>, sim: &mut Sim<M>, eng: &mut Engine<Sim<M>>) {
    for o in out {
        sim.log.push((eng.now(), o.clone()));
        if let CpuOutput::Timer { core, gen, at } = o {
            eng.schedule_at(at, move |sim: &mut Sim<M>, eng| {
                let mut out = Vec::new();
                sim.cpu.on_timer(eng.now(), core, gen, &mut out);
                route(out, sim, eng);
            });
        }
    }
}

/// One scripted step: `(gap_us, kind, a, b)`.
type Step = (u32, u32, u32, u32);

/// What a run leaves behind, compared field by field.
#[derive(Debug, PartialEq)]
struct Trace {
    log: Vec<(SimTime, CpuOutput)>,
    busy_ns: Vec<u64>,
    ctx_switches: u64,
    latency: (u64, u128, u64, u64, u64, u64),
}

fn run<M: Model + 'static>(cpu: M, cores: usize, initial: u32, steps: &[Step]) -> Trace {
    let mut sim = Sim {
        cpu,
        log: Vec::new(),
    };
    let mut eng: Engine<Sim<M>> = Engine::new();
    let mut pids: Vec<ProcId> = Vec::new();
    let spawn = |sim: &mut Sim<M>, pids: &mut Vec<ProcId>, sel: u32| {
        // One process in four is pinned to a core.
        let pinned = sel.is_multiple_of(4).then_some((sel / 4) as usize % cores);
        pids.push(sim.cpu.spawn(pinned));
    };
    for i in 0..initial {
        spawn(&mut sim, &mut pids, i.wrapping_mul(2_654_435_761));
    }
    let mut now = SimTime::ZERO;
    for (tag, &(gap_us, kind, a, b)) in steps.iter().enumerate() {
        // Half the steps land on the same instant as the previous one.
        if gap_us % 2 == 1 {
            now += SimDuration::from_micros(gap_us as u64 % 1500);
        }
        eng.run_until(&mut sim, now);
        let mut out = Vec::new();
        match kind % 16 {
            0 if pids.len() < 300 => spawn(&mut sim, &mut pids, a),
            1 => sim.cpu.set_exclusive(a as usize % cores, b % 2 == 0),
            2 if pids.len() < 300 => {
                // A hog: an unpinned process with infinite work.
                let pid = sim.cpu.spawn(None);
                pids.push(pid);
                sim.cpu.submit(now, pid, u64::MAX, 0, &mut out);
            }
            _ if !pids.is_empty() => {
                let pid = pids[a as usize % pids.len()];
                let work = 1_000 + (b as u64 % 3_000) * 1_000;
                sim.cpu.submit(now, pid, work, tag as u64 + 1, &mut out);
            }
            _ => {}
        }
        route(out, &mut sim, &mut eng);
    }
    eng.run_until(&mut sim, now + SimDuration::from_millis(20));
    let h = sim.cpu.sched_latency();
    Trace {
        busy_ns: pids.iter().map(|&p| sim.cpu.busy_ns(p)).collect(),
        ctx_switches: sim.cpu.ctx_switches(),
        latency: (h.count(), h.sum(), h.min(), h.max(), h.p50(), h.p999()),
        log: sim.log,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn run_queue_matches_linear_scan(
        cores in 1usize..17,
        initial in 0u32..300,
        seed in any::<u64>(),
        steps in proptest::collection::vec(
            (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
            1..400,
        ),
    ) {
        let profile = CpuProfile { cores, ..CpuProfile::default() };
        let rng = || RngFactory::new(seed).stream("cpu");
        let mut cpu = HostCpu::new(profile.clone());
        cpu.set_rng(rng());
        let want = run(Reference::new(profile, rng()), cores, initial, &steps);
        let got = run(cpu, cores, initial, &steps);
        prop_assert_eq!(got.log.len(), want.log.len());
        prop_assert_eq!(got, want);
    }
}
