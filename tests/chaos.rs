//! Chaos campaigns: seeded fault schedules against the replicated chain.
//!
//! Each test runs [`run_campaign`], hl-bench's one chaos campaign: a
//! 4-host cluster (client `h0`, chain `h1`-`h2`, standby `h3`) drives a
//! stream of durable gWRITEs through a deadline-supervised
//! `RetryClient` and replays the deterministic fault schedule
//! [`FaultSchedule::generate`] derives from the seed — packet-loss
//! windows, one-way partitions, link failures, NIC and WAIT-engine
//! stalls, CPU hogs, and sometimes a permanent host crash. Two
//! detection paths — heartbeat misses and transport-error CQEs on the
//! client's reliable outbound QPs — funnel into one rebuild per chain
//! generation, and every rebuilt chain is re-armed, so campaigns
//! survive cascaded and spurious failures until the standby pool runs
//! out.
//!
//! Invariants checked at quiescence, for every seed (`run_campaign`
//! panics on the first one violated):
//!
//! 1. **Never hangs** — every supervised op settled (ACK or typed error).
//! 2. **No acked-write loss** — every ACKed record is present and
//!    byte-identical on the client copy and every member of the final
//!    chain.
//! 3. **Reconvergence** — an append issued after the fault window
//!    completes successfully.
//! 4. **Reproducibility** — the same seed yields a byte-identical
//!    Chrome trace export, fault and heal marks included (checked by
//!    `same_seed_reproduces_identical_chrome_trace`).
//! 5. **Race-freedom** — under `--features check-ownership`, the
//!    WQE-ownership & DMA race detector saw nothing.
//!
//! A failing campaign prints its seed; replay it with `debug_campaign`.

use hl_bench::campaign::run_campaign;
use hyperloop_repro::cluster::chaos::FaultSchedule;
use hyperloop_repro::fabric::HostId;
use hyperloop_repro::sim::SimTime;

macro_rules! chaos_campaigns {
    ($($name:ident: $seed:expr,)*) => {$(
        #[test]
        fn $name() {
            run_campaign($seed);
        }
    )*}
}

chaos_campaigns! {
    chaos_seed_101: 101,
    chaos_seed_102: 102,
    chaos_seed_103: 103,
    chaos_seed_104: 104,
    chaos_seed_105: 105,
    chaos_seed_106: 106,
    chaos_seed_107: 107,
    chaos_seed_108: 108,
    chaos_seed_109: 109,
    chaos_seed_110: 110,
    chaos_seed_111: 111,
    chaos_seed_112: 112,
    chaos_seed_113: 113,
    chaos_seed_114: 114,
    chaos_seed_115: 115,
    chaos_seed_116: 116,
    chaos_seed_117: 117,
    chaos_seed_118: 118,
    chaos_seed_119: 119,
    chaos_seed_120: 120,
    chaos_seed_121: 121,
    chaos_seed_122: 122,
}

/// Telemetry determinism: for several chaos seeds, the same seed yields
/// a byte-identical Chrome trace-event export — causal spans, per-hop
/// segments, fault marks and all. Any nondeterminism in op-id
/// allocation, event stamping order, or the hand-rolled serializer
/// would show up here.
#[test]
fn same_seed_reproduces_identical_chrome_trace() {
    for seed in [103, 107, 111] {
        let a = run_campaign(seed);
        let b = run_campaign(seed);
        assert!(
            a.chrome_trace.starts_with("{\"traceEvents\":["),
            "seed {seed}: export is not Chrome trace-event JSON"
        );
        assert!(
            a.chrome_trace.contains("\"name\":\"gWRITE\""),
            "seed {seed}: no gWRITE spans in the export; determinism check is vacuous"
        );
        assert!(
            a.chrome_trace.contains("\"cat\":\"mark\""),
            "seed {seed}: no fault/heal marks in the export"
        );
        assert_eq!(
            a.chrome_trace, b.chrome_trace,
            "seed {seed}: same seed produced diverging Chrome traces"
        );
        assert_eq!(a, b, "seed {seed}: same seed produced diverging artifacts");
    }
}

#[test]
#[ignore]
fn debug_campaign() {
    let seed: u64 = std::env::var("CHAOS_SEED")
        .expect("set CHAOS_SEED=<u64> to pick the campaign to replay")
        .parse()
        .expect("CHAOS_SEED must be an unsigned integer seed");
    let sched = FaultSchedule::generate(
        seed,
        &[HostId(1), HostId(2)],
        HostId(0),
        SimTime::from_nanos(2_000_000),
        SimTime::from_nanos(50_000_000),
    );
    for e in &sched.events {
        println!(
            "event at {}us dur {:?}us kind {}",
            e.at.as_nanos() / 1000,
            e.duration.map(|d| d.as_nanos() / 1000),
            e.kind
        );
    }
    let a = run_campaign(seed);
    print!("{}", a.invariants);
    // The fault, heal and recovery marks, one per line.
    let marks = a.timeseries.split("\"marks\":[").nth(1).unwrap_or("");
    let marks = marks.trim_end_matches("]}");
    for m in marks.split("},{").filter(|m| !m.is_empty()) {
        println!("mark {}", m.trim_matches(|c| c == '{' || c == '}'));
    }
}
