//! Timeline report: renders p50/p99-over-time with fault / SLO /
//! transition marks overlaid, for the two scenarios that exercise the
//! whole observability pipeline end to end:
//!
//! * the SLO-excursion round trip ([`hl_bench::gray::run_excursion_case`]):
//!   supervised p99 excursion → `slo:fire:` → degrade → heal → resolve
//!   → re-promote, all on one group;
//! * the shard timeline ([`hl_bench::timeline::run_shard_timeline`]):
//!   per-shard latency series where only the faulted shard's bars move.
//!
//! Writes `results/timeline_excursion.txt`,
//! `results/timeseries_excursion.json`, `results/timeline_shards.txt`
//! and `results/timeseries_shards.json`. The excursion runs the same
//! 500 ops as `gray_bench` (so both bins write the same
//! `timeseries_excursion.json`); the shard timeline runs 600 ops per
//! shard.

use hl_bench::gray::run_excursion_case;
use hl_bench::timeline::{run_shard_timeline, TimelineCfg};

fn main() {
    std::fs::create_dir_all("results").expect("create results/");

    let exc = run_excursion_case(6006, 500);
    println!("{}", exc.report);
    println!("{}", exc.timeline);
    let mut txt = String::new();
    txt.push_str("# SLO excursion: supervised p99 over time, marks overlaid\n");
    txt.push_str(&format!("# {}\n\n", exc.report));
    txt.push_str(&exc.timeline);
    std::fs::write("results/timeline_excursion.txt", &txt)
        .expect("write results/timeline_excursion.txt");
    std::fs::write("results/timeseries_excursion.json", &exc.snapshot_json)
        .expect("write results/timeseries_excursion.json");
    std::fs::write("results/timeseries_excursion.csv", &exc.snapshot_csv)
        .expect("write results/timeseries_excursion.csv");

    let cfg = TimelineCfg {
        ops_per_shard: 600,
        ..Default::default()
    };
    let shard = run_shard_timeline(&cfg);
    println!("{}", shard.report);
    println!("{}", shard.timeline);
    let mut txt = String::new();
    txt.push_str("# Shard timeline: per-shard p50/p99 over time, fault marks overlaid\n");
    txt.push_str(&format!("# {}\n\n", shard.report));
    txt.push_str(&shard.timeline);
    std::fs::write("results/timeline_shards.txt", &txt).expect("write results/timeline_shards.txt");
    std::fs::write("results/timeseries_shards.json", &shard.snapshot_json)
        .expect("write results/timeseries_shards.json");

    println!(
        "wrote results/timeline_{{excursion,shards}}.txt and results/timeseries_{{excursion,shards}} snapshots"
    );
}
