//! One benchmark round in its own process.
//!
//! ```text
//! hl-perfbench --workload <kv-offload|native-tenants|sharded-fleet>
//!              --seed <n> [--mode plain|traced|telemetry]
//!              [--check-sequential] [--trace-out <file>]
//! hl-perfbench --workload <name> --reference
//! ```
//!
//! Builds the workload's world from the seed, runs its set-up and
//! measured phase, runs its correctness gate and prints one JSON line.
//! With `--reference` it runs only the reference kernel (`reference.rs`)
//! and prints its time; the runner runs it between rounds.
//! `perfbench/run.py` repeats rounds, checks that every deterministic
//! value repeats exactly and reports medians. Each round is a fresh
//! process so that peak memory is the round's own and no process-global
//! state (the group-id counters) carries over from an earlier round.

mod attr;
mod fleet;
mod kv;
mod layers;
mod native;
mod reference;
mod round;
mod stats;
mod trace;

use round::Mode;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    mode: Mode,
    check_sequential: bool,
    reference: bool,
    trace_out: Option<String>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        mode: Mode::Plain,
        check_sequential: false,
        reference: false,
        trace_out: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--mode" => {
                let v = value()?;
                a.mode = Mode::parse(&v).ok_or(format!("unknown mode {v}"))?;
            }
            "--trace-out" => a.trace_out = Some(value()?),
            "--check-sequential" => a.check_sequential = true,
            "--reference" => a.reference = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hl-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.mode == Mode::Traced {
        trace::enable();
    }
    if args.reference {
        // On as many threads as the workload runs.
        let threads = match args.workload.as_str() {
            "sharded-fleet" => fleet::THREADS,
            _ => 1,
        };
        println!("{{\"ref_ms\":{}}}", reference::time_ms(threads));
        return ExitCode::SUCCESS;
    }
    let mut r = match args.workload.as_str() {
        "kv-offload" => kv::run(args.seed, args.mode),
        "native-tenants" => native::run(args.seed, args.mode),
        "sharded-fleet" => fleet::run(args.seed, args.mode, args.check_sequential),
        w => {
            eprintln!("hl-perfbench: unknown workload {w}");
            return ExitCode::from(2);
        }
    };
    match round::peak_rss_mib() {
        Some(mib) => {
            r.host.insert("peak_rss_mib", mib);
        }
        None => r.fail("peak RSS unreadable (/proc/self/status)".into()),
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = write_trace(path, &r) {
            eprintln!("hl-perfbench: writing {path}: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{}", r.to_json(&args.workload, args.seed, args.mode));
    ExitCode::SUCCESS
}

fn write_trace(path: &str, r: &round::Round) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    trace::write_tsv(&r.spans, &mut f)?;
    std::io::Write::flush(&mut f)
}
