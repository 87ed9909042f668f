#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `perfbench/` (a Cargo package of
its own, path-dependent on `crates/`) into `$CARGO_TARGET_DIR` (default
`.bench_build`), then repeats rounds of the workload, each in a fresh
process, until `--seconds` have passed.

* `--trace 0`: plain rounds only. Host-time metrics are the medians over
  the rounds, each round's wall time scaled by the reference kernel run
  next to it (see `host_values`); sim-time metrics are deterministic for
  a seed and must repeat bit for bit in every round.
* `--trace 1`: cycles of a plain, a traced (benchmark spans on) and a
  telemetry (`World::enable_telemetry`) round. Reports every per-layer
  metric, each spanned layer's self time, the tracing overhead and the
  telemetry-on ratio. The last traced round's spans are written to
  `.bench_out/<workload>.tsv`.

Every round runs its workload's correctness gate; the runner adds the
determinism guard (every round of one seed must agree on every sim-time
and count value, whatever its mode). Human-readable lines go first; the
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 only when the
run is correct.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY_NAME = "hl-perfbench"

# Rounds per run at the least, whatever --seconds says.
MIN_PLAIN_ROUNDS = 3
# One round must finish well inside the 180 s a run may take.
ROUND_TIMEOUT_S = 120

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

# Metrics the round binary computes, with their units. BENCHMARK.json
# must list exactly these: end-to-end ones for --trace 0, per-layer ones
# for --trace 1.
END_TO_END_UNITS = {
    "host_ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "sim_p50_us": "us",
    "sim_p999_us": "us",
    "sim_kops": "Kops/s",
    "replica_cpu_us_per_op": "us",
}
HOST_METRICS = {"host_ops_per_s", "setup_s", "peak_rss_mib"}
# The reference kernel's time, in ms, on the host that scaled host time
# stands for: about its median on the shared 2-vCPU Xeon VM the benchmark
# was tuned on, so that there scaled and wall-clock values read alike.
REFERENCE_MS = 10.0


def validate_config(cfg):
    """Return the ways `cfg` (parsed BENCHMARK.json) breaks its schema."""
    errs = []
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(cfg) != want:
        errs.append(f"top-level keys {sorted(cfg)} != {sorted(want)}")
        return errs
    cmd = cfg["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32
            and all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        errs.append("command must be 1 to 32 strings of at most 200 characters")
    paths = cfg["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        errs.append("paths must list 1 to 16 directories")
    else:
        for p in paths:
            if not (isinstance(p, str) and PATH_RE.match(p)) or p.startswith("/") or ".." in p.split("/"):
                errs.append(f"bad path {p!r}")
    rs = cfg["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        errs.append("run_seconds must be a whole number from 1 to 60")
    seen = set()

    def check_name(n):
        if not (isinstance(n, str) and NAME_RE.match(n)):
            errs.append(f"bad name {n!r}")
        elif n in seen:
            errs.append(f"name {n!r} used twice")
        seen.add(n)

    wls = cfg["workloads"]
    if not (isinstance(wls, list) and 2 <= len(wls) <= 8):
        errs.append("workloads must list 2 to 8 entries")
        wls = []
    for w in wls:
        if not isinstance(w, dict) or set(w) != {"name", "why"}:
            errs.append(f"workload {w!r} must have exactly name and why")
            continue
        check_name(w["name"])
        why = w["why"]
        if not (isinstance(why, str) and why and len(why) <= 200 and "\n" not in why):
            errs.append(f"workload {w['name']!r}: why must be one line of at most 200 characters")
    for group, lo, hi, keys in (
        ("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
        ("per_layer", 1, 128, {"name", "unit", "better"}),
    ):
        ms = cfg[group]
        if not (isinstance(ms, list) and lo <= len(ms) <= hi):
            errs.append(f"{group} must list {lo} to {hi} metrics")
            continue
        for m in ms:
            if not isinstance(m, dict) or set(m) != keys:
                errs.append(f"{group} metric {m!r} must have exactly {sorted(keys)}")
                continue
            check_name(m["name"])
            if not (isinstance(m["unit"], str) and UNIT_RE.match(m["unit"])):
                errs.append(f"metric {m['name']!r}: bad unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                errs.append(f"metric {m['name']!r}: better must be lower or higher")
            if "bound" in m:
                b = m["bound"]
                if not (isinstance(b, (int, float)) and not isinstance(b, bool) and 0 < b <= 0.25):
                    errs.append(f"metric {m['name']!r}: bound must be in (0, 0.25]")
    e2e = {m.get("name"): m for m in cfg["end_to_end"] if isinstance(m, dict)}
    setup = e2e.get("setup_s")
    if not setup or setup.get("unit") != "s" or setup.get("better") != "lower":
        errs.append("end_to_end must hold setup_s in s, lower is better")
    elif any(m.get("bound", 0) > setup.get("bound", 0) for m in e2e.values()):
        errs.append("setup_s must have the largest bound")
    return errs


def check_metric_names(cfg, trace, metrics):
    """Return mismatches between the metrics a run produced and the ones
    BENCHMARK.json declares for its trace mode."""
    group = cfg["per_layer"] if trace else cfg["end_to_end"]
    declared = {m["name"]: m["unit"] for m in group}
    errs = [f"declared metric {n!r} was not produced" for n in sorted(set(declared) - set(metrics))]
    errs += [f"produced metric {n!r} is not declared" for n in sorted(set(metrics) - set(declared))]
    for n in sorted(set(declared) & set(metrics)):
        unit = metrics[n]["unit"]
        if unit != declared[n]:
            errs.append(f"metric {n!r}: produced unit {unit!r}, declared {declared[n]!r}")
        v = metrics[n]["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or v != v:
            errs.append(f"metric {n!r}: value {v!r} is not a number")
    if not trace:
        for n in declared:
            if n not in END_TO_END_UNITS:
                errs.append(f"end-to-end metric {n!r} is not one the rounds compute")
    return errs


def check_determinism(rounds):
    """Every round of one seed must agree on its deterministic values."""
    errs = []
    if not rounds:
        return errs
    ref = rounds[0]
    for key in ("digest", "sim", "counts", "attempted"):
        for r in rounds[1:]:
            if r[key] != ref[key]:
                diff = key
                if isinstance(ref[key], dict):
                    names = sorted(k for k in set(ref[key]) | set(r[key]) if ref[key].get(k) != r[key].get(k))
                    diff = f"{key} {', '.join(names[:5])}"
                errs.append(f"determinism: {r['mode']} round differs from the first round in {diff}")
                break
    tele = [r for r in rounds if r["mode"] == "telemetry"]
    if any(r["attr"] != tele[0]["attr"] for r in tele[1:]):
        errs.append("determinism: telemetry rounds disagree on the attribution")
    return errs


def median(values):
    return statistics.median(values) if values else 0.0


def host_values(r):
    """A round's host-time metrics, its wall-clock ops/s and set-up scaled
    to a host on which the reference kernel takes REFERENCE_MS.

    Other tenants of a shared host slow the round and the reference
    kernel run next to it alike, by up to 1.7x, in phases longer than a
    run. The product of wall-clock ops/s and the kernel's time does not
    see those phases. The kernel's code never changes with the program,
    so every change of the program still shows in full."""
    h = r["host"]
    speed = h["ref_ms"] / REFERENCE_MS
    return {
        "host_ops_per_s": h["wall_ops_per_s"] * speed,
        "setup_s": h["wall_setup_s"] / speed,
        "peak_rss_mib": h["peak_rss_mib"],
    }


def end_to_end_metrics(rounds):
    """Host-time medians over the plain rounds, sim values of the first."""
    plain = [r for r in rounds if r["mode"] == "plain"]
    out = {}
    for name, unit in END_TO_END_UNITS.items():
        if name in HOST_METRICS:
            value = median([host_values(r)[name] for r in plain])
        else:
            value = rounds[0]["sim"].get(name)
        out[name] = {"value": value, "unit": unit}
    return out


def per_layer_metrics(cfg, rounds):
    """Counts of the first round, span-derived medians of the traced
    rounds, the attribution of the first telemetry round, and the two
    overhead ratios; units as BENCHMARK.json declares them."""
    by_mode = {m: [r for r in rounds if r["mode"] == m] for m in ("plain", "traced", "telemetry")}
    first = rounds[0]
    values = dict(first["counts"])
    for name in by_mode["traced"][0]["layers"] if by_mode["traced"] else []:
        values[name] = median([r["layers"][name] for r in by_mode["traced"]])
    if by_mode["telemetry"]:
        values.update(by_mode["telemetry"][0]["attr"])
    for name in ("wall_ops_per_s", "wall_setup_s", "ref_ms"):
        values[f"bench.{name}"] = median([r["host"][name] for r in by_mode["plain"]])
    ops = {m: median([host_values(r)["host_ops_per_s"] for r in rs]) for m, rs in by_mode.items()}
    if ops["plain"]:
        values["bench.trace_overhead_ratio"] = ops["traced"] / ops["plain"]
        values["hl-sim.telemetry_on_ratio"] = ops["telemetry"] / ops["plain"]
    # Workloads without reads have no read tail.
    values["sim_read_p999_us"] = first["sim"].get("sim_read_p999_us", 0.0)
    attempted = sum(r["attempted"] for r in rounds)
    values["failed_op_ratio"] = sum(r["failed"] for r in rounds) / max(attempted, 1)
    units = {m["name"]: m["unit"] for m in cfg["per_layer"]}
    return {n: {"value": v, "unit": units.get(n, "?")} for n, v in values.items()}


def evaluate(cfg, trace, rounds):
    """Gate and reduce a run's rounds: returns (errors, metrics)."""
    errors = [e for r in rounds for e in r["errors"]]
    errors += [f"{r['mode']} round reported incorrect" for r in rounds if not r["correct"] and not r["errors"]]
    errors += check_determinism(rounds)
    metrics = per_layer_metrics(cfg, rounds) if trace else end_to_end_metrics(rounds)
    errors += check_metric_names(cfg, trace, metrics)
    return errors, metrics


def build():
    """Build the round binary; return its path, or None on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if res.returncode != 0:
        print(f"perfbench: build failed with code {res.returncode}", file=sys.stderr)
        return None
    return target / "release" / BINARY_NAME


def run_reference(binary, workload):
    """Time the reference kernel in a process of its own, so that it
    leaves the rounds' memory and allocator untouched."""
    cmd = [str(binary), "--workload", workload, "--reference"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"reference kernel exited {res.returncode}: {res.stderr.strip()}")
    return json.loads(res.stdout.strip().splitlines()[-1])["ref_ms"]


def run_round(binary, workload, seed, mode, extra):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--mode", mode, *extra]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"round {' '.join(cmd[1:])} exited {res.returncode}: {res.stderr.strip()}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def print_table(workload, seed, rounds, metrics, cfg, trace):
    units = {m["name"]: m["unit"] for m in cfg["end_to_end"] + cfg["per_layer"]}
    modes = {}
    for r in rounds:
        modes[r["mode"]] = modes.get(r["mode"], 0) + 1
    print(f"perfbench {workload} seed={seed} rounds={modes} host_threads={os.cpu_count()}")
    first = rounds[0]
    if not trace:
        extra = {
            "sim_read_p999_us": first["sim"].get("sim_read_p999_us"),
            "failed_op_ratio": sum(r["failed"] for r in rounds) / max(sum(r["attempted"] for r in rounds), 1),
            "write_samples": first["counts"]["write_samples"],
            "read_samples": first["counts"]["read_samples"],
        }
        plain = [r for r in rounds if r["mode"] == "plain"]
        for n in ("wall_ops_per_s", "wall_setup_s", "ref_ms"):
            extra[f"bench.{n}"] = median([r["host"][n] for r in plain])
        for n, v in extra.items():
            unit = units.get(n, "count")
            print(f"  {n:<32} {'n/a' if v is None else f'{v:.6g}'} {unit}")
    for n in sorted(metrics):
        print(f"  {n:<32} {metrics[n]['value']:.6g} {metrics[n]['unit']}")
    for r in rounds:
        for e in r["errors"]:
            print(f"  error ({r['mode']} round): {e}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        cfg = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        print(f"perfbench: cannot read BENCHMARK.json: {e}", file=sys.stderr)
        return 2
    errs = validate_config(cfg)
    if errs:
        print("perfbench: BENCHMARK.json: " + "; ".join(errs), file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in cfg["workloads"]}:
        print(f"perfbench: unknown workload {args.workload}", file=sys.stderr)
        return 2
    binary = build()
    if binary is None:
        return 1

    cycle = ["plain", "traced", "telemetry"] if args.trace else ["plain"]
    min_rounds = len(cycle) if args.trace else MIN_PLAIN_ROUNDS
    out_dir = ROOT / ".bench_out"
    rounds = []
    deadline = time.monotonic() + args.seconds
    try:
        # The reference kernel runs before the first round and after
        # every round; a round's host time is scaled by the mean of the
        # two runs next to it.
        refs = [run_reference(binary, args.workload)]
        while len(rounds) < min_rounds or time.monotonic() < deadline:
            mode = cycle[len(rounds) % len(cycle)]
            extra = []
            # The threaded fleet must match a 1-thread run byte for byte;
            # checked once per invocation.
            if not rounds and args.workload == "sharded-fleet":
                extra.append("--check-sequential")
            if mode == "traced":
                out_dir.mkdir(exist_ok=True)
                extra += ["--trace-out", str(out_dir / f"{args.workload}.tsv")]
            rounds.append(run_round(binary, args.workload, args.seed, mode, extra))
            refs.append(run_reference(binary, args.workload))
    except (OSError, RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    for r, before, after in zip(rounds, refs, refs[1:]):
        r["host"]["ref_ms"] = (before + after) / 2
    errors, metrics = evaluate(cfg, args.trace, rounds)
    print_table(args.workload, args.seed, rounds, metrics, cfg, args.trace)
    for e in errors:
        print(f"perfbench: {e}", file=sys.stderr)
    correct = not errors
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
