#!/usr/bin/env python3
"""Run one h2sketch benchmark workload and print its metrics.

    python3 perfbench/run.py --workload h2-cov --seed 1 --seconds 40 --trace 0

Builds the library and the perfbench driver from source on first use (CMake,
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs the
driver at the host's pool width, checks its outputs, and prints as the last
line of standard output one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones (from a run that adds a traced
build). Exits non-zero when a correctness check fails.
"""

import argparse
import fcntl
import json
import math
import os
import pathlib
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("h2-cov", "h2-update", "gp-serve")
DRIVER_TIMEOUT_S = 165
WARMUP_FRAC = 0.1  # leading share of each serving phase left out
MAX_LAG_P99_MS = 5.0  # generator lag above which a serving phase is invalid


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def build_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configure and build the driver (incremental after the first run)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"h2sketch sources not found under {ROOT}")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").is_file():
            cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
                fail("cmake configure failed")
        cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", str(os.cpu_count() or 1)]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed")
    return out / "perfbench"


def run_driver(exe, args):
    threads = str(os.cpu_count() or 1)
    env = dict(os.environ, OMP_NUM_THREADS=threads, H2SKETCH_NUM_THREADS=threads)
    env.pop("H2SKETCH_TRACE", None)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir().parent / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                              timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"driver exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed nothing")
    return json.loads(lines[-1])


def phase(raw, name):
    for p in raw["phases"]:
        if p["name"] == name:
            return p
    return None


def phase_latencies_ms(p):
    warmup = WARMUP_FRAC * p["seconds"]
    return [1e3 * x for x in stats.due_time_latencies(p["due"], p["done"], p["ok"], warmup)]


def tail(layers, prefix, values):
    """Record the highest percentile the sample count supports."""
    p = stats.highest_supported_percentile(len(values))
    if p is not None:
        layers[f"{prefix}.tail_pct"] = p
        layers[f"{prefix}.tail_ms"] = stats.percentile(values, p)


def reduce(raw, spec):
    """Turn the driver's raw measurements into the named metrics. Returns
    (end_to_end, per_layer, problems)."""
    problems = [f"check {c['name']}: {c['detail']}" for c in raw["checks"] if not c["ok"]]

    def pct(values, p, what):
        if not stats.supports_percentile(len(values), p):
            problems.append(f"{what}: {len(values)} samples do not support p{p}")
            return float("nan")
        return stats.percentile(values, p)

    e2e = {
        "setup_s": stats.median(raw["setup_s"]),
        "build_s": stats.median(raw["build_s"]) if raw["build_s"] else float("nan"),
        "operator_mb": raw["operator_bytes"] / 2**20,
        "rel_err": raw["rel_err"],
    }
    layers = dict(raw["layers"])
    layers["samples.build"] = float(len(raw["build_s"]))

    # Closed loop, both workloads: single-RHS requests and 32-RHS blocks.
    apply_ms, block_ms = raw["apply_ms"], raw["block_ms"]
    layers["samples.apply"] = float(len(apply_ms))
    layers["samples.loaded"] = float(len(block_ms))
    if not apply_ms or not block_ms:
        problems.append("no applies were measured")
    else:
        e2e["apply_p50_ms"] = pct(apply_ms, 50, "single-RHS applies")
        e2e["loaded_p50_ms"] = pct(block_ms, 50, "32-RHS applies")
        e2e["capacity_rps"] = raw["block_cols"] * len(block_ms) / (sum(block_ms) / 1e3)
        tail(layers, "apply", apply_ms)
        tail(layers, "loaded", block_ms)

    lags = {}
    if raw["workload"] == "gp-serve":
        # Closed loop through the coalescer.
        single, burst = raw["co_single_ms"], raw["co_burst_ms"]
        if not single or not burst:
            problems.append("no coalesced requests were measured")
        else:
            layers["serve.single_p50_ms"] = pct(single, 50, "coalesced single requests")
            tail(layers, "serve.single", single)
            layers["serve.burst_p50_ms"] = pct(burst, 50, "coalesced bursts")
            layers["serve.burst_rps"] = raw["block_cols"] * len(burst) / (sum(burst) / 1e3)
        # Open loop: latency from each request's due time.
        phases = {name: phase(raw, name) for name in ("light", "heavy", "overload")}
        if None in phases.values():
            problems.append("a serving phase is missing")
        else:
            for name in ("light", "heavy"):
                p = phases[name]
                lat = phase_latencies_ms(p)
                layers[f"serve.{name}_p50_ms"] = pct(lat, 50, f"{name} phase")
                tail(layers, f"serve.{name}", lat)
                lag = [1e3 * x for x in stats.generator_lag(p["due"], p["submit"])]
                lags[name] = stats.percentile(lag, 99)
            over = phases["overload"]
            start = over["due"][len(over["due"]) // 4]
            layers["serve.overload_rps"] = stats.completions_in_window(
                over["done"], over["ok"], start, over["due"][-1])
        traced = phase(raw, "traced")
        waits = [] if traced is None else [
            1e3 * (t - s) for s, t, good in zip(traced["submit"], traced["done"], traced["ok"])
            if good]
        if waits:
            layers["serve.queue_wait_ms"] = max(
                0.0, sum(waits) / len(waits) - layers.get("serve.flush_ms", 0.0))
    else:
        # Layers this workload does not exercise.
        for m in spec["per_layer"]:
            if m["name"].startswith(("solver.", "serve.")):
                layers.setdefault(m["name"], 0.0)

    invalid = [name for name, lag in lags.items() if lag > MAX_LAG_P99_MS]
    for name in invalid:
        log(f"serving phase '{name}' is invalid: generator p99 lag {lags[name]:.3f} ms "
            f"exceeds {MAX_LAG_P99_MS} ms")
    layers["serve.generator_lag_ms"] = max(lags.values()) if lags else 0.0
    layers["serve.invalid_phases"] = float(len(invalid))
    layers["fail_frac"] = stats.fail_frac(int(raw["attempted"]), int(raw["failed"]))
    return e2e, layers, problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    exe = build()
    raw = run_driver(exe, args)
    e2e, layers, problems = reduce(raw, spec)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = {**layers, **e2e}
    metrics = {}
    for m in wanted:
        value = source.get(m["name"])
        if value is None or not math.isfinite(value):
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    correct = not problems
    for p in problems:
        log(f"FAILED {p}")
    print(json.dumps({"stamp": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "hardware_threads": raw["hardware_threads"], "pool_width": raw["pool_width"],
        "la.gemm_gflops_1t": raw["gemm_gflops_1t"],
        "invalid_phases": int(layers["serve.invalid_phases"])}}))
    print(json.dumps({"correct": correct, "attempted": int(raw["attempted"]),
                      "failed": int(raw["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
