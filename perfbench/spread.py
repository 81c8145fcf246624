#!/usr/bin/env python3
"""Run one workload over several seeds and report, per metric, the median,
the quartiles and the spread (inter-quartile distance over the median)
against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload gp-serve --seeds 1-10

Runs are sequential; run nothing else on the host meanwhile.
"""

import argparse
import json
import pathlib
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values = {}
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=HERE.parent)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        figures = " ".join(f"{k}={m['value']:.4g}" for k, m in result.get("metrics", {}).items())
        print(f"seed {seed}: exit {proc.returncode}, correct {result.get('correct')}, "
              f"failed {result.get('failed')}/{result.get('attempted')} {figures}", flush=True)
        for name, m in result.get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])

    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = stats.quartiles(vals)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else f" bound {bound} {'ok' if spread <= bound else 'WIDE'}"
        print(f"{name:40s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} spread {spread:.3f}{verdict}")


if __name__ == "__main__":
    main()
