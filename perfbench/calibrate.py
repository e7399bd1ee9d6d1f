#!/usr/bin/env python3
"""Calibrates the benchmark's bounds.

Runs every workload (or those named) with several seeds, prints each
end-to-end metric's median and quartiles and its spread (the distance
between the first and third quartile as a share of the median), and checks
that every spread but that of setup_s stays under a third of the metric's
bound in BENCHMARK.json, and that the share of failed operations is the same
in every run.  A traced run per workload (seed of the first untraced run)
gives the tracing overhead: the traced run's end-to-end numbers against the
untraced median.  Every run must print every metric of the manifest in its
unit: the end-to-end ones untraced, the per-layer ones traced.

    python3 perfbench/calibrate.py [--runs 10] [--workloads a,b]
                                   [--seed-base 1000] [--write-bounds]

--write-bounds sets each bound to 3.5 times the largest spread seen on any
workload (at least 0.05, at most 0.25), gives setup_s the largest bound of
all, writes BENCHMARK.json, and checks again.  Run it from the repository
root.  It exits with 1 if a check fails.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time

BENCH = "BENCHMARK.json"
FLOOR, CEILING, MARGIN = 0.05, 0.25, 3.5


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    took = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    traced_e2e = None
    for line in proc.stderr.splitlines():
        if line.startswith("end-to-end under tracing: "):
            traced_e2e = json.loads(line.split(": ", 1)[1])["metrics"]
    return result, traced_e2e, took


def check_metrics(result, manifest, what):
    """Whether the result holds exactly the manifest's metrics, in their units."""
    want = {m["name"]: m["unit"] for m in manifest}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        print(f"{what}: metrics differ from the manifest: "
              f"missing {sorted(set(want) - set(got))}, "
              f"extra {sorted(set(got) - set(want))}, "
              f"unit {sorted(k for k in want if k in got and got[k] != want[k])}")
        return False
    return True


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else math.inf


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--write-bounds", action="store_true")
    args = ap.parse_args()
    spec = json.load(open(BENCH))
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        names = [n for n in names if n in args.workloads.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    spreads = {}
    for w in names:
        values, shares = {}, set()
        for i in range(args.runs):
            res, _, took = run_once(spec, w, args.seed_base + i, 0)
            if not res["correct"]:
                print(f"{w} seed {args.seed_base + i}: incorrect output")
                ok = False
            ok &= check_metrics(res, spec["end_to_end"], f"{w} seed {args.seed_base + i}")
            shares.add((res["failed"] / res["attempted"]).hex())
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            shown = " ".join(f"{k}={m['value']:.4g}" for k, m in res["metrics"].items())
            print(f"  {w} seed {args.seed_base + i}: {took:.1f} s, {res['attempted']} "
                  f"attempted, {res['failed']} failed: {shown}", flush=True)
        if len(shares) != 1:  # the traced run included
            print(f"{w}: the failed share differs between runs")
            ok = False
        layers, traced, _ = run_once(spec, w, args.seed_base, 1)
        ok &= check_metrics(layers, spec["per_layer"], f"{w} traced")
        shares.add((layers["failed"] / layers["attempted"]).hex())
        print(f"{w} ({args.runs} seeds from {args.seed_base})")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}"
              f"{'bound':>7}{'trace':>8}")
        for name, v in values.items():
            med, q1, q3, s = spread(v)
            spreads[name] = max(spreads.get(name, 0.0), s)
            overhead = traced[name]["value"] / med - 1 if traced and med else math.nan
            steady = name == "setup_s" or s < bounds[name] / 3
            ok &= steady
            print(f"  {name:<16}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{s:>8.3f}"
                  f"{bounds[name]:>7.2f}{overhead:>+8.3f}{'' if steady else '  UNSTEADY'}")
    if args.write_bounds:
        for m in spec["end_to_end"]:
            if m["name"] in spreads:
                want = math.ceil(MARGIN * spreads[m["name"]] * 100) / 100
                m["bound"] = min(CEILING, max(FLOOR, want))
        largest = max(m["bound"] for m in spec["end_to_end"])
        for m in spec["end_to_end"]:
            if m["name"] == "setup_s":
                m["bound"] = max(largest, m["bound"])
        with open(BENCH, "w") as f:
            f.write(json.dumps(spec, indent=2) + "\n")
        print("bounds written:", {m["name"]: m["bound"] for m in spec["end_to_end"]})
        ok = all(name == "setup_s" or spreads[name] < b / 3
                 for name, b in ((m["name"], m["bound"]) for m in spec["end_to_end"])
                 if name in spreads)
    print("calibration", "passed" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
