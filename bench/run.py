"""weyllab benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload critical_minus --seed 1 --seconds 20 --trace 0

Each round runs the workload's experiments through ``weyllab.cli`` in a fresh
interpreter (bench/child.py) and then checks every artifact with the
independent oracles of bench/oracles.py.  Rounds repeat until ``--seconds``
have passed: with the 20 s that BENCHMARK.json sets, a run of the 10 s
weyl_raw round makes two or three rounds, the longer workloads one.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (medians over rounds):
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
round with ``--trace 1``.  Details of every round, the environment and the
experiments' own verdicts go to .bench_out/<workload>/seed<n>-trace<t>/.

Every experiment runs at its own seed 0, so a workload's inputs are the same
for every ``--seed``; the seed only names the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import oracles
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ROUND_TIMEOUT_S = 170.0  # a run must end within 180 s

_SWEEP = {"energy": 1.0, "delta0": 0.41, "epsilon": 0.1,
          "budget": 2**20, "seed": 0}

# (experiment, config) pairs per workload; every value an oracle reads is
# written out, even where it equals the CLI default.
WORKLOADS = {
    # the paper's critical-energy sweep; regularized coefficient evaluation
    # in operators.assemble dominates, so this is the mollify workload
    "critical_minus": [("critical_sweep", dict(
        _SWEEP, model="double_well_2d", variant="minus",
        h_max=0.1, h_min=0.07, h_points=4, max_grid_points=300))],
    # never regularizes: sparse inertia and the remainder sup dominate
    "weyl_raw": [("weyl_sweep", dict(
        _SWEEP, model="separable_harmonic_2d", variant="raw",
        h_max=0.1, h_min=0.025, h_points=5, max_grid_points=640))],
    # the other five experiments: oscillatory quadrature, Sturm sublevel
    # measures, 1-D non-polynomial regularization, dense/eigenvalue counting.
    # trials = 100 (default 200) and mu = 0.76 (default 0.8, 1.6x fewer
    # quadrature nodes) keep 70 runs of the three workloads within an hour
    "lemma_suite": [
        ("sublevel_lemma", {"model": "harmonic", "energy": 1.0,
                            "delta0": 0.41, "trials": 100, "seed": 0}),
        ("oscillatory_decay", {"model": "harmonic", "energy": 1.0,
                               "mu": 0.76}),
        ("flow_bounds", {"model": "double_well_2d", "energy": 1.0,
                         "h_min": 0.05, "t0": 0.1, "c_lower": 0.5,
                         "delta0": 0.41, "seed": 0}),
        ("mollifier_rates", {"model": "holder_test", "energy": 1.0,
                             "r0": 0.5, "delta0": 0.41, "h_min": 0.01,
                             "h_max": 0.1, "h_points": 6}),
        ("smoothed_counting", {"model": "harmonic", "energy": 1.0,
                               "delta0": 0.41}),
    ],
}
SWEEP_CSV = {"critical_sweep": "critical_sweep.csv",
             "weyl_sweep": "weyl_sweep.csv"}

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


class RoundError(RuntimeError):
    pass


def config_text(cfg: dict, out_dir: str) -> str:
    lines = [f"{k} = {v}" for k, v in cfg.items()]
    return "\n".join(lines + [f"out_dir = {out_dir}"]) + "\n"


def environment() -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_child(round_dir: str, experiments, trace: bool, timeout: float):
    """Run one round in a fresh interpreter; return (spawn time, report)."""
    spec_path = os.path.join(round_dir, "spec.json")
    report_path = os.path.join(round_dir, "report.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"trace": trace, "experiments": experiments}, fh)
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # the checkout holds no bytecode: every round compiles weyllab afresh
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    cmd = [sys.executable, os.path.join(HERE, "child.py"), spec_path,
           report_path]
    with open(os.path.join(round_dir, "child.log"), "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise RoundError(f"round exceeded {timeout:.0f} s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        raise RoundError(f"child exited with {code}; see {log.name}")
    with open(report_path, encoding="utf-8") as fh:
        return spawned, json.load(fh)


def check_round(workload: str, round_dir: str, report: dict, m4):
    """Oracle outcomes, one per operation, plus the experiments' verdicts."""
    outcomes, verdicts = [], []
    for (name, cfg), res in zip(WORKLOADS[workload], report["results"]):
        exp_dir = os.path.join(round_dir, name)
        if name in SWEEP_CSV:
            found = oracles.check_sweep(exp_dir, SWEEP_CSV[name], cfg, m4)
        else:
            found = [oracles.LEMMA_CHECKS[name](exp_dir, cfg)]
        if res["exit"] not in (0, 1):
            for out in found:
                out.faults.append(f"cli.run returned {res['exit']}: "
                                  f"{res.get('traceback', '')}")
        outcomes += [(name, o) for o in found]
        verdict = oracles.read_verdict(exp_dir) or {}
        verdicts.append({
            "experiment": name,
            "exit": res["exit"],
            "verdict": verdict.get("verdict"),
            "criteria": {c.get("name"): c.get("status")
                         for c in verdict.get("criteria", [])},
        })
    return outcomes, verdicts


def round_metrics(spawned: float, report: dict, trace: bool) -> dict:
    run_s = report["end"] - report["ready"]
    if not trace:
        return {
            "setup_s": report["ready"] - spawned,
            "run_s": run_s,
            "peak_rss_mb": report["maxrss_kb"] / 1024.0,
        }
    metrics = spans.layer_metrics(report["spans"])
    metrics["trace.run_s"] = run_s
    metrics["trace.overhead_s"] = report["span_cost_s"] * len(report["spans"])
    return metrics


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    return "s" if metric.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and waits for its round's interpreter
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "weyllab", "cli.py")):
        sys.stderr.write(f"no weyllab sources under {ROOT}/src\n")
        return 2
    trace = bool(args.trace)
    out_base = os.path.join(ROOT, ".bench_out", args.workload,
                            f"seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_base, ignore_errors=True)
    needs_m4 = any(n in SWEEP_CSV for n, _ in WORKLOADS[args.workload])
    m4 = oracles.kernel_fourth_moment() if needs_m4 else None

    start = time.monotonic()
    rounds, last = [], 0.0
    while not rounds or (time.monotonic() - start < args.seconds
                         and time.monotonic() - start + last < ROUND_TIMEOUT_S):
        begin = time.monotonic()
        round_dir = os.path.join(out_base, f"round{len(rounds)}")
        experiments = []
        for name, cfg in WORKLOADS[args.workload]:
            exp_dir = os.path.join(round_dir, name)
            os.makedirs(exp_dir)
            experiments.append((name, config_text(cfg, exp_dir)))
        remaining = ROUND_TIMEOUT_S - (begin - start)
        try:
            spawned, report = run_child(round_dir, experiments, trace, remaining)
        except RoundError as exc:
            sys.stderr.write(f"bench: {exc}\n")
            return 1
        outcomes, verdicts = check_round(args.workload, round_dir, report, m4)
        rounds.append({
            "metrics": round_metrics(spawned, report, trace),
            "cpu_s": report["cpu_s"],
            "experiments": verdicts,
            "operations": [{"experiment": n, "operation": o.operation,
                            "faults": o.faults, "wrong": o.wrong}
                           for n, o in outcomes],
        })
        last = time.monotonic() - begin

    ops = [op for r in rounds for op in r["operations"]]
    for op in ops:
        for msg in op["faults"] + op["wrong"]:
            sys.stderr.write(f"bench: {op['experiment']} {op['operation']}: "
                             f"{msg}\n")
    names = rounds[0]["metrics"]
    result = {
        "correct": not any(op["wrong"] for op in ops),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["faults"] or op["wrong"]),
        "metrics": {
            m: {"value": statistics.median(r["metrics"][m] for r in rounds),
                "unit": unit_of(m)}
            for m in names
        },
    }
    with open(os.path.join(out_base, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": environment(), "rounds": rounds,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
