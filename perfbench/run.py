"""The laguerre-lab benchmark.

Run from the root of a checkout (it imports the library from src/):

    python3 perfbench/run.py --workload sample-q13 --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28 --trace 0

Each measurement is a fresh Python process (perfbench/worker.py).  With
--trace 0 the benchmark starts SETUP_SAMPLES - 1 processes that only set
up, then one that sets up and runs whole passes of the workload, as many
as fit in --seconds at the seed commit's pace; it prints the end-to-end
metrics, with times scaled to the reference host speed (PROBE_REF_S).
With --trace 1 it runs one untraced and one traced pass, each in its own
process, and prints the per-module metrics read from the spans (raw
times) and the tracing overhead (traced wall_s minus untraced wall_s).

Every request passes the gate in workloads.py.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; lines before it give every metric with its unit, the raw values,
the sample counts and the environment.  The exit code is 0 only when every
request passed the gate.  Outputs go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3
DEADLINE_S = 170    # a single-workload command ends within 180 s

# The host's speed drifts by more than the bounds: on a shared 2-vCPU VM, one
# pass of exhaustive-small took 10 s in one run and 17 s in another minutes
# later.  Every worker therefore times a fixed probe
# (worker.Probe) after its set-up and before each request, and times are
# reported at the probe's reference speed: raw time * PROBE_REF_S / median
# probe time of the same process.  The raw values go to the result file.
PROBE_REF_S = 0.006

END_TO_END = {
    "setup_s": "s",         # fresh process to planes built: interpreter, import, builds
    "wall_s": "s",          # setup_s plus the median pass: one pass as a user runs it
    "hits_per_s": "1/s",    # hypothesis hits per second inside the hit-producing calls
    "ops_per_s": "1/s",     # unit operations per second of their own time
    "op_ms_p50": "ms",      # median unit operation
    "peak_rss_mb": "MB",    # largest peak RSS among the workload's processes (probe: ~7 MB)
}


class RunFailed(Exception):
    pass


def _spawn(root: str, out_dir: str, workload: str, seed: int, mode: str, passes: int,
           deadline: float) -> tuple[float, dict]:
    """Run one worker; returns its start time and its JSON result."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--passes", str(passes), "--mode", mode, "--out-dir", out_dir]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as e:
        raise RunFailed(f"{mode} worker did not finish in time") from e
    if proc.returncode != 0:
        raise RunFailed(f"{mode} worker exited with {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def _records(result: dict) -> list[dict]:
    return [r for p in result["passes"] for r in p]


def _pass_s(passes) -> list[float]:
    return [sum(r["s"] for r in p) for p in passes]


def _speed(probes) -> float:
    """How many times slower than the reference the host ran the probe."""
    return statistics.median(probes) / PROBE_REF_S


def _setup_s(start: float, result: dict, normalize: bool) -> float:
    raw = result["setup_end"] - start
    return raw / _speed(result["setup_probe"]) if normalize else raw


def _end_to_end(setup_s: float, result: dict, peak_rss_kb: int,
                normalize: bool) -> dict[str, float]:
    records = _records(result)
    speed = _speed([r["probe"] for r in records]) if normalize else 1.0
    ops = [r["s"] / speed for r in records if r["op"]]
    hit_records = [r for r in records if r["hits_flag"]]
    return {
        "setup_s": setup_s,
        "wall_s": setup_s + statistics.median(_pass_s(result["passes"])) / speed,
        "hits_per_s": (speed * sum(r["hits"] for r in hit_records)
                       / sum(r["sweep_s"] for r in hit_records)),
        "ops_per_s": len(ops) / sum(ops),
        "op_ms_p50": 1e3 * statistics.median(ops),
        # Printed, not gated: bursts on the host move the tail by more than any
        # allowed bound (a spread of 0.28 over ten symmetry-q9 runs).
        "op_ms_p90": 1e3 * statistics.quantiles(ops, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def _env(root: str, worker_env: dict) -> dict:
    src = os.path.join(root, "src", "laguerre_lab")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        commit = proc.stdout.strip() or None
    return dict(worker_env, nproc=len(os.sched_getaffinity(0)), commit=commit,
                src_lines=lines)


def run_workload(root: str, name: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> dict:
    workload = workloads.WORKLOADS[name]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    if trace:
        start, plain = _spawn(root, out_dir, name, seed, "timed", 1, deadline)
        plain_wall = _end_to_end(_setup_s(start, plain, True), plain, 0, True)["wall_s"]
        start, traced = _spawn(root, out_dir, name, seed, "traced", 1, deadline)
        traced_wall = _end_to_end(_setup_s(start, traced, True), traced, 0, True)["wall_s"]
        metrics = traced["per_layer"]
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
        units = tracing.per_layer_units()
        records = _records(plain) + _records(traced)
        result = traced
        counts = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                  "span_file": os.path.relpath(traced["span_file"], root)}
    else:
        passes = max(1, int(seconds / workload.nominal_pass_s))
        started = [_spawn(root, out_dir, name, seed, "setup", 0, deadline)
                   for _ in range(SETUP_SAMPLES - 1)]
        started.append(_spawn(root, out_dir, name, seed, "timed", passes, deadline))
        result = started[-1][1]
        peak = max(res["peak_rss_kb"] for _, res in started)
        metrics = _end_to_end(statistics.median(_setup_s(t, r, True) for t, r in started),
                              result, peak, True)
        raw = _end_to_end(statistics.median(_setup_s(t, r, False) for t, r in started),
                          result, peak, False)
        units = END_TO_END
        records = _records(result)
        counts = {"passes": passes, "setup_samples": len(started),
                  "ops": sum(r["op"] for r in records), "op": workload.op,
                  "op_ms_p90": metrics["op_ms_p90"],
                  "host_speed": _speed([r["probe"] for r in records]),
                  "raw_metrics": raw}
    failed = sum(bool(r["errors"]) for r in records)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": _env(root, result["env"]), "counts": counts,
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "failed_ops_frac": failed / len(records),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "requests": result["passes"],
    }


def _check_manifest(root: str, trace: bool) -> None:
    """BENCHMARK.json must list exactly the metrics this code emits."""
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        raise RunFailed(f"cannot read BENCHMARK.json: {e}") from e
    listed = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    emitted = list(tracing.per_layer_units() if trace else END_TO_END)
    if listed != emitted:
        raise RunFailed(f"BENCHMARK.json lists {listed}, the benchmark emits {emitted}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "laguerre_lab", "__init__.py")):
        print("error: run from the root of a laguerre-lab checkout (no src/laguerre_lab)",
              file=sys.stderr)
        return 2
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        _check_manifest(root, bool(args.trace))
        for name in names:
            res = run_workload(root, name, args.seed, args.seconds, bool(args.trace),
                               time.monotonic() + DEADLINE_S)
            results.append(res)
            path = os.path.join(HERE, "out", f"result-{name}-{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(res, fh)
            print(f"# {name} seed={args.seed} trace={args.trace} env={json.dumps(res['env'])}")
            print(f"# {name} counts={json.dumps(res['counts'])}")
            print(f"# {name} result file: perfbench/out/{os.path.basename(path)}")
            for metric, v in res["metrics"].items():
                print(f"{name} {metric} {v['value']:.6g} {v['unit']}")
            print(f"{name} failed_ops_frac {res['failed_ops_frac']:.6g} "
                  f"({res['failed']} of {res['attempted']})")
    except RunFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
