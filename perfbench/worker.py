"""One benchmark process: set up a workload, run its passes, print raw timings.

Started by run.py, with src/ of the checkout on PYTHONPATH, once per
measurement so that every set-up starts from a fresh interpreter:

    python3 perfbench/worker.py --workload NAME --seed N --passes P \
        --mode setup|timed|traced --out-dir DIR

It prints one JSON object: the monotonic time its set-up ended, the
environment, the probe times that read the host's speed, and per request
of every pass the timed seconds, the hits and the gate errors.  In `traced` mode it also writes the span file and
adds the per-module metrics of its one pass.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback

import tracing
import workloads


class Context:
    """What a workload's requests need: the library, the expected values,
    an output directory and `call`, which records a span when tracing."""

    def __init__(self, lib, seed: int, out_dir: str, expected: dict, tracer=None):
        self.lib = lib
        self.seed = seed
        self.out_dir = out_dir
        self.expected = expected
        self.tracer = tracer
        self._planes = {}
        self._reports = open(os.path.join(out_dir, "reports.jsonl"), "w", encoding="utf-8")

    def call(self, name, fn, *args, tag=None, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, tag=tag, **kwargs)

    def build_planes(self, orders) -> None:
        for q in orders:
            self._planes[q] = self.call("models.miquelian_plane",
                                        self.lib.models.miquelian_plane, q, tag={"q": q})

    def plane(self, q: int):
        return self._planes[q]

    def write_report(self, line: str) -> int:
        self._reports.write(line + "\n")
        return len(line) + 1

    def close(self) -> None:
        self._reports.close()


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


class Probe:
    """A fixed piece of work outside the library, timed to read the host's speed.

    It runs an interpreter loop and a gather from a table larger than the
    per-core cache, the two things the library's time goes to.  Its output
    goes to a preallocated buffer, so it allocates nothing while it runs.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self.table = rng.integers(0, 1 << 30, size=1 << 20, dtype=np.int32)    # 4 MB
        self.idx = rng.integers(0, self.table.size, size=200_000).astype(np.intp)
        self.out = np.empty(self.idx.size, dtype=np.int32)
        self.np = np

    def __call__(self) -> float:
        t0 = time.perf_counter()
        s = 0
        for i in range(40_000):
            s += i * i % 7
        self.np.take(self.table, self.idx, out=self.out)
        return time.perf_counter() - t0


def _run_pass(ctx, workload, index: int, probe: Probe) -> list[dict]:
    rng = workloads.pass_rng(workload.name, ctx.seed, index)
    records = []
    for n, req in enumerate(workload.make_pass(ctx, rng, index)):
        if ctx.tracer is not None:
            ctx.tracer.request = f"{index}.{n}.{req.name}"
        probe_s = probe()
        t0 = time.perf_counter()
        try:
            result = req.run()
            secs = time.perf_counter() - t0
            out = req.check(result)
        except Exception:   # a failed request is counted, the run goes on
            secs = time.perf_counter() - t0
            traceback.print_exc()
            out = workloads.Outcome(errors=[traceback.format_exc(limit=1).strip()])
        records.append({"name": req.name, "op": req.op, "hits_flag": req.hits, "s": secs,
                        "hits": out.hits, "sweep_s": secs if out.sweep_s is None else out.sweep_s,
                        "bytes": out.bytes, "errors": out.errors, "probe": probe_s})
        for err in out.errors:
            print(f"gate: {req.name}: {err}", file=sys.stderr)
    if ctx.tracer is not None:
        ctx.tracer.request = None
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    import numpy
    import laguerre_lab
    import laguerre_lab.cli

    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.instrument(tracer, laguerre_lab)
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    ctx = Context(laguerre_lab, args.seed, args.out_dir, expected, tracer)
    ctx.build_planes(workload.planes)
    setup_end = time.monotonic()
    probe = Probe(numpy)

    result = {"setup_end": setup_end, "setup_probe": [probe() for _ in range(7)],
              "passes": [], "env": {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": _openblas_threads(),
    }}
    if args.mode != "setup":
        for index in range(args.passes):
            result["passes"].append(_run_pass(ctx, workload, index, probe))
    ctx.close()
    if tracer is not None:
        report_bytes = sum(r["bytes"] for r in result["passes"][0])
        tracing.probe_planes(tracer, laguerre_lab, [ctx.plane(q) for q in workload.planes])
        result["per_layer"] = tracing.per_layer(tracer.spans, report_bytes)
        span_file = os.path.join(args.out_dir, f"spans-{workload.name}-{args.seed}.jsonl")
        tracer.write(span_file)
        result["span_file"] = span_file
    # the peak RSS this process reports to its parent through RUSAGE_CHILDREN
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
