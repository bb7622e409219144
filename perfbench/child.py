"""One benchmark workload in a fresh process (started by run.py).

Protocol on standard output: the line `ready` once set-up is done
(imports, instance construction and validation, seeded inputs), then
one JSON line with the passes and, in a traced run, the per-layer
metrics. Whatever the library prints during a pass is discarded.

Untraced run: passes start until --seconds have passed; the pass in
flight at the deadline runs to its end. Traced run: one untraced pass, then two
traced passes of the same inputs, whose counts must agree exactly, then
the fiber kernel micro-benchmarks. Every run ends with the
compiled-versus-numpy kernel agreement check when the compiled
extension is importable.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback


def _pass(wl, outdir):
    os.makedirs(outdir, exist_ok=True)
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            attempted, failed = wl.run(outdir)
    except (Exception, SystemExit):  # a crashed pass is a failed solve
        traceback.print_exc()
        attempted, failed = 1, 1
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    shutil.rmtree(outdir, ignore_errors=True)
    return {"wall_s": wall,
            "cpu_s": cpu,
            "attempted": attempted, "failed": failed}


def _traced_pass(wl, outdir, spans_path, pass_id):
    from tracer import Tracer
    tr = Tracer()
    tr.install()
    try:
        rec = _pass(wl, outdir)
    finally:
        tr.uninstall()
    tr.write_spans(spans_path, pass_id)
    rec["layers"] = tr.summary()
    return rec


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args()

    import workloads
    recorder = workloads.SolveRecorder()
    wl = workloads.WORKLOADS[args.workload](args.seed, recorder,
                                            corrupt=args.corrupt)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import numpy
    import scipy
    from vortexpair import _kernels

    import micro

    outdir = os.path.join(args.workdir, "solver-out-%d" % os.getpid())
    result = {"inputs": wl.inputs, "layers": None}
    if args.trace:
        from tracer import deterministic_counts, median_layers
        spans_path = os.path.join(args.workdir, "spans-%s-seed%d.csv"
                                  % (args.workload, args.seed))
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write("pass,span,parent,name,start,end,self_s\n")
        passes = [_pass(wl, outdir)]
        traced = [_traced_pass(wl, outdir, spans_path, i) for i in (1, 2)]
        layers = [t.pop("layers") for t in traced]
        counts = [deterministic_counts(x) for x in layers]
        result["counts_repeat"] = counts[0] == counts[1]
        result["count_mismatch"] = sorted(
            k for k in counts[0] if counts[0][k] != counts[1][k])
        merged = median_layers(layers)
        merged["trace.overhead_s"] = (
            statistics.median(t["wall_s"] for t in traced)
            - passes[0]["wall_s"])
        merged.update(micro.timings(args.seed))
        result["layers"] = merged
        result["traced_passes"] = traced
    else:
        passes = []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            passes.append(_pass(wl, outdir))
    result["passes"] = passes
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    result["ext_disagreement"] = micro.disagreement(args.seed)
    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    result["backend"] = _kernels.BACKEND
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
