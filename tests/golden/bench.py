"""Write a BENCH file: the end-to-end and per-layer numbers of one
checkout on one machine, as one JSON document.

    python tests/golden/bench.py OUTFILE [--seconds S]

Run from any directory of a checkout; it takes a few minutes on 2
cores. The document holds, under these keys:

- `perfbench`: `perfbench/run.py --trace 0 --seed 0` (S measuring
  seconds per workload, 20 by default) and `--trace 1 --seed 1`, for
  the three workloads. Per workload: perfbench's `meta` block, the
  median and quartiles of every per-pass `wall_s` and `cpu_s` and of
  the set-up samples, with every value kept; the traced run's
  per-layer metrics.
- `instances`: every shipped instance at its default grid with the
  `solve` defaults (full diagnostics), solved ROUNDS times in this one
  process. Per instance: the wall time and the minor page faults
  (`ru_minflt`) of each round, the verdict, steps, Newton total, and
  the GMRES calls, matvecs and largest matvec count of one solve,
  counted by a wrapper on `continuation.gmres`. The counts must repeat
  across rounds; the times and faults need not.
- `tier1`: the wall time and the passed and failed counts of the
  Tier-1 suite (`python -m pytest -q` with `src` on the path).
- `src_lines`: the line count of `src/vortexpair/*.py`.
- `machine`: platform, core counts and versions.

The steps run one after another, so that none times another's load.
"""

import argparse
import glob
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from vortexpair import continuation, instances  # noqa: E402

WORKLOADS = ("rank2-solve", "rank1-sweep", "higgs0-certify")
ROUNDS = 2


def spread(values):
    """Median, quartiles and every value of a list of samples."""
    vals = sorted(values)
    if len(vals) > 1:
        q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    else:
        q1 = q3 = vals[0]
    return {"median": statistics.median(vals), "q1": q1, "q3": q3,
            "values": list(values)}


def perfbench(trace, seed, seconds):
    """{workload: summary} of one perfbench run over the three
    workloads, read from the result files it writes."""
    out = os.path.join(ROOT, "perfbench", "out")
    paths = {name: os.path.join(out, "result-%s-seed%d-trace%d.json"
                                % (name, seed, trace))
             for name in WORKLOADS}
    for path in paths.values():
        if os.path.exists(path):
            os.remove(path)
    subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                    "--trace", str(trace), "--seed", str(seed),
                    "--seconds", repr(seconds)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    summary = {}
    for name, path in paths.items():
        with open(path, encoding="utf-8") as fh:
            res = json.load(fh)
        passes = res["traced_passes"] if trace else res["passes"]
        summary[name] = {
            "meta": res["meta"],
            "correct": res["correct"],
            "wall_s": spread([p["wall_s"] for p in passes]),
            "cpu_s": spread([p["cpu_s"] for p in passes]),
            "setup_s": spread(res["setup_samples"]),
        }
        key = "layers" if trace else "end_to_end"
        summary[name][key] = res["metrics"]
    return summary


def counting_gmres(gmres, tally):
    """gmres, counting its calls and the matvecs of its operator."""
    def solve(amat, b, *args):
        spent = [0]

        def matvec(x):
            spent[0] += 1
            return amat.matvec(x)

        out = gmres(SimpleNamespace(matvec=matvec), b, *args)
        tally["gmres_calls"] += 1
        tally["gmres_matvecs"] += spent[0]
        tally["gmres_max_matvecs"] = max(tally["gmres_max_matvecs"],
                                         spent[0])
        return out
    return solve


def shipped_instances():
    """{instance: summary} of the default-grid solves, ROUNDS each."""
    gmres, rows = continuation.gmres, {}
    try:
        for rnd in range(ROUNDS):
            for name in instances.names():
                tally = dict(gmres_calls=0, gmres_matvecs=0,
                             gmres_max_matvecs=0)
                continuation.gmres = counting_gmres(gmres, tally)
                p = instances.make(name)
                f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                t0 = time.perf_counter()
                rep = continuation.run_continuation(p).report
                wall = time.perf_counter() - t0
                faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                          - f0)
                counts = dict(tally, verdict=rep.verdict,
                              steps=len(rep.trace),
                              newton_total=rep.newton_total,
                              grid=list(p.geom.shape))
                row = rows.setdefault(name, dict(counts, wall_s=[],
                                                 minflt=[]))
                if any(row[key] != val for key, val in counts.items()):
                    raise RuntimeError("%s: round %d counted %r, round 0 %r"
                                       % (name, rnd, counts, row))
                row["wall_s"].append(wall)
                row["minflt"].append(faults)
    finally:
        continuation.gmres = gmres
    for row in rows.values():
        row["wall_s"] = {"best": min(row["wall_s"]), "values": row["wall_s"]}
    return rows


def tier1():
    """Wall time and outcome counts of the Tier-1 suite."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    last = done.stdout.strip().splitlines()[-1]
    counts = {word: int(num) for num, word in
              re.findall(r"(\d+) (passed|failed|errors?|skipped)", last)}
    return {"wall_s": wall, "summary": last, "exit_code": done.returncode,
            **counts}


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(SRC, "vortexpair", "*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def machine():
    return {"platform": platform.platform(), "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("outfile")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring seconds per untraced workload")
    args = ap.parse_args(argv)
    doc = {"machine": machine(), "src_lines": src_lines()}
    doc["instances"] = shipped_instances()
    doc["perfbench"] = {"trace0_seed0": perfbench(0, 0, args.seconds),
                        "trace1_seed1": perfbench(1, 1, args.seconds)}
    doc["tier1"] = tier1()
    with open(args.outfile, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
