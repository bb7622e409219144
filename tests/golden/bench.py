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
  `solve` defaults (full diagnostics), solved ROUNDS times in a fresh
  child process of its own, so that no other instance's solves reach
  its times and faults. Per instance: the wall time and the minor
  page faults (`ru_minflt`) of each round, the verdict, steps, Newton
  total, and the GMRES calls, matvecs and largest matvec count of one
  solve, counted by a wrapper on `continuation.gmres`. The counts must
  repeat across rounds; the times and faults need not.
- `rank3`: the same summary, from a child process of its own, for a
  rank-3 split problem on the 32 x 32 torus, solved with
  `full_diagnostics=False`: rank2-caseb with one more degree-one
  summand (`rank3_split`), whose solution is the direct sum of a
  rank-1 solve and the identity.
- `tier1`: the wall time and the passed and failed counts of the
  Tier-1 suite (`python -m pytest -q` with `src` on the path).
- `src_lines`: the line count of `src/vortexpair/*.py`.
- `src_code_lines`: the code lines of `src/vortexpair/*.py`, per
  module and in total: the lines that hold a token other than a
  comment and lie outside every module, class and function docstring.
- `machine`: platform, core counts and versions.

The steps run one after another, so that none times another's load.
"""

import argparse
import ast
import functools
import glob
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import tokenize
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from vortexpair import continuation, instances  # noqa: E402
from vortexpair.geometry import TorusBackend  # noqa: E402
from vortexpair.pair import PairProblem, SplitModel  # noqa: E402

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


def rank3_split(n=32):
    """rank2-caseb's split problem with one more degree-one summand."""
    return PairProblem(TorusBackend(n), 3,
                       np.diag([0.0, 2.0 * math.pi, 2.0 * math.pi]),
                       [1.0, 0.0, 0.0], 4.0 * math.pi,
                       split=SplitModel((0.0, 1.0, 1.0), 0))


RANK3 = "rank3-split"


def child_row(name):
    """The solve_rounds summary of one problem: the shipped instance
    called name with the solve defaults, or RANK3 without diagnostics."""
    if name == RANK3:
        return solve_rounds(rank3_split, continuation.ContinuationConfig(
            full_diagnostics=False))
    return solve_rounds(functools.partial(instances.make, name))


def row_in_child(name):
    """child_row(name), computed in a fresh Python process."""
    code = ("import json, sys; sys.path.insert(0, %r); import bench; "
            "json.dump(bench.child_row(%r), sys.stdout)" % (HERE, name))
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout)


def solve_rounds(make, cfg=None):
    """The summary of ROUNDS solves of the problem make() with the
    configuration cfg (the solve defaults when None)."""
    gmres, row = continuation.gmres, None
    try:
        for rnd in range(ROUNDS):
            tally = dict(gmres_calls=0, gmres_matvecs=0, gmres_max_matvecs=0)
            continuation.gmres = counting_gmres(gmres, tally)
            p = make()
            f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            rep = continuation.run_continuation(p, cfg).report
            wall = time.perf_counter() - t0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
            counts = dict(tally, verdict=rep.verdict, steps=len(rep.trace),
                          newton_total=rep.newton_total,
                          grid=list(p.geom.shape))
            if row is None:
                row = dict(counts, wall_s=[], minflt=[])
            if any(row[key] != val for key, val in counts.items()):
                raise RuntimeError("round %d counted %r, round 0 %r"
                                   % (rnd, counts, row))
            row["wall_s"].append(wall)
            row["minflt"].append(faults)
    finally:
        continuation.gmres = gmres
    row["wall_s"] = {"best": min(row["wall_s"]), "values": row["wall_s"]}
    return row


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


def code_lines(text):
    """The number of lines of Python source text that hold a token other
    than a comment, leaving out the docstrings."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docs.update(range(doc.lineno, doc.end_lineno + 1))
    blank = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in blank:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def src_code_lines():
    """{module: code lines} of src/vortexpair/*.py, with the sum under
    "total"."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(SRC, "vortexpair", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            counts[os.path.basename(path)] = code_lines(fh.read())
    counts["total"] = sum(counts.values())
    return counts


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
    doc = {"machine": machine(), "src_lines": src_lines(),
           "src_code_lines": src_code_lines()}
    doc["instances"] = {name: row_in_child(name)
                        for name in instances.names()}
    doc["rank3"] = {RANK3: row_in_child(RANK3)}
    doc["perfbench"] = {"trace0_seed0": perfbench(0, 0, args.seconds),
                        "trace1_seed1": perfbench(1, 1, args.seconds)}
    doc["tier1"] = tier1()
    with open(args.outfile, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
