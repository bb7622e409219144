"""Time-to-verdict benchmark for vortexpair.

Usage, from the repository root:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--self-test]

Without --workload the three workloads run in turn. Each workload runs
in a fresh child process (perfbench/child.py) with the BLAS and OpenMP
thread pools pinned to one thread. Set-up time is the median over
several fresh processes of the time from process start to the first
solve being ready.

--trace 0 prints the end-to-end metrics (wall_s, cpu_s, setup_s,
peak_rss_mb); --trace 1 prints the per-layer metrics of a traced run.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines above it are the same
numbers for people, and the run metadata. --self-test runs each
workload against a corrupted expectation and fails unless every solve
is reported as failed.

See perfbench/README.md for the workloads, metrics and layer mapping.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

from metrics import END_TO_END, per_layer_units

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, "out")

WORKLOADS = ("rank2-solve", "rank1-sweep", "higgs0-certify")
SETUP_SAMPLES = 5        # fresh processes timed to "ready" per run
BLAS_THREADS = "1"
CHILD_TIMEOUT_S = 170.0  # whole budget for one workload's processes
EXT_AGREEMENT_TOL = 1e-10

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for key in BLAS_ENV:
        env[key] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env["PYTHONHASHSEED"] = "0"
    return env


def _left(deadline):
    return max(deadline - time.monotonic(), 0.0)


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def _timed_start(args, env, deadline, procs):
    """Start a child and wait for its `ready` line. Returns the process
    and the seconds from launch to ready; the process is appended to
    procs, which the caller stops."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py")]
                            + args, stdout=subprocess.PIPE, cwd=ROOT, env=env,
                            text=True)
    procs.append(proc)
    timer = threading.Timer(_left(deadline), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        raise BenchError("workload process failed during set-up")
    return proc, elapsed


def run_workload(name, seed, seconds, trace, corrupt=False):
    """Set-up samples plus one workload child. Returns a result dict."""
    os.makedirs(WORKDIR, exist_ok=True)
    env = child_env()
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    base = ["--workload", name, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--workdir", WORKDIR]
    if corrupt:
        base.append("--corrupt")
    setup = []
    procs = []
    try:
        for _ in range(SETUP_SAMPLES - 1):
            proc, elapsed = _timed_start(base + ["--setup-only"], env,
                                         deadline, procs)
            setup.append(elapsed)
            proc.wait(timeout=_left(deadline))
        proc, elapsed = _timed_start(base, env, deadline, procs)
        setup.append(elapsed)
        out, _ = proc.communicate(timeout=_left(deadline))
    except subprocess.TimeoutExpired:
        raise BenchError("workload %s exceeded %.0f s" % (name, CHILD_TIMEOUT_S))
    finally:
        for proc in procs:
            _stop(proc)
    if proc.returncode != 0:
        raise BenchError("workload %s exited with %d" % (name, proc.returncode))
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_samples"] = setup
    all_passes = res["passes"] + res.get("traced_passes", [])
    res["attempted"] = sum(p["attempted"] for p in all_passes)
    res["failed"] = sum(p["failed"] for p in all_passes)
    dis = res["ext_disagreement"]
    res["correct"] = (res["failed"] == 0
                      and (dis is None or dis <= EXT_AGREEMENT_TOL)
                      and (not trace or res["counts_repeat"]))
    return res


def end_to_end(res):
    passes = res["passes"]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(res["setup_samples"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def source_digest():
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "vortexpair")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith((".py", ".pyx")):
            h.update(fname.encode())
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def metadata(name, seed, res, trace):
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "versions": res["versions"],
        "kernel_backend": res["backend"],
        "ext_disagreement": res["ext_disagreement"],
        "blas_threads": {key: BLAS_THREADS for key in BLAS_ENV},
        "attempted_solves": res["attempted"],
        "failed_solves": res["failed"],
        "passes": len(res["passes"]),
        "setup_samples": len(res["setup_samples"]),
        "inputs": res["inputs"],
    }


def report(name, seed, res, trace, units):
    metrics = res["layers"] if trace else end_to_end(res)
    print("workload %s  seed %d  backend %s  blas threads %s  trace %d"
          % (name, seed, res["backend"], BLAS_THREADS, trace))
    for key, val in metrics.items():
        print("  %-40s %14.6g %s" % (key, val, units[key]))
    frac = res["failed"] / res["attempted"]
    print("  %-40s %14.6g (%d of %d solves failed)"
          % ("failed_frac", frac, res["failed"], res["attempted"]))
    if trace:
        print("  counts repeat exactly across two traced passes: %s%s"
              % (res["counts_repeat"], "" if res["counts_repeat"]
                 else " (differ: %s)" % ", ".join(res["count_mismatch"])))
    meta = metadata(name, seed, res, trace)
    print("meta " + json.dumps(meta, sort_keys=True))
    with open(os.path.join(WORKDIR, "result-%s-seed%d-trace%d.json"
                           % (name, seed, trace)), "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": metrics, "correct": res["correct"],
                   "passes": res["passes"],
                   "traced_passes": res.get("traced_passes", []),
                   "setup_samples": res["setup_samples"]},
                  fh, indent=1, sort_keys=True)
    return metrics


def self_test(names, seed):
    ok = True
    for name in names:
        res = run_workload(name, seed, 0.0, 0, corrupt=True)
        caught = (not res["correct"] and res["attempted"] > 0
                  and res["failed"] == res["attempted"])
        print("self-test %-16s corrupted expectation -> %d of %d solves "
              "failed: %s" % (name, res["failed"], res["attempted"],
                              "ok" if caught else "MISSED"))
        ok = ok and caught
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="one workload (default: all three in turn)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measuring time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    # a terminated run still stops its child processes (finally blocks)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    if not os.path.isfile(os.path.join(SRC, "vortexpair", "__init__.py")):
        print("error: no vortexpair sources under %s" % SRC, file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        if args.self_test:
            return self_test(names, args.seed)
        units = per_layer_units() if args.trace else END_TO_END
        results = {}
        for name in names:
            res = run_workload(name, args.seed, args.seconds, args.trace)
            results[name] = (res, report(name, args.seed, res, args.trace, units))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    def tag(name, key):
        return key if len(names) == 1 else "%s.%s" % (name, key)
    summary = {
        "correct": all(res["correct"] for res, _ in results.values()),
        "attempted": sum(res["attempted"] for res, _ in results.values()),
        "failed": sum(res["failed"] for res, _ in results.values()),
        "metrics": {tag(name, key): {"value": val, "unit": units[key]}
                    for name, (_, metrics) in results.items()
                    for key, val in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
