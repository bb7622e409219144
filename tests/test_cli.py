"""Command line surface: config files, subcommands, artifacts, exit codes.

Everything runs in process through main(argv) with tmp_path output
directories; solves use grid 16 and --quick so the whole file stays
fast. The runtime-dependency check alone starts a fresh interpreter,
since the test process has scipy imported already.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys
from xml.dom import minidom

import numpy as np
import pytest

from vortexpair import (__version__, _kernels, cli, continuation, fiber,
                        instances, reporting)
from vortexpair.cli import (EXIT_FAIL, EXIT_OK, EXIT_SCIENCE, build_config,
                            build_parser, main, parse_config,
                            resolve_settings)
from vortexpair.continuation import ContinuationConfig, run_continuation
from vortexpair.geometry import BACKENDS, HopfBackend, TorusBackend

FOUR_PI = 4.0 * math.pi
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def _solve_trivial(outdir, grid=16):
    return main(["solve", "--instance", "trivial", "--grid", str(grid),
                 "--quick", "--out", str(outdir)])


# ---------------------------------------------------------------------------
# config file parsing

def test_config_values_comments_types(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("# full line comment\n"
                 "instance = trivial   # trailing comment\n"
                 "grid=16\n"
                 "\n"
                 "tau = 2.5\n"
                 "out = runs\n")
    conf = parse_config(str(p))
    assert conf == {"instance": "trivial", "grid": 16, "tau": 2.5,
                    "out": "runs"}
    assert isinstance(conf["grid"], int)
    assert isinstance(conf["tau"], float)


def test_config_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("wavelength = 3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config(str(p))


def test_config_rejects_a_repeated_key(tmp_path, capsys):
    # a key set twice is most likely a mistake, so neither line wins
    p = tmp_path / "dup.cfg"
    p.write_text("instance = trivial\ninstance = bogus\n")
    with pytest.raises(ValueError) as exc:
        parse_config(str(p))
    want = "%s:2: duplicate key 'instance' (first set on line 1)" % p
    assert str(exc.value) == want
    assert main(["stability", "--config", str(p)]) == EXIT_FAIL
    assert capsys.readouterr().err == "error: %s\n" % want


def test_config_bad_value(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("grid = sixteen\n")
    with pytest.raises(ValueError, match="bad value"):
        parse_config(str(p))


def test_config_missing_equals(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("quick\n")
    with pytest.raises(ValueError, match="expected key = value"):
        parse_config(str(p))


@pytest.mark.parametrize("key", ["out", "instance"])
def test_config_rejects_an_empty_value(tmp_path, monkeypatch, capsys, key):
    # an empty value is an error, not "unset": out = would write into the
    # working directory, and instance = would fail later as if no
    # instance were given
    monkeypatch.chdir(tmp_path)
    p = tmp_path / "e.conf"
    p.write_text("grid = 16\n%s =\n" % key)
    flags = ["--instance", "trivial"] if key == "out" else []
    rc = main(["solve", "--config", str(p), "--quick"] + flags)
    err = capsys.readouterr().err
    assert rc == EXIT_FAIL
    assert err.startswith("error: %s:2: empty value" % p), err
    assert os.listdir(tmp_path) == ["e.conf"]


# ---------------------------------------------------------------------------
# option resolution

def _settings(*argv):
    args = build_parser().parse_args(["solve"] + list(argv))
    resolve_settings(args)
    return args


def test_out_precedence(tmp_path, monkeypatch):
    conf = tmp_path / "run.cfg"
    conf.write_text("instance = trivial\nout = confdir\n")
    monkeypatch.setenv("VORTEXPAIR_OUT", "envdir")
    assert _settings("--config", str(conf), "--out", "flagdir").out == "flagdir"
    assert _settings("--config", str(conf)).out == "envdir"
    monkeypatch.delenv("VORTEXPAIR_OUT")
    assert _settings("--config", str(conf)).out == "confdir"
    assert _settings("--instance", "trivial").out == os.path.join(".", "out")


def test_quick_grid_and_config_defaults():
    assert instances.quick_grid("hopf-stable") == 128
    assert instances.quick_grid("hopf-wave") == 128
    assert instances.quick_grid("trivial") == 32
    assert instances.quick_grid("rank2-caseb") == 32
    args = _settings("--instance", "hopf-stable", "--quick")
    assert args.grid == 128
    cfg = build_config(args)
    assert cfg.eps_min == pytest.approx(1e-2)
    assert cfg.full_diagnostics is False
    # explicit flags beat the quick defaults
    args = _settings("--instance", "hopf-stable", "--quick", "--grid", "64",
                     "--eps-min", "1e-3")
    assert args.grid == 64
    assert build_config(args).eps_min == pytest.approx(1e-3)


def test_every_registry_row_sets_grid_tau_and_quick_grid():
    for name, (base, _, tau, _) in instances.REGISTRY.items():
        p = instances.make(name)
        assert type(p.geom) is BACKENDS[base], name
        assert p.geom.n == BACKENDS[base].default_n, name
        # a Higgs instance takes its table default as lam
        got = p.lam if name.startswith("higgs") else p.tau
        assert got == tau, name
        quick = 128 if name.startswith("hopf-") else 32
        assert instances.quick_grid(name) == quick, name


# ---------------------------------------------------------------------------
# solve

def test_solve_trivial_artifacts(tmp_path, capsys):
    rc = _solve_trivial(tmp_path)
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "trivial: verdict=converged" in out
    assert "wrote" in out
    base = tmp_path / "trivial"
    assert (base / "run.svg").exists()
    header = (base / "trace.csv").read_text().splitlines()[0]
    assert header.split(",") == reporting.CSV_COLUMNS
    doc = json.loads((base / "run.json").read_text())
    assert doc["schema"] == "vortexpair-run-1"
    assert doc["instance"] == "trivial"
    assert doc["result"]["verdict"] == "converged"
    assert doc["config"]["eps_min"] == pytest.approx(1e-2)
    assert doc["trace_tail"]["eps"] == 0.0


def test_run_json_ritz_floor(tmp_path):
    # the eps = 0 polish record carries no probe, so a converged run's
    # trace tail has min_ritz null; ritz_floor is the minimum over the
    # probed records, and null when nothing was probed
    p = instances.make("trivial", n=16)
    for full in (True, False):
        cfg = ContinuationConfig(eps_min=1e-2, full_diagnostics=full)
        out = run_continuation(p, cfg)
        assert out.verdict == "converged"
        paths = reporting.write_run_outputs(str(tmp_path / str(full)),
                                            "trivial", out, cfg)
        with open(paths["json"], "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["schema"] == "vortexpair-run-1"
        assert doc["trace_tail"]["eps"] == 0.0
        assert doc["trace_tail"]["min_ritz"] is None
        probed = [r.min_ritz for r in out.report.trace if r.eps > 0.0]
        if full:
            assert len(probed) == len(out.report.trace) - 1
            assert doc["ritz_floor"] == min(probed)
            assert abs(doc["ritz_floor"] - 1.0) < 1e-3
        else:
            assert all(math.isnan(r) for r in probed)
            assert doc["ritz_floor"] is None


def test_solve_repeat_runs_byte_identical(tmp_path):
    assert _solve_trivial(tmp_path / "a") == EXIT_OK
    assert _solve_trivial(tmp_path / "b") == EXIT_OK
    for name in ("trace.csv", "run.svg"):
        ba = (tmp_path / "a" / "trivial" / name).read_bytes()
        bb = (tmp_path / "b" / "trivial" / name).read_bytes()
        assert ba == bb, name


def test_solve_unstable_science_exit(tmp_path, capsys):
    rc = main(["solve", "--instance", "torus-unstable", "--grid", "16",
               "--quick", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_SCIENCE
    assert "verdict=diverged" in out
    assert "cap at eps" in out


def test_solve_env_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("VORTEXPAIR_OUT", str(tmp_path / "envout"))
    rc = main(["solve", "--instance", "trivial", "--grid", "16", "--quick"])
    assert rc == EXIT_OK
    assert (tmp_path / "envout" / "trivial" / "run.json").exists()


def test_solve_from_config_file(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text("instance = trivial\ngrid = 16\neps_min = 1e-1\n"
                 "out = %s\n" % (tmp_path / "conf-out"))
    rc = main(["solve", "--config", str(p)])
    capsys.readouterr()
    assert rc == EXIT_OK
    doc = json.loads((tmp_path / "conf-out" / "trivial" /
                      "run.json").read_text())
    assert doc["config"]["eps_min"] == pytest.approx(0.1)
    # flag beats config
    rc = main(["solve", "--config", str(p), "--eps-min", "0.5",
               "--out", str(tmp_path / "flag-out")])
    capsys.readouterr()
    assert rc == EXIT_OK
    doc = json.loads((tmp_path / "flag-out" / "trivial" /
                      "run.json").read_text())
    assert doc["config"]["eps_min"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# error paths through main

def test_main_bad_config_exit(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("wavelength = 3\n")
    rc = main(["solve", "--config", str(p)])
    err = capsys.readouterr().err
    assert rc == EXIT_FAIL
    assert err.startswith("error:")


@pytest.mark.parametrize("flags", [[], ["--quick"]],
                         ids=["default", "quick"])
def test_main_unknown_instance_in_config(tmp_path, capsys, flags):
    # --quick looks up the quick grid before the instance is built; both
    # lookups must name the shipped instances in the plain error line
    p = tmp_path / "run.cfg"
    p.write_text("instance = moebius\n")
    rc = main(["solve", "--config", str(p)] + flags)
    err = capsys.readouterr().err
    assert rc == EXIT_FAIL
    assert err == ("error: unknown instance 'moebius'; shipped: %s\n"
                   % ", ".join(instances.names()))


def test_main_no_instance(capsys):
    rc = main(["solve"])
    err = capsys.readouterr().err
    assert rc == EXIT_FAIL
    assert "no instance given" in err


@pytest.mark.parametrize("argv, cause", [
    (["--instance", "trivial", "--eps-min", "nan"], "eps_min"),
    (["--instance", "trivial", "--eps-min", "5"], "eps_min"),
    (["--instance", "torus-stable", "--tau", "inf"], "tau"),
    (["--instance", "torus-stable", "--tau", "nan"], "tau"),
    (["--instance", "trivial", "--grid", "0"], "grid"),
    (["--instance", "hopf-stable", "--grid", "2"], "grid"),
], ids=["eps-min-nan", "eps-min-5", "tau-inf", "tau-nan", "grid-0",
        "hopf-grid-2"])
def test_solve_rejects_bad_numbers(tmp_path, capsys, argv, cause):
    rc = main(["solve", "--quick", "--out", str(tmp_path)] + argv)
    err = capsys.readouterr().err
    assert rc == EXIT_FAIL
    assert err.startswith("error:") and cause in err


def test_solve_rejects_a_schedule_of_too_many_stops(tmp_path, capsys):
    # about 693k stops: refused before any solve starts
    p = tmp_path / "run.cfg"
    p.write_text("ratio = 0.999999\neps_min = 0.5\n")
    rc = main(["solve", "--instance", "trivial", "--config", str(p),
               "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_FAIL
    assert err == ("error: ratio 0.999999 needs over 10000 stops to "
                   "eps_min 0.5\n")
    assert list(tmp_path.iterdir()) == [p]  # nothing written


def test_solve_rejects_a_cap_past_the_float_range(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text("cap = 1000\n")
    rc = main(["solve", "--instance", "torus-unstable", "--config", str(p),
               "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_FAIL
    assert err == ("error: cap 1000.0 must be below log(float max) = "
                   "709.783, where exp(s) overflows\n")
    assert list(tmp_path.iterdir()) == [p]  # nothing written


def test_solve_rejects_an_infinite_tolerance(tmp_path, capsys):
    # an input error, not a scientific verdict: with this tolerance every
    # residual would count as converged
    p = tmp_path / "run.cfg"
    p.write_text("newton_tol = inf\n")
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(p), "--instance", "torus-unstable",
               "--quick", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == EXIT_FAIL
    assert err.startswith("error:") and "newton_tol" in err
    assert not out.exists()


def test_parser_rejects_unknown_instance_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["solve", "--instance", "moebius"])
    assert ei.value.code == 2
    capsys.readouterr()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0
    assert __version__ in capsys.readouterr().out


# ---------------------------------------------------------------------------
# report

def test_report_rebuilds_identical_svg(tmp_path, capsys):
    _solve_trivial(tmp_path)
    rundir = tmp_path / "trivial"
    orig = (rundir / "run.svg").read_bytes()
    (rundir / "run.svg").unlink()
    rc = main(["report", str(rundir)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "instance=trivial verdict=converged" in out
    assert (rundir / "run.svg").read_bytes() == orig


def test_report_without_json_titles_by_dirname(tmp_path, capsys):
    _solve_trivial(tmp_path)
    d = tmp_path / "strays"
    d.mkdir()
    shutil.copy(tmp_path / "trivial" / "trace.csv", d / "trace.csv")
    rc = main(["report", str(d)])
    capsys.readouterr()
    assert rc == EXIT_OK
    assert ">strays</text>" in (d / "run.svg").read_text()


def test_report_escapes_the_title(tmp_path, capsys):
    # the directory name is the title; XML markup in it stays text
    _solve_trivial(tmp_path)
    d = tmp_path / "a&b<c>"
    d.mkdir()
    shutil.copy(tmp_path / "trivial" / "trace.csv", d / "trace.csv")
    assert main(["report", str(d)]) == EXIT_OK
    capsys.readouterr()
    doc = minidom.parse(str(d / "run.svg"))
    title = doc.getElementsByTagName("text")[0]
    assert title.firstChild.data == "a&b<c>"


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_the_plot_skips_values_that_are_not_finite(bad):
    # a residual that overflowed (tau = 1e300 on hopf-stable at n = 3)
    # once raised OverflowError from the axis label; the axes span the
    # finite values, and only finite points are drawn
    header = ",".join(reporting.CSV_COLUMNS)
    rows = ["1,1e-3,0.5,-1,0,0,0", "0.5,%s,%s,-1,0,0,3" % (bad, bad)]
    svg = reporting.svg_from_csv("\n".join([header] + rows) + "\n")
    doc = minidom.parseString(svg)
    for line in doc.getElementsByTagName("polyline"):
        assert len(line.getAttribute("points").split()) == 1
    assert "inf" not in svg and "nan" not in svg


def test_failed_gauge_outcome_writes_its_report(tmp_path):
    # a run whose initial gauge failed has no trace: the CSV is the
    # header alone and run.json has no trace tail
    cfg = ContinuationConfig(eps_min=1e-2, full_diagnostics=False)
    out = run_continuation(instances.make("trivial", n=16), cfg, h_start=-1.0)
    paths = reporting.write_run_outputs(str(tmp_path), "trivial", out, cfg)
    with open(paths["json"], "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["result"]["verdict"] == "failed"
    assert doc["result"]["steps"] == 0 and doc["trace_tail"] is None
    with open(paths["csv"], "r", encoding="utf-8") as fh:
        assert fh.read() == ",".join(reporting.CSV_COLUMNS) + "\n"
    assert os.path.getsize(paths["svg"]) > 0


def test_solve_rejected_rebased_section_is_a_failed_verdict(tmp_path, capsys):
    # at grid 16 the rebased torus-wave section misses the clone's
    # holomorphy tolerance: the gauge fails, and the run still reports
    rc = main(["solve", "--instance", "torus-wave", "--grid", "16",
               "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_FAIL
    assert "torus-wave: verdict=failed" in out
    doc = json.loads((tmp_path / "torus-wave" / "run.json").read_text())
    assert doc["result"]["verdict"] == "failed"
    cause = doc["result"]["cause"]
    assert cause.startswith("gauge: GaugeDomainError: "), cause
    assert "section is not holomorphic" in cause
    assert doc["result"]["steps"] == 0


def test_report_missing_trace(tmp_path, capsys):
    rc = main(["report", str(tmp_path)])
    cap = capsys.readouterr()
    assert rc == EXIT_FAIL
    assert cap.out == ""
    assert cap.err == "error: no trace.csv under %s\n" % tmp_path


@pytest.mark.parametrize("body,what", [
    ("", "trace.csv is empty"),
    ("\n\n", "trace.csv is empty"),
    ("1,2,3\n", "trace.csv row 1 has 3 fields, the header 7"),
    ("1,2,3,4,5,6,7\n1,2,3,4,5,6,7,8\n",
     "trace.csv row 2 has 8 fields, the header 7"),
], ids=["empty", "blank", "short-row", "long-row"])
def test_report_rejects_a_malformed_trace(tmp_path, capsys, body, what):
    # an empty file or a row whose length is not the header's is an
    # input error with a message, not a traceback
    text = body if not body.strip() else ",".join(reporting.CSV_COLUMNS) \
        + "\n" + body
    (tmp_path / "trace.csv").write_text(text, encoding="utf-8")
    rc = main(["report", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_FAIL
    assert err == "error: %s\n" % what
    assert not (tmp_path / "run.svg").exists()


@pytest.mark.parametrize("name,body,what", [
    ("trace.csv", "a,b,c\n1,2,3\n", "unexpected trace columns: a,b,c"),
    ("run.json", "[]", "run.json is not a run report object"),
    ("run.json", '{"result": 5}', "run.json is not a run report object"),
], ids=["trace-header", "json-list", "json-result"])
def test_report_rejects_a_malformed_run(tmp_path, capsys, name, body, what):
    # a run directory whose other file is well formed
    (tmp_path / "trace.csv").write_text(
        ",".join(reporting.CSV_COLUMNS) + "\n1,0,0,0,0,0,0\n",
        encoding="utf-8")
    (tmp_path / name).write_text(body, encoding="utf-8")
    rc = main(["report", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == EXIT_FAIL
    assert err == "error: %s\n" % what
    assert not (tmp_path / "run.svg").exists()


# ---------------------------------------------------------------------------
# sweep-tau

def test_sweep_threshold_brackets_window_edge(tmp_path, capsys):
    rc = main(["sweep-tau", "--instance", "torus-stable", "--grid", "16",
               "--quick", "--tau-lo", "10", "--tau-hi", "14",
               "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "threshold estimate" in out
    doc = json.loads((tmp_path / "torus-stable-sweep" /
                      "sweep.json").read_text())
    assert doc["schema"] == "vortexpair-sweep-1"
    assert doc["relative_width"] <= 0.0101
    lo, hi = doc["bracket"]
    assert lo <= FOUR_PI <= hi
    # measured at grid 16: estimate 12.5625, off the analyzer edge by 0.03%
    assert abs(doc["threshold"] - FOUR_PI) < 0.01 * FOUR_PI
    assert doc["analyzer"]["window"][0] == pytest.approx(FOUR_PI)
    assert doc["runs"][0]["tau"] == 10.0
    assert doc["runs"][0]["verdict"] != "converged"
    assert doc["runs"][1]["tau"] == 14.0
    assert doc["runs"][1]["verdict"] == "converged"


def test_sweep_runs_no_ritz_probe(tmp_path, capsys, monkeypatch):
    # sweep.json records only verdicts, so the bisection solves skip the
    # Ritz probe and still record what full-diagnostics solves find
    probes = []
    probe = continuation.min_ritz_estimate

    def counting(*args):
        probes.append(args[1])
        return probe(*args)
    monkeypatch.setattr(continuation, "min_ritz_estimate", counting)
    rc = main(["sweep-tau", "--instance", "torus-stable", "--grid", "16",
               "--eps-min", "0.1", "--tau-lo", "11", "--tau-hi", "14",
               "--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == EXIT_OK
    assert probes == []
    doc = json.loads((tmp_path / "torus-stable-sweep" /
                      "sweep.json").read_text())
    verdicts = set()
    for run in doc["runs"]:
        prob = instances.make("torus-stable", n=16, tau=run["tau"])
        rep = run_continuation(prob, ContinuationConfig(eps_min=0.1)).report
        assert (run["verdict"], run["sup_log_f"], run["eps_reached"]) == (
            rep.verdict, rep.final_sup_log_f, rep.eps_reached)
        verdicts.add(rep.verdict)
    assert probes and len(verdicts) == 2


def test_sweep_bracket_error(tmp_path, capsys):
    # degree zero: any positive tau converges, so the bracket is bad
    rc = main(["sweep-tau", "--instance", "trivial", "--grid", "16",
               "--quick", "--tau-lo", "1.5", "--tau-hi", "2.5",
               "--out", str(tmp_path)])
    cap = capsys.readouterr()
    assert rc == EXIT_FAIL
    assert cap.err == "error: both bracket endpoints converge\n"


def test_sweep_needs_ordered_bracket(capsys):
    rc = main(["sweep-tau", "--instance", "trivial", "--tau-lo", "3",
               "--tau-hi", "1"])
    cap = capsys.readouterr()
    assert rc == EXIT_FAIL
    assert cap.err == "error: sweep needs tau_lo < tau_hi\n"
    assert cap.out == ""


@pytest.mark.parametrize("bracket,flag", [
    ([], "--tau-lo"),
    (["--tau-hi", "3"], "--tau-lo"),
    (["--tau-lo", "1"], "--tau-hi"),
], ids=["neither", "no-low", "no-high"])
def test_sweep_names_the_missing_bracket_end(capsys, bracket, flag):
    rc = main(["sweep-tau", "--instance", "trivial"] + bracket)
    cap = capsys.readouterr()
    assert rc == EXIT_FAIL
    assert cap.err == "error: sweep-tau needs %s\n" % flag
    assert cap.out == ""


# ---------------------------------------------------------------------------
# stability

def test_stability_report_json(tmp_path, capsys):
    rc = main(["stability", "--instance", "rank2-extension",
               "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    doc = json.loads((tmp_path / "rank2-extension-stability" /
                      "stability.json").read_text())
    assert doc["schema"] == "vortexpair-stability-1"
    assert doc["instance"] == "rank2-extension"
    assert doc["tau"] == pytest.approx(3.0 * math.pi)
    assert doc["report"]["verdict"] == "tau-stable"
    assert '"verdict": "tau-stable"' in out


def test_stability_without_split_model(tmp_path, capsys):
    rc = main(["stability", "--instance", "higgs-nilpotent",
               "--out", str(tmp_path)])
    cap = capsys.readouterr()
    assert rc == EXIT_FAIL
    assert cap.err == ("error: higgs-nilpotent declares no split model; "
                       "nothing to audit\n")
    assert cap.out == ""


def test_stability_rejects_flags_it_does_not_read(capsys):
    # the report reads the split model, the volume and tau alone; grid,
    # schedule and --quick flags are an error, not a no-op
    for flag in (["--grid", "8"], ["--quick"], ["--eps-min", "0.1"]):
        with pytest.raises(SystemExit) as exc:
            main(["stability", "--instance", "rank2-extension"] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_stability_help_lists_its_flags(capsys):
    with pytest.raises(SystemExit):
        main(["stability", "--help"])
    flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert flags == {"--help", "--config", "--out", "--instance", "--tau"}


# ---------------------------------------------------------------------------
# verify

def test_verify_all_green(capsys):
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "all 8 verify checks passed" in out
    for name in ("fiber-roundtrip", "fiber-kernels", "geometry-calculus",
                 "geometry-max-principle", "pair-analyzer",
                 "continuation-trivial", "higgs-reduction",
                 "reporting-determinism"):
        assert name in out
    assert "FAIL" not in out


def test_verify_fiber_roundtrip_reaches_rank2_scalar_branch(monkeypatch):
    # a closed-form eigh whose scalar branch returns V = I / sqrt(2)
    # passes every random spectrum; only the repeated ones catch it
    eigh2 = _kernels._eigh2

    def broken(a):
        w, v = eigh2(a)
        scalar = (a[..., 1, 0] == 0) & (a[..., 0, 0] == a[..., 1, 1])
        v[scalar] = np.eye(2) / math.sqrt(2.0)
        return w, v

    monkeypatch.setattr(_kernels, "_eigh2", broken)
    ok, detail = cli._check_fiber_roundtrip(np.random.default_rng(0))
    assert not ok
    assert "log(exp(c I)) drifted" in detail


def test_verify_catches_a_swapped_dexp_kernel(monkeypatch, capsys):
    # e^y psi(x, y) in place of e^x psi(x, y): still symmetric and exact
    # on the diagonal, wrong everywhere else
    def swapped(x, y):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        a = np.exp(y) * fiber.psi_kernel(x, y)
        b = np.exp(x) * fiber.psi_kernel(y, x)
        return 0.5 * (a + b)

    monkeypatch.setattr(fiber, "dexp_kernel", swapped)
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == EXIT_FAIL
    assert re.search(r"fiber-kernels\s+FAIL", out)


def test_verify_rejects_flags_it_does_not_read(capsys):
    # verify reads only --seed; solver flags are an error, not a no-op
    for flag in (["--grid", "8"], ["--quick"], ["--config", "run.cfg"]):
        with pytest.raises(SystemExit) as exc:
            main(["verify"] + flag)
        assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_catches_sign_flip_drill(monkeypatch, capsys):
    # inject a sign error into the contraction of both backends
    for cls in (TorusBackend, HopfBackend):
        lam = cls.lam_dbar_10
        monkeypatch.setattr(cls, "lam_dbar_10",
                            lambda self, *a, lam=lam, **kw: -lam(self, *a, **kw))
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == EXIT_FAIL
    assert re.search(r"geometry-max-principle\s+FAIL", out)
    assert "verify check(s) failed" in out


# ---------------------------------------------------------------------------
# runtime dependencies

def test_runtime_imports_no_scipy(tmp_path):
    # the package depends on numpy alone; scipy is a test dependency
    code = ("import sys\n"
            "import vortexpair.cli\n"
            "rc = vortexpair.cli.main(['solve', '--instance', 'trivial', "
            "'--quick', '--out', sys.argv[1]])\n"
            "print(rc, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "%d []" % EXIT_OK, proc.stdout
