"""Command line surface: config files, subcommands, artifacts, exit codes.

Everything runs in process through main(argv) with tmp_path output
directories; solves use grid 16 and --quick so the whole file stays
fast.
"""

import argparse
import json
import math
import os
import re
import shutil

import pytest

from vortexpair import __version__, reporting
from vortexpair.cli import (EXIT_FAIL, EXIT_OK, EXIT_SCIENCE, build_config,
                            main, parse_config, quick_grid, resolve_out)
from vortexpair.geometry import HopfBackend, TorusBackend

FOUR_PI = 4.0 * math.pi


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


# ---------------------------------------------------------------------------
# option resolution

def test_out_precedence(tmp_path, monkeypatch):
    args = argparse.Namespace(out="flagdir")
    monkeypatch.setenv("VORTEXPAIR_OUT", "envdir")
    assert resolve_out(args, {"out": "confdir"}) == "flagdir"
    args.out = None
    assert resolve_out(args, {"out": "confdir"}) == "envdir"
    monkeypatch.delenv("VORTEXPAIR_OUT")
    assert resolve_out(args, {"out": "confdir"}) == "confdir"
    assert resolve_out(args, {}) == os.path.join(".", "out")


def test_quick_grid_and_config_defaults():
    assert quick_grid("hopf-stable") == 128
    assert quick_grid("hopf-wave") == 128
    assert quick_grid("trivial") == 32
    assert quick_grid("rank2-caseb") == 32
    args = argparse.Namespace(quick=True, eps_min=None, ratio=None,
                              newton_tol=None, linear_rtol=None, cap=None)
    cfg = build_config(args, {})
    assert cfg.eps_min == pytest.approx(1e-2)
    assert cfg.full_diagnostics is False
    args.eps_min = 1e-3  # explicit flag beats the quick default
    assert build_config(args, {}).eps_min == pytest.approx(1e-3)


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


def test_main_unknown_instance_in_config(tmp_path, capsys):
    p = tmp_path / "run.cfg"
    p.write_text("instance = moebius\n")
    rc = main(["solve", "--config", str(p)])
    err = capsys.readouterr().err
    assert rc == EXIT_FAIL
    assert "unknown instance" in err


def test_main_no_instance(capsys):
    rc = main(["solve"])
    err = capsys.readouterr().err
    assert rc == EXIT_FAIL
    assert "no instance given" in err


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


def test_report_missing_trace(tmp_path, capsys):
    rc = main(["report", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_FAIL
    assert "no trace.csv" in out


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


def test_sweep_bracket_error(tmp_path, capsys):
    # degree zero: any positive tau converges, so the bracket is bad
    rc = main(["sweep-tau", "--instance", "trivial", "--grid", "16",
               "--quick", "--tau-lo", "1.5", "--tau-hi", "2.5",
               "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_FAIL
    assert "bracket error: both endpoints converge" in out


def test_sweep_needs_ordered_bracket(capsys):
    rc = main(["sweep-tau", "--instance", "trivial", "--tau-lo", "3",
               "--tau-hi", "1"])
    err = capsys.readouterr().err
    assert rc == EXIT_FAIL
    assert "tau_lo < tau_hi" in err


# ---------------------------------------------------------------------------
# stability

def test_stability_report_json(tmp_path, capsys):
    rc = main(["stability", "--instance", "rank2-extension", "--grid", "16",
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
    rc = main(["stability", "--instance", "higgs-nilpotent", "--grid", "16",
               "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_FAIL
    assert "declares no split model" in out


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
