"""Run artifacts: trace CSV, report JSON, and a dependency-free SVG.

Output is byte deterministic for identical runs: fixed column order,
%.17g float formatting, LF newlines written in binary mode, no
timestamps inside the CSV (wall time lives in the JSON report only).
"""

import json
import math
import os

from .continuation import SCHEDULE_KEYS

CSV_COLUMNS = ["eps", "residual_sup", "sup_log_f", "apriori_margin",
               "energy_gap", "cauchy_increment", "newton_iters"]


def _g17(x):
    if isinstance(x, int):
        return "%d" % x
    return "%.17g" % float(x)


def trace_csv(trace):
    lines = [",".join(CSV_COLUMNS)]
    for rec in trace:
        lines.append(",".join(_g17(getattr(rec, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_text(path, text):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


def jsonable(obj):
    """JSON-safe copy: non-finite floats become strings, numpy scalars
    become python scalars."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        try:
            obj = obj.item()
        except (AttributeError, ValueError):
            pass
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


def dump_json(obj):
    return json.dumps(jsonable(obj), indent=2, sort_keys=True) + "\n"


def run_report(instance_name, cfg, outcome):
    rep = outcome.report
    tail = None  # a run whose initial gauge failed has no trace
    if rep.trace:
        last = rep.trace[-1]
        tail = {key: getattr(last, key) for key in (
            "eps", "residual_sup", "sup_log_f", "min_ritz", "skew_defect",
            "l2_log_f")}
    # the eps = 0 polish record carries no probe, so the tail's
    # min_ritz is null on a converged run; the floor is over the probes
    probed = [r.min_ritz for r in rep.trace if not math.isnan(r.min_ritz)]
    return {
        "schema": "vortexpair-run-1",
        "instance": instance_name,
        "config": {key: getattr(cfg, key) for key in SCHEDULE_KEYS},
        "result": rep.to_dict(),
        "trace_tail": tail,
        "ritz_floor": min(probed) if probed else None,
    }


# ---------------------------------------------------------------------------
# SVG rendering (no plotting dependency)

_W, _H = 640, 420
_PANEL = dict(left=62, right=614, top_a=28, bot_a=196, top_b=236, bot_b=398)


def _log10(v):
    return math.log10(max(abs(v), 1e-18))


def _xmap(eps_vals):
    pos = [e for e in eps_vals if e > 0]
    if not pos:
        pos = [1.0]
    zero_x = min(pos) / 4.0
    lo = _log10(zero_x)
    hi = _log10(max(pos))
    span = max(hi - lo, 1e-9)

    def fx(e):
        v = _log10(e if e > 0 else zero_x)
        t = (v - lo) / span
        return _PANEL["left"] + t * (_PANEL["right"] - _PANEL["left"])
    return fx, zero_x


def _ymap(vals, top, bot, logscale):
    # the axis spans the finite values; svg_from_csv draws no other
    tv = [t for t in (map(_log10, vals) if logscale else vals)
          if math.isfinite(t)]
    lo, hi = min(tv, default=0.0), max(tv, default=0.0)
    if hi - lo < 1e-12:
        hi = lo + 1.0
    span = hi - lo

    def fy(v):
        t = ((_log10(v) if logscale else v) - lo) / span
        return bot - t * (bot - top)
    return fy, lo, hi


def _polyline(points, color):
    pts = " ".join("%.2f,%.2f" % (x, y) for x, y in points)
    return ('<polyline fill="none" stroke="%s" stroke-width="1.5" '
            'points="%s"/>' % (color, pts))


def _dots(points, color):
    return "".join('<circle cx="%.2f" cy="%.2f" r="2.4" fill="%s"/>'
                   % (x, y, color) for x, y in points)


def svg_from_csv(csv_text, title="continuation run"):
    """The run plot of a trace CSV: two stacked panels against eps (log
    axis, the final eps = 0 point drawn at a pinned slot left of the
    smallest positive eps), residual sup norm (log scale) and sup|log f|
    (linear scale). %.17g round-trips every float, so the plot that solve
    writes and the one that report rebuilds are the same bytes."""
    lines = [ln for ln in csv_text.strip().split("\n") if ln]
    if not lines:
        raise ValueError("trace.csv is empty")
    header = lines[0].split(",")
    if header != CSV_COLUMNS:
        raise ValueError("unexpected trace columns: %s" % ",".join(header))
    rows = []
    for row, ln in enumerate(lines[1:], 1):
        vals = ln.split(",")
        if len(vals) != len(header):
            raise ValueError("trace.csv row %d has %d fields, the header %d"
                             % (row, len(vals), len(header)))
        rows.append(dict(zip(header, map(float, vals))))

    eps_vals = [r["eps"] for r in rows]
    res_vals = [max(r["residual_sup"], 1e-18) for r in rows]
    sup_vals = [r["sup_log_f"] for r in rows]
    fx, zero_x = _xmap(eps_vals)

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
             'viewBox="0 0 %d %d">' % (_W, _H, _W, _H),
             '<rect width="%d" height="%d" fill="white"/>' % (_W, _H),
             '<text x="%d" y="18" font-family="monospace" font-size="13">%s'
             '</text>' % (_PANEL["left"], title.replace("&", "&amp;")
                          .replace("<", "&lt;").replace(">", "&gt;"))]

    for key, vals, logscale, label, color in (
            ("a", res_vals, True, "residual sup", "#c0392b"),
            ("b", sup_vals, False, "sup |log f|", "#2d5fa3")):
        top, bot = _PANEL["top_" + key], _PANEL["bot_" + key]
        fy, lo, hi = _ymap(vals, top, bot, logscale)
        parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
                     'stroke="#888"/>' % (_PANEL["left"], top,
                                          _PANEL["right"] - _PANEL["left"],
                                          bot - top))
        pts = [(fx(e), fy(v)) for e, v in zip(eps_vals, vals)
               if math.isfinite(v)]
        parts.append(_polyline(pts, color))
        parts.append(_dots(pts, color))
        parts.append('<text x="%d" y="%d" font-family="monospace" '
                     'font-size="11" fill="%s">%s</text>'
                     % (_PANEL["left"] + 4, top + 14, color, label))
        fmt = (lambda v: "1e%d" % round(v)) if logscale else (lambda v: "%.3g" % v)
        parts.append('<text x="%d" y="%d" font-family="monospace" '
                     'font-size="10" text-anchor="end">%s</text>'
                     % (_PANEL["left"] - 4, bot, fmt(lo)))
        parts.append('<text x="%d" y="%d" font-family="monospace" '
                     'font-size="10" text-anchor="end">%s</text>'
                     % (_PANEL["left"] - 4, top + 10, fmt(hi)))

    # x ticks: decades of eps plus the pinned eps = 0 slot
    pos = sorted({round(_log10(e)) for e in eps_vals if e > 0})
    for d in pos:
        x = fx(10.0 ** d)
        parts.append('<line x1="%.2f" y1="%d" x2="%.2f" y2="%d" '
                     'stroke="#bbb"/>' % (x, _PANEL["bot_b"], x,
                                          _PANEL["bot_b"] + 5))
        parts.append('<text x="%.2f" y="%d" font-family="monospace" '
                     'font-size="10" text-anchor="middle">1e%d</text>'
                     % (x, _PANEL["bot_b"] + 16, d))
    if any(e == 0.0 for e in eps_vals):
        x = fx(0.0)
        parts.append('<text x="%.2f" y="%d" font-family="monospace" '
                     'font-size="10" text-anchor="middle">0</text>'
                     % (x, _PANEL["bot_b"] + 16))
    parts.append('<text x="%d" y="%d" font-family="monospace" font-size="11" '
                 'text-anchor="middle">eps</text>'
                 % ((_PANEL["left"] + _PANEL["right"]) // 2, _H - 4))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_run_outputs(outdir, name, outcome, cfg):
    """Writes trace.csv, run.json, run.svg under outdir/name/; the plot
    is drawn from the trace.csv text, as the report subcommand does."""
    base = os.path.join(outdir, name)
    paths = {}
    rep = outcome.report
    csv_text = trace_csv(rep.trace)
    paths["csv"] = os.path.join(base, "trace.csv")
    write_text(paths["csv"], csv_text)
    paths["json"] = os.path.join(base, "run.json")
    write_text(paths["json"], dump_json(run_report(name, cfg, outcome)))
    paths["svg"] = os.path.join(base, "run.svg")
    write_text(paths["svg"], svg_from_csv(
        csv_text, title="%s [%s]" % (name, rep.verdict)))
    return paths
