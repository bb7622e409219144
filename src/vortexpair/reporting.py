"""Run artifacts: trace CSV, report JSON, and a dependency-free SVG.

Output is byte deterministic for identical runs: fixed column order,
%.17g float formatting, LF newlines written in binary mode, no
timestamps inside the CSV (wall time lives in the JSON report only).
"""

import json
import math
import os

CSV_COLUMNS = ["eps", "residual_sup", "sup_log_f", "apriori_margin",
               "energy_gap", "cauchy_increment", "newton_iters"]


def _g17(x):
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return "%d" % x
    return "%.17g" % float(x)


def trace_csv(trace):
    lines = [",".join(CSV_COLUMNS)]
    for rec in trace:
        lines.append(",".join(_g17(v) for v in rec.row()))
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


def dump_json(obj, indent=2):
    return json.dumps(jsonable(obj), indent=indent, sort_keys=True) + "\n"


def run_report(instance_name, cfg, outcome):
    rep = outcome.report
    return {
        "schema": "vortexpair-run-1",
        "instance": instance_name,
        "config": {
            "eps_min": cfg.eps_min,
            "ratio": cfg.ratio,
            "newton_tol": cfg.newton_tol,
            "linear_rtol": cfg.linear_rtol,
            "cap": cfg.cap,
        },
        "result": rep.to_dict(),
        "trace_tail": {
            "eps": rep.trace[-1].eps,
            "residual_sup": rep.trace[-1].residual_sup,
            "sup_log_f": rep.trace[-1].sup_log_f,
            "min_ritz": rep.trace[-1].min_ritz,
            "skew_defect": rep.trace[-1].skew_defect,
            "l2_log_f": rep.trace[-1].l2_log_f,
        },
    }


# ---------------------------------------------------------------------------
# SVG rendering (no plotting dependency)

_W, _H = 640, 420
_PANEL = dict(left=62, right=614, top_a=28, bot_a=196, top_b=236, bot_b=398)


def _log10(v, floor=1e-18):
    return math.log10(max(abs(v), floor))


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
    if logscale:
        tv = [_log10(v) for v in vals]
    else:
        tv = list(vals)
    lo, hi = min(tv), max(tv)
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


def render_run_svg(trace, title="continuation run"):
    """Two stacked panels against eps (log axis, the final eps = 0 point
    drawn at a pinned slot left of the smallest positive eps): residual
    sup norm (log scale) and sup|log f| (linear scale)."""
    eps_vals = [r.eps for r in trace]
    res_vals = [max(r.residual_sup, 1e-18) for r in trace]
    sup_vals = [r.sup_log_f for r in trace]
    fx, zero_x = _xmap(eps_vals)

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
             'viewBox="0 0 %d %d">' % (_W, _H, _W, _H),
             '<rect width="%d" height="%d" fill="white"/>' % (_W, _H),
             '<text x="%d" y="18" font-family="monospace" font-size="13">%s'
             '</text>' % (_PANEL["left"], title)]

    for key, vals, logscale, label, color in (
            ("a", res_vals, True, "residual sup", "#c0392b"),
            ("b", sup_vals, False, "sup |log f|", "#2d5fa3")):
        top, bot = _PANEL["top_" + key], _PANEL["bot_" + key]
        fy, lo, hi = _ymap(vals, top, bot, logscale)
        parts.append('<rect x="%d" y="%d" width="%d" height="%d" fill="none" '
                     'stroke="#888"/>' % (_PANEL["left"], top,
                                          _PANEL["right"] - _PANEL["left"],
                                          bot - top))
        pts = [(fx(e), fy(v)) for e, v in zip(eps_vals, vals)]
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
    """Writes trace.csv, run.json, run.svg under outdir/name/."""
    base = os.path.join(outdir, name)
    os.makedirs(base, exist_ok=True)
    paths = {}
    rep = outcome.report
    paths["csv"] = os.path.join(base, "trace.csv")
    write_text(paths["csv"], trace_csv(rep.trace))
    paths["json"] = os.path.join(base, "run.json")
    write_text(paths["json"], dump_json(run_report(name, cfg, outcome)))
    paths["svg"] = os.path.join(base, "run.svg")
    write_text(paths["svg"], render_run_svg(
        rep.trace, title="%s [%s]" % (name, rep.verdict)))
    return paths


def svg_from_csv(csv_text, title="continuation run"):
    """Rebuild the run plot from a trace CSV (the report subcommand)."""
    lines = [ln for ln in csv_text.strip().split("\n") if ln]
    header = lines[0].split(",")
    if header != CSV_COLUMNS:
        raise ValueError("unexpected trace columns: %s" % ",".join(header))

    class Row:
        def __init__(self, vals):
            self.eps = vals[0]
            self.residual_sup = vals[1]
            self.sup_log_f = vals[2]

    trace = []
    for ln in lines[1:]:
        vals = [float(v) for v in ln.split(",")]
        trace.append(Row(vals))
    return render_run_svg(trace, title=title)
