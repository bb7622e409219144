"""Names and units of every metric the benchmark reports."""

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# span or counter prefix -> its per-layer fields, in report order
LAYERS = {
    "fiber.eigh_batch": ("calls", "self_s"),
    "fiber.apply_one": ("calls", "self_s"),
    "fiber.apply_two": ("calls", "self_s"),
    "continuation.linearization": ("calls", "self_s", "ms_per_call"),
    "pair.curvature_update": ("calls", "self_s"),
    "higgs.zero_order_lin": ("calls", "self_s"),
    "continuation.residual": ("calls", "self_s"),
    "geometry.fft_deriv": ("calls", "self_s"),
    "geometry.stencil_deriv": ("calls", "self_s"),
    "continuation.precond": ("calls", "self_s"),
    "continuation.gmres": ("calls", "self_s", "matvecs", "partial"),
    "continuation.newton": ("iters", "self_s"),
    "continuation.linesearch": ("trials", "accept_ratio"),
    "continuation.ritz": ("calls", "self_s", "matvecs"),
    "continuation.diagnostics": ("self_s",),
    "continuation.gauge": ("self_s",),
    "reporting.write": ("calls", "self_s", "bytes"),
    "cli.sweep": ("solves",),
}
SCALAR_COUNTS = ("continuation.steps", "continuation.halvings")
MICRO = ("fiber.micro.eigh_batch_ms", "fiber.micro.apply_one_ms",
         "fiber.micro.apply_two_ms")

FIELD_UNITS = {"calls": "count", "self_s": "s", "ms_per_call": "ms",
               "matvecs": "count", "partial": "count", "iters": "count",
               "trials": "count", "accept_ratio": "ratio", "bytes": "bytes",
               "solves": "count"}

# counters that must repeat exactly for one seed
DETERMINISTIC_SUFFIXES = (".calls", ".iters", ".matvecs", ".trials",
                          ".steps", ".halvings")


def per_layer_units():
    out = {}
    for prefix, fields in LAYERS.items():
        for fld in fields:
            out["%s.%s" % (prefix, fld)] = FIELD_UNITS[fld]
    for key in SCALAR_COUNTS:
        out[key] = "count"
    out["trace.overhead_s"] = "s"
    for key in MICRO:
        out[key] = "ms"
    return out
