"""Launcher for one sphbeam CLI operation in a fresh interpreter.

run.py starts one process of this script per operation:

    python3 bench/shim.py op RESULT T_SPAWN OP_ID TRACE -- <cli args...>
    python3 bench/shim.py isolated RESULT SHAPES_JSON

``op`` imports ``sphbeam.cli`` (timed), optionally wraps the layer-boundary
functions listed in TRACED, runs ``cli.main(args, standalone_mode=False)``
(timed) and writes a JSON result: set-up time (from T_SPAWN, the parent's
``time.monotonic()`` just before it started this process, to the end of
the import), import time, run time, max RSS, exit code and, when traced,
the spans.  Spans stay in memory until the command has finished.

``isolated`` times ``sphmath.sh_matrix`` on the given shapes in a process
that has made no BLAS call: the reference for the pipeline-order rate that
the traced ops measure.

Only modules the interpreter has already loaded at start-up are imported
before ``sphbeam.cli``, so the import time is that of a plain CLI call.
"""

import os
import sys
import time

# Functions wrapped in traced runs, by defining module.  Every sphbeam module
# that imported one of them by name is rebound too.  Tiny helpers such as
# sh_index and num_coeffs are left out: they run thousands of times per op
# and the wrapper would cost more than they do.
TRACED = {
    "sphbeam.sphmath": ("sh_matrix", "sph_hankel1", "legendre"),
    "sphbeam.radiation": ("radial_far", "radial_near", "beam_pattern_modal",
                          "great_circle_angle"),
    "sphbeam.design": ("max_directivity_weights", "max_wng_weights",
                       "dolph_chebyshev_weights"),
    "sphbeam.metrics": ("report",),
    "sphbeam.synthesis": ("steer", "build_transform", "unit_weights"),
    "sphbeam.virtualmeas": ("transfer_matrix", "discrete_sft", "measured_pattern",
                            "near_field_steer", "gaussian_grid", "virtual_measure",
                            "perturb_transfer"),
    "sphbeam.cli": ("write_json", "write_pattern_csv", "read_json"),
}
# metrics.report is the metrics layer's entry point; its span is "metrics".
SPAN_NAMES = {("sphbeam.metrics", "report"): "metrics"}


def _sh_evals(args, kwargs, result):
    """Points x (N+1)^2 of one sh_matrix call."""
    order = args[0] if args else kwargs["order"]
    theta = args[1] if len(args) > 1 else kwargs["theta"]
    points = getattr(theta, "size", 1)
    return {"evals": points * (order + 1) ** 2, "shape": [order, points]}


def _transfer_cost(args, kwargs, result):
    """Computed (not counted) flops and bytes of the transfer-matrix product
    (ygrid * (rad * g)) @ ycaps^H: a complex scaling of the M x C matrix, then
    an (M x C) @ (C x L) complex GEMM, with 16-byte elements."""
    mics, caps = result.values.shape
    coeffs = (result.sim_order + 1) ** 2
    return {"flops": 6 * mics * coeffs + 8 * mics * coeffs * caps,
            "bytes": 16 * (3 * mics * coeffs + coeffs * caps + mics * caps)}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# Per-call counters recorded in the span's extra field, after the call.
EXTRAS = {
    "sphmath.sh_matrix": _sh_evals,
    "virtualmeas.transfer_matrix": _transfer_cost,
    "cli.write_json": _file_bytes,
    "cli.write_pattern_csv": _file_bytes,
}


class Tracer:
    """In-memory spans ``[name, start, end, parent_index, extra]`` of one op."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {"synthesis.pinv": 0}
        self.originals = {}

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, None])
        return self.stack[-1]

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn):
        extra = EXTRAS.get(name)

        def wrapper(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if extra:
                self.spans[index][4] = extra(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every TRACED function, rebind it in every loaded sphbeam
        module that holds it, and count numpy.linalg.pinv calls."""
        import numpy as np

        wrapped = {}
        for modname, names in TRACED.items():
            module = sys.modules[modname]
            for attr in names:
                fn = getattr(module, attr)
                span = SPAN_NAMES.get((modname, attr), f"{modname.split('.')[1]}.{attr}")
                wrapped[id(fn)] = (fn, self.wrap(span, fn))
                self.originals[id(fn)] = fn
        for module in _sphbeam_modules():
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit and hit[0] is value:
                    setattr(module, attr, hit[1])

        pinv = np.linalg.pinv

        def counted_pinv(*args, **kwargs):
            self.counts["synthesis.pinv"] += 1
            return pinv(*args, **kwargs)

        np.linalg.pinv = counted_pinv

    def escaped(self):
        """Names in loaded sphbeam modules still bound to an unwrapped
        original, e.g. in a module first imported during the command."""
        return sorted(f"{module.__name__}.{attr}" for module in _sphbeam_modules()
                      for attr, value in vars(module).items()
                      if self.originals.get(id(value)) is value)


def _sphbeam_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "sphbeam" or n.startswith("sphbeam."))]


def run_op(result_path, t_spawn, op_id, trace, args):
    p0 = time.perf_counter()
    import sphbeam.cli as cli
    p1 = time.perf_counter()
    setup_s = time.monotonic() - t_spawn

    import json
    import resource

    import click

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
        root = tracer.begin("cli")
    r0 = time.perf_counter()
    try:
        cli.main(args, standalone_mode=False)
        code = 0
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    r1 = time.perf_counter()
    result = {
        "op": op_id, "exit": code, "setup_s": setup_s, "import_s": p1 - p0,
        "run_s": r1 - r0,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        tracer.end(root)
        result.update(spans=tracer.spans, counts=tracer.counts, escaped=tracer.escaped())
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


def run_isolated(result_path, shapes_json):
    """Median time per call of sh_matrix for each ``[order, points]`` shape,
    repeating short calls for at least 0.2 s."""
    import json
    import statistics

    import numpy as np

    from sphbeam import sphmath

    rng = np.random.default_rng(0)
    timings = {}
    for order, points in json.loads(shapes_json):
        theta = rng.uniform(0.0, np.pi, points)
        phi = rng.uniform(0.0, 2 * np.pi, points)
        samples = []
        while not samples or (sum(samples) < 0.2 and len(samples) < 200):
            t0 = time.perf_counter()
            sphmath.sh_matrix(order, theta, phi)
            samples.append(time.perf_counter() - t0)
        timings[f"{order},{points}"] = statistics.median(samples)
    with open(result_path, "w") as fh:
        json.dump(timings, fh)
    return 0


def main(argv):
    if argv and argv[0] == "op" and len(argv) >= 6 and argv[5] == "--":
        result_path, t_spawn, op_id, trace = argv[1:5]
        return run_op(result_path, float(t_spawn), int(op_id), trace == "1", argv[6:])
    if argv and argv[0] == "isolated" and len(argv) == 3:
        return run_isolated(argv[1], argv[2])
    raise SystemExit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
