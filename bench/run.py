"""Benchmark of the sphbeam CLI: fresh-process workloads and a per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload design-sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload simulate-deep --seed 1 --seconds 40 --trace 1
    python3 bench/run.py --workload all --smoke --trace 0

Each operation is one fresh interpreter running ``sphbeam.cli`` from ``src/``
through bench/shim.py, which times the import and the command.  Operations
run in a closed loop with one client: each starts after the previous one has
exited and its outputs have been checked, as a user's script would run them.
A pass is one round of a workload's operations; passes repeat until
``--seconds`` is used up (at least one).  The seed picks frequencies, look
directions, sidelobe levels and perturbation seeds; the sizes are fixed.

Workloads (the dodecahedron, L = 12 caps, design order N = 2, r = 0.57 m):

design-sweep    one ``design`` per method (max-di, max-wng --near-field,
                dolph-chebyshev --sidelobe), 300 frequencies in 50 Hz-4 kHz
                each: the per-frequency loop and its 4 JSON files per
                frequency; sh_matrix sees only 1- and 12-point calls and
                the virtual measurement is never run.
paper-pipeline  the README chain at the paper's case (N_a = 10) for one
                frequency <= 1 kHz per pass: design -> steer -> synthesize
                -> metrics -> simulate, plus simulate --perturb.  Many
                short processes, so import and CSV writing dominate.
simulate-deep   simulate --analysis-order 30 (1922 mics, sim order 45) at
                one frequency in 1-2.5 kHz per pass (k r0 < 7); its inputs
                are designed untimed.  Deep sh_matrix and transfer_matrix
                dominate.

--trace 0 reports the end-to-end metrics (tracing off):
  setup_s      time from process start to the end of ``import sphbeam.cli``,
               median over the run's processes
  wall_s       wall time of one pass, its processes' start-up, import and
               exit included, median over passes
  run_s        command time after import, summed over one pass, median
               over passes
  peak_rss_mb  highest max-RSS of any process in the run
Failed operations (non-zero exit, missing output, failed output check) are
reported as ``failed`` of ``attempted`` and make ``correct`` false.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of one pass (LAYER_METRICS): counts from the first traced pass,
times as medians over traced passes, and the tracing overhead (traced minus
untraced run_s).  A separate fresh process times sh_matrix on the traced
pass's shapes before any BLAS call, for the pipeline-order penalty.  The
traced run is checked: every span the workload must reach is called, no
sphbeam module kept an unwrapped reference, and each op's spans nest and
add up to its run_s.  A failed check makes ``correct`` false.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The environment record is printed before it; the full
result is saved in .bench_out/, with the spans of a traced run.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from importlib import metadata
from pathlib import Path
from typing import Callable

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SHIM = BENCH / "shim.py"
WORK_ROOT = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# One client on a 2-core machine: one BLAS thread per CLI process keeps the
# runs steady and never exceeds nproc.
THREAD_ENV = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
WORKLOADS = ("design-sweep", "paper-pipeline", "simulate-deep")
ORDER = 2
NUM_CAPS = 12
RADIUS = "0.57"
OP_TIMEOUT_S = 60
MAX_PATTERN_ERROR = 1e-6
BALLOON_ROWS = 91 * 180  # 2-degree balloon
CROSS_ROWS = 360
CSV_HEADER_LINES = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics of one pass, in output order.  Span names are those of
# bench/shim.py: "<module>.<function>", "metrics" for metrics.report and
# "cli" for the whole command.
LAYER_METRICS = {
    "sphmath.sh_matrix.calls": "count",
    "sphmath.sh_matrix.self_s": "s",
    "sphmath.sh_matrix.evals": "count",
    "sphmath.sh_matrix.ns_per_eval": "ns",
    "sphmath.sh_matrix.isolated_ns_per_eval": "ns",
    "sphmath.sh_matrix.order_penalty": "ratio",
    "sphmath.sph_hankel1.calls": "count",
    "sphmath.sph_hankel1.self_s": "s",
    "sphmath.legendre.calls": "count",
    "sphmath.legendre.self_s": "s",
    "radiation.radial_far.calls": "count",
    "radiation.radial_far.self_s": "s",
    "radiation.radial_near.calls": "count",
    "radiation.radial_near.self_s": "s",
    "radiation.beam_pattern_modal.self_s": "s",
    "radiation.great_circle_angle.self_s": "s",
    "design.max_wng_weights.self_s": "s",
    "design.dolph_chebyshev_weights.self_s": "s",
    "design.calls": "count",
    "metrics.self_s": "s",
    "metrics.calls": "count",
    "synthesis.steer.self_s": "s",
    "synthesis.build_transform.calls": "count",
    "synthesis.build_transform.self_s": "s",
    "synthesis.unit_weights.calls": "count",
    "synthesis.unit_weights.self_s": "s",
    "synthesis.pinv.calls": "count",
    "virtualmeas.transfer_matrix.calls": "count",
    "virtualmeas.transfer_matrix.self_s": "s",
    "virtualmeas.transfer_matrix.flops": "flop-computed",
    "virtualmeas.transfer_matrix.bytes": "byte-computed",
    "virtualmeas.discrete_sft.calls": "count",
    "virtualmeas.discrete_sft.self_s": "s",
    "virtualmeas.measured_pattern.self_s": "s",
    "virtualmeas.near_field_steer.self_s": "s",
    "virtualmeas.gaussian_grid.self_s": "s",
    "virtualmeas.virtual_measure.self_s": "s",
    "virtualmeas.perturb_transfer.self_s": "s",
    "cli.import_s": "s",
    "cli.write_json.calls": "count",
    "cli.write_json.self_s": "s",
    "cli.write_json.bytes": "byte",
    "cli.write_pattern_csv.calls": "count",
    "cli.write_pattern_csv.self_s": "s",
    "cli.write_pattern_csv.bytes": "byte",
    "cli.read_json.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
DESIGN_SPANS = ("design.max_directivity_weights", "design.max_wng_weights",
                "design.dolph_chebyshev_weights")

# Spans each workload must call in every traced pass.  A zero count means a
# function escaped wrapping (or the workload no longer exercises it).
EXPECTED_SPANS = {
    "design-sweep": (
        "sphmath.sh_matrix", "sphmath.sph_hankel1", "sphmath.legendre",
        "radiation.radial_far", "radiation.radial_near", *DESIGN_SPANS, "metrics",
        "synthesis.steer", "synthesis.build_transform", "synthesis.unit_weights",
        "virtualmeas.near_field_steer", "cli.write_json"),
    "paper-pipeline": (
        "sphmath.sh_matrix", "sphmath.sph_hankel1", "sphmath.legendre",
        "radiation.radial_far", "radiation.radial_near", "radiation.beam_pattern_modal",
        "radiation.great_circle_angle", "metrics", "synthesis.build_transform",
        "synthesis.unit_weights", "virtualmeas.transfer_matrix", "virtualmeas.discrete_sft",
        "virtualmeas.measured_pattern", "virtualmeas.near_field_steer",
        "virtualmeas.gaussian_grid", "virtualmeas.virtual_measure",
        "virtualmeas.perturb_transfer", "cli.write_json", "cli.write_pattern_csv",
        "cli.read_json"),
    "simulate-deep": (
        "sphmath.sh_matrix", "sphmath.sph_hankel1", "sphmath.legendre",
        "radiation.radial_near", "radiation.beam_pattern_modal",
        "radiation.great_circle_angle", "virtualmeas.transfer_matrix",
        "virtualmeas.discrete_sft", "virtualmeas.measured_pattern",
        "virtualmeas.gaussian_grid", "virtualmeas.virtual_measure", "cli.write_json",
        "cli.write_pattern_csv", "cli.read_json"),
}


# ---------------------------------------------------------------------------
# output checks


class CheckFailed(Exception):
    """An operation's output is missing or wrong."""


def _reject_constant(token):
    raise CheckFailed(f"non-finite JSON token {token}")


def load_strict(path):
    """Parse a JSON output as strict JSON: no NaN or Infinity tokens."""
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise CheckFailed(f"missing output {path.name}") from None
    if not text:
        raise CheckFailed(f"{path.name} not written")
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{path.name}: invalid JSON: {exc}") from None


def freq_tag(freq):
    """File tag the CLI gives a frequency argument."""
    return f"{float(freq):g}Hz"


def _complex(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[:, 0] + 1j * arr[:, 1]


def check_modal(doc, method):
    """max-wng and dolph-chebyshev are distortionless: sum d_n (2n+1)/4pi = 1."""
    d = _complex(doc["d"])
    if d.size != ORDER + 1:
        raise CheckFailed(f"modal_weights: {d.size} weights, expected {ORDER + 1}")
    if method != "max-di":
        b0 = np.sum(d * (2 * np.arange(d.size) + 1)) / (4 * np.pi)
        if not abs(b0 - 1.0) <= 1e-9:
            raise CheckFailed(f"modal_weights: B(look) = {b0}, expected 1 ({method})")


def check_metrics(doc, method):
    """max-di reaches the closed form Q = (N+1)^2."""
    q_max = (ORDER + 1) ** 2
    if method == "max-di" and not abs(doc["q"] - q_max) <= 1e-9 * q_max:
        raise CheckFailed(f"metrics: q = {doc['q']}, expected {q_max} (max-di)")


DESIGN_OUTPUTS = ("modal_weights", "steered_weights", "unit_weights", "metrics")


def check_design(out, freqs, method):
    for freq in freqs:
        tag = freq_tag(freq)
        check_modal(load_strict(out / f"modal_weights_{tag}.json"), method)
        check_steered(out, freq)
        check_unit(out, freq)
        check_metrics(load_strict(out / f"metrics_{tag}.json"), method)


def check_steered(out, freq):
    doc = load_strict(out / f"steered_weights_{freq_tag(freq)}.json")
    if len(doc["coeffs"]) != (ORDER + 1) ** 2:
        raise CheckFailed(f"steered_weights: {len(doc['coeffs'])} coefficients")


def check_unit(out, freq):
    doc = load_strict(out / f"unit_weights_{freq_tag(freq)}.json")
    if len(doc["w"]) != NUM_CAPS:
        raise CheckFailed(f"unit_weights: {len(doc['w'])} weights, expected {NUM_CAPS}")


def check_simulation(out, freq, perturbed):
    """Report is strict JSON; unperturbed runs reproduce the design; all
    four pattern CSVs are complete."""
    tag = freq_tag(freq)
    report = load_strict(out / f"simulation_{tag}.json")
    if not perturbed and not report["pattern_error"] < MAX_PATTERN_ERROR:
        raise CheckFailed(f"simulation: pattern_error {report['pattern_error']:.3e} "
                          f">= {MAX_PATTERN_ERROR:g}")
    for name, rows in (("balloon", BALLOON_ROWS), ("cross_section", CROSS_ROWS)):
        for kind in ("designed", "measured"):
            path = out / f"{name}_{kind}_{tag}.csv"
            try:
                with path.open("rb") as fh:
                    lines = sum(1 for _ in fh)
            except FileNotFoundError:
                raise CheckFailed(f"missing output {path.name}") from None
            if lines != rows + CSV_HEADER_LINES:
                raise CheckFailed(f"{path.name}: {lines} lines, expected "
                                  f"{rows + CSV_HEADER_LINES}")


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Op:
    """One CLI call writing into ``out``; ``check`` raises CheckFailed on a
    bad output.  The files in ``precreate`` are created empty, untimed,
    before the call.  On the ext4 disk of the 2-vCPU virtual machine this
    benchmark was built on, creating a file costs 0.05-0.6 ms and swings
    several-fold from minute to minute with the host's load, which would
    swamp the 4 JSON files per frequency that a design writes; writing into
    an empty file costs about 0.08 ms and is steady.  A file the call does
    not write stays empty and fails its check."""

    kind: str
    args: list
    out: Path
    check: Callable[[], None]
    precreate: tuple = ()


def _look(rng):
    return f"{rng.uniform(0.0, 180.0):.1f},{rng.uniform(0.0, 360.0):.1f}"


def _freqs(rng, count, low, high, step):
    """``count`` distinct frequencies on a ``step`` Hz lattice, as strings."""
    ticks = rng.sample(range(int(low / step), int(high / step) + 1), count)
    return [f"{t * step:.2f}" for t in sorted(ticks)]


def _design_op(out, method, freqs, look, sidelobe, near_field):
    args = ["design", "--method", method, "--order", str(ORDER), "--freq", ",".join(freqs),
            "--look", look, "--out", str(out)]
    if method == "dolph-chebyshev":
        args += ["--sidelobe", sidelobe]
    if near_field:
        args += ["--near-field", "--radius", RADIUS]
    files = [out / f"{stem}_{freq_tag(f)}.json" for f in freqs for stem in DESIGN_OUTPUTS]
    return Op(f"design:{method}", args, out, lambda: check_design(out, freqs, method), files)


# A workload builder takes (rng, work directory, smoke) and returns the
# untimed preparation ops and its cases: pass i runs case i mod len(cases).
# A case maps a new, empty pass directory to that pass's ops, so every
# output is a new file and no earlier output can pass a check.


def design_sweep(rng, work, smoke):
    """One case: a design per method, each over the same seeded frequencies."""
    freqs = _freqs(rng, 3 if smoke else 300, 50, 4000, 0.01)
    look = _look(rng)
    sidelobe = f"{rng.uniform(20.0, 40.0):.1f}"

    def case(out):
        return [_design_op(out / method, method, freqs, look, sidelobe, method == "max-wng")
                for method in ("max-di", "max-wng", "dolph-chebyshev")]

    return [], [case]


def paper_pipeline(rng, work, smoke):
    """Three cases, each the README chain for one frequency."""
    cases = []
    for _ in range(1 if smoke else 3):
        freq = _freqs(rng, 1, 100, 1000, 0.1)[0]
        method = rng.choice(("max-di", "max-wng", "dolph-chebyshev"))
        design_look, look = _look(rng), _look(rng)
        sidelobe = f"{rng.uniform(20.0, 40.0):.1f}"
        perturb = (f"gain_db={rng.uniform(0.2, 1.5):.2f},phase_deg={rng.uniform(1, 8):.1f},"
                   f"noise={rng.uniform(1e-4, 1e-3):.1e},seed={rng.randrange(1000)}")
        cases.append(partial(_pipeline_ops, freq=freq, method=method, design_look=design_look,
                             look=look, sidelobe=sidelobe, perturb=perturb))
    return [], cases


def _pipeline_ops(out, freq, method, design_look, look, sidelobe, perturb):
    """design -> steer -> synthesize -> metrics -> simulate (+ --perturb)."""
    tag = freq_tag(freq)
    d, s, u, m, v, p = (out / name for name in "dsumvp")
    modal = d / f"modal_weights_{tag}.json"
    simulate = ["simulate", str(modal), str(u / f"unit_weights_{tag}.json"),
                "--look", look, "--radius", RADIUS]
    return [
        _design_op(d, method, [freq], design_look, sidelobe, True),
        Op("steer", ["steer", str(modal), "--look", look, "--near-field", "--radius", RADIUS,
                     "--out", str(s)], s, lambda: check_steered(s, freq)),
        Op("synthesize", ["synthesize", str(s / f"steered_weights_{tag}.json"), "--out", str(u)],
           u, lambda: check_unit(u, freq)),
        Op("metrics", ["metrics", str(modal), "--out", str(m)], m,
           lambda: check_metrics(load_strict(m / f"metrics_{tag}.json"), method)),
        Op("simulate", [*simulate, "--out", str(v)], v,
           lambda: check_simulation(v, freq, perturbed=False)),
        Op("simulate:perturb", [*simulate, "--perturb", perturb, "--out", str(p)], p,
           lambda: check_simulation(p, freq, perturbed=True)),
    ]


def simulate_deep(rng, work, smoke):
    """Three cases, each one simulate at analysis order 30 (16 in smoke mode,
    the smallest order whose grid integrates the order-(N_a+15) field
    exactly, so the pattern check still holds)."""
    freqs = _freqs(rng, 1 if smoke else 3, 1000, 2500, 0.1)
    look = _look(rng)
    prep = work / "prep"
    order = "16" if smoke else "30"

    def case(out, freq):
        tag = freq_tag(freq)
        return [Op("simulate", [
            "simulate", str(prep / f"modal_weights_{tag}.json"),
            str(prep / f"unit_weights_{tag}.json"), "--look", look, "--radius", RADIUS,
            "--analysis-order", order, "--out", str(out)],
            out, lambda: check_simulation(out, freq, perturbed=False))]

    cases = [partial(case, freq=freq) for freq in freqs]
    return [_design_op(prep, "max-wng", freqs, look, None, True)], cases


BUILDERS = {"design-sweep": design_sweep, "paper-pipeline": paper_pipeline,
            "simulate-deep": simulate_deep}


# ---------------------------------------------------------------------------
# running


def child_env():
    env = {**os.environ, **THREAD_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Runner:
    """Launches operations one at a time and keeps every result in memory."""

    def __init__(self, work):
        self.work = work
        self.env = child_env()
        self.ops = []  # one record per launched operation
        self.next_id = 0

    def launch(self, op, traced, pass_index):
        op.out.mkdir(parents=True, exist_ok=True)
        for path in op.precreate:
            path.touch()
        op_id, self.next_id = self.next_id, self.next_id + 1
        result_path = self.work / f"op{op_id}.json"
        record = {"op": op_id, "kind": op.kind, "pass": pass_index, "traced": traced,
                  "ok": False}
        start = time.monotonic()
        cmd = [sys.executable, str(SHIM), "op", str(result_path), repr(start), str(op_id),
               "1" if traced else "0", "--", *op.args]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=OP_TIMEOUT_S)
            record["wall_s"] = time.monotonic() - start
            if proc.returncode:
                tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
                raise CheckFailed(f"exit {proc.returncode}: {' '.join(tail)}")
            record.update(json.loads(result_path.read_text()))
            op.check()
            record["ok"] = True
        except (CheckFailed, subprocess.TimeoutExpired, OSError, ValueError, KeyError,
                TypeError, IndexError) as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            print(f"FAILED op {op_id} {op.kind}: {record['error']}", file=sys.stderr)
        record.setdefault("wall_s", time.monotonic() - start)
        self.ops.append(record)
        return record

    def run_pass(self, case, traced, pass_index):
        out = self.work / f"pass{pass_index}{'t' if traced else ''}"
        records = [self.launch(op, traced, pass_index) for op in case(out)]
        return {"pass": pass_index, "traced": traced,
                "wall_s": sum(r["wall_s"] for r in records),
                "run_s": sum(r.get("run_s", 0.0) for r in records), "ops": records}

    def isolated(self, shapes):
        """Per-call sh_matrix times for ``shapes`` in a process with no
        prior BLAS call."""
        result_path = self.work / "isolated.json"
        subprocess.run([sys.executable, str(SHIM), "isolated", str(result_path),
                        json.dumps(shapes)], cwd=ROOT, env=self.env, check=True,
                       stdout=subprocess.DEVNULL, timeout=OP_TIMEOUT_S)
        return json.loads(result_path.read_text())


def run_passes(runner, cases, seconds, trace, smoke):
    """Repeat passes while the next one is expected to end within ``seconds``.
    With ``trace`` each step is an untraced pass and then a traced one, and
    the isolated sh_matrix timing runs after the first step, inside the
    window.  Returns the passes and the isolated timings (None untraced)."""
    start = time.monotonic()
    passes, durations, isolated = [], [], None
    index = 0
    while True:
        t0 = time.monotonic()
        case = cases[index % len(cases)]
        passes.append(runner.run_pass(case, False, index))
        if trace:
            passes.append(runner.run_pass(case, True, index))
        durations.append(time.monotonic() - t0)
        if trace and index == 0:
            isolated = runner.isolated([list(s) for s in sorted(sh_shapes(passes[1]["ops"]))])
        index += 1
        if smoke or time.monotonic() - start + statistics.median(durations) > seconds:
            return passes, isolated


# ---------------------------------------------------------------------------
# metrics


def self_times(spans):
    """Each span's duration minus that of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def span_totals(records):
    """Per span name: calls, self time and summed counters over ``records``."""
    totals = defaultdict(lambda: defaultdict(int))
    for record in records:
        spans = record.get("spans", [])
        for (name, _, _, _, extra), own in zip(spans, self_times(spans)):
            entry = totals[name]
            entry["calls"] += 1
            entry["self_s"] += own
            for key, value in (extra or {}).items():
                if key != "shape":
                    entry[key] += value
        for key, value in record.get("counts", {}).items():
            totals[key]["calls"] += value
    return totals


def sh_shapes(records):
    """Call count of sh_matrix per [order, points] shape."""
    shapes = defaultdict(int)
    for record in records:
        for name, _, _, _, extra in record.get("spans", []):
            if name == "sphmath.sh_matrix":
                shapes[tuple(extra["shape"])] += 1
    return shapes


def trace_problems(workload, traced_passes):
    """Checks that the spans account for the traced run: every expected span
    called, no escaped function, proper nesting, and the root span covering
    the run time measured by the shim."""
    problems = []
    for trace_pass in traced_passes:
        totals = span_totals(trace_pass["ops"])
        missing = [name for name in EXPECTED_SPANS[workload] if not totals[name]["calls"]]
        if missing:
            problems.append(f"pass {trace_pass['pass']}: never called: {', '.join(missing)}")
        for record in trace_pass["ops"]:
            if "spans" not in record:
                continue
            if record["escaped"]:
                problems.append(f"op {record['op']}: unwrapped: {', '.join(record['escaped'])}")
            own = self_times(record["spans"])
            accounted = sum(own)
            if min(own) < -1e-6:
                problems.append(f"op {record['op']}: negative self time")
            if abs(accounted - record["run_s"]) > 0.02 * record["run_s"] + 0.005:
                problems.append(f"op {record['op']}: spans account for {accounted:.4f} s "
                                f"of run_s {record['run_s']:.4f} s")
    return problems


def end_to_end_metrics(passes, ops):
    ok = [r for r in ops if "setup_s" in r]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "peak_rss_mb": max(r["maxrss_kb"] for r in ok) / 1024.0,
    }


def layer_metrics(passes, isolated_times):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    per_pass = [span_totals(p["ops"]) for p in traced]
    first = per_pass[0]

    def median_of(name, key="self_s"):
        return statistics.median(t[name][key] for t in per_pass)

    values = {}
    for metric in LAYER_METRICS:
        name, _, key = metric.rpartition(".")
        if key in ("calls", "evals", "flops", "bytes"):
            values[metric] = first[name][key]
        elif key == "self_s":
            values[metric] = median_of(name)
    values["design.calls"] = sum(first[name]["calls"] for name in DESIGN_SPANS)
    values["cli.import_s"] = statistics.median(
        r["import_s"] for p in traced for r in p["ops"] if "import_s" in r)

    sh = "sphmath.sh_matrix"
    values[f"{sh}.ns_per_eval"] = statistics.median(
        1e9 * t[sh]["self_s"] / t[sh]["evals"] for t in per_pass)
    shapes = sh_shapes(traced[0]["ops"])
    isolated_s = sum(calls * isolated_times[f"{o},{p}"] for (o, p), calls in shapes.items())
    values[f"{sh}.isolated_ns_per_eval"] = 1e9 * isolated_s / first[sh]["evals"]
    values[f"{sh}.order_penalty"] = (values[f"{sh}.ns_per_eval"]
                                     / values[f"{sh}.isolated_ns_per_eval"])
    values["trace.overhead_s"] = (statistics.median(p["run_s"] for p in traced)
                                  - statistics.median(p["run_s"] for p in plain))
    return values


# ---------------------------------------------------------------------------
# environment


def _openblas(package):
    """Version string and core type of the OpenBLAS bundled with a package."""
    import ctypes
    import glob

    libs = glob.glob(str(Path(metadata.distribution(package).locate_file(""))
                         / f"{package}.libs" / "*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    config = getattr(lib, f"{prefix}get_config{suffix}")
                    corename = getattr(lib, f"{prefix}get_corename{suffix}")
                except AttributeError:
                    continue
                config.restype = corename.restype = ctypes.c_char_p
                return {"config": config().decode(), "core": corename().decode()}
    return None


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "openblas": {pkg: _openblas(pkg) for pkg in ("numpy", "scipy")},
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "threads": {var: child_env().get(var) for var in (*THREAD_ENV, "OPENBLAS_CORETYPE")},
        "git_commit": git.stdout.strip() if git.returncode == 0 else None,
        "clients": 1,
    }


# ---------------------------------------------------------------------------
# main


def preflight(env):
    """The source tree must be present and importable from src/."""
    if not (SRC / "sphbeam" / "cli.py").is_file():
        return f"no sphbeam source at {SRC}"
    proc = subprocess.run([sys.executable, "-c", "import sphbeam.cli; print(sphbeam.cli.__file__)"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S)
    if proc.returncode:
        return f"cannot import sphbeam.cli: {proc.stderr.strip().splitlines()[-1:]}"
    if not Path(proc.stdout.strip()).resolve().is_relative_to(SRC):
        return f"sphbeam.cli imported from {proc.stdout.strip()}, not from {SRC}"
    return None


def remove_tree(path):
    """Delete the run's outputs and commit the deletion (fsync of the parent
    directory) before exiting, so it does not load the next run's disk."""
    shutil.rmtree(path, ignore_errors=True)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def run(workload, seed, seconds, trace, smoke):
    """Run one workload; returns the result document."""
    work = WORK_ROOT / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(work)
        prep, cases = BUILDERS[workload](random.Random(f"{workload}:{seed}"), work, smoke)
        for op in prep:
            runner.launch(op, False, -1)
        passes, isolated = run_passes(runner, cases, seconds, trace, smoke)
        failed = sum(not r["ok"] for r in runner.ops)
        problems = []
        if trace:
            problems = trace_problems(workload, [p for p in passes if p["traced"]])
            metrics = layer_metrics(passes, isolated)
            units = LAYER_METRICS
        else:
            metrics = end_to_end_metrics(passes, runner.ops)
            units = END_TO_END
    finally:
        remove_tree(work)
    for problem in problems:
        print(f"TRACE CHECK: {problem}", file=sys.stderr)
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "smoke": smoke, "passes": len(passes), "problems": problems,
        "correct": failed == 0 and not problems, "attempted": len(runner.ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "records": passes,
    }


def save(result, env):
    OUT.mkdir(exist_ok=True)
    stem = f"{result['workload']}-s{result['seed']}-t{result['trace']}"
    spans = [[record["op"], *span] for p in result["records"] if p["traced"]
             for record in p["ops"] for span in record.pop("spans", [])]
    if spans:
        with (OUT / f"spans-{stem}.jsonl").open("w") as fh:
            fh.write('# op, name, start, end, parent index, extra\n')
            fh.writelines(json.dumps(span) + "\n" for span in spans)
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"environment": env, **result}, indent=1) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True,
                        help="'all' runs every workload in turn, each for --seconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and a single pass, with the same checks")
    args = parser.parse_args(argv)

    problem = preflight(child_env())
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    results = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run(workload, args.seed, args.seconds, args.trace, args.smoke)
        except (ValueError, LookupError, ZeroDivisionError, subprocess.SubprocessError) as exc:
            # too many failed operations to compute the metrics at all
            print(f"bench: {workload}: no measurement: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 1
        save(result, env)
        attempted, failed = result["attempted"], result["failed"]
        print(f"{workload} seed {args.seed}: {result['passes']} passes, {attempted} ops, "
              f"{failed} failed, fail_rate {failed / attempted:.4g}")
        for name, metric in result["metrics"].items():
            print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
        results.append(result)
    if len(results) == 1:
        summary = {key: results[0][key] for key in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {"correct": all(r["correct"] for r in results),
                   "attempted": sum(r["attempted"] for r in results),
                   "failed": sum(r["failed"] for r in results),
                   "metrics": {f"{r['workload']}.{name}": metric for r in results
                               for name, metric in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
