"""Benchmark of the pentaq verifiers: three closed-loop workloads, one caller.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload gamma-spins --seed 0 --seconds 40 --trace 0

The seed drives the library's own samplers.  The first points they draw
form the panel, sized to fill about ``--seconds`` at the workload's nominal
rate.  With ``--trace 0`` every panel point is verified through the public
verifier in ``pentaq.identities``, then further points are drawn from the
same stream until ``--seconds`` have passed; the end-to-end metrics are
printed one per line with their unit.  With ``--trace 1`` the first half of the panel is verified
twice per point, untraced and then under the call shims of ``tracing.py``,
and the per-layer metrics are printed per point.  Every verification is
checked independently of ``VerificationReport.passed``: a point fails when
it raises, gives a non-finite side, or misses ``DEFAULT_TARGETS`` by the
residual recomputed here.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a traced
run are written to ``.bench_out/``.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import resource
import statistics
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Nominal points per second used to size a workload's panel.  Each is near
# the low end of the rates of the parent commit on a 2-core x86-64 host, so
# the panel fills most of --seconds.  The panel, and with it every deterministic
# counter, depends only on the seed and --seconds.
NOMINAL_RATE = {
    "gamma-spins": 0.55,
    "index-spins": 9.0,
    "hyperbolic-pairs": 32.0,
}
SETUP_SAMPLES = 5
# --- end-to-end metrics: (name, unit) in print order
END_TO_END = (
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("point_s_p50", "s"),
    ("point_s_p90", "s"),
    ("evals_per_point", "count"),
    ("accuracy_digits", "digits"),
    ("failed_share", "ratio"),
    ("unconverged_share", "ratio"),
    ("peak_rss_mb", "MB"),
)
# Printed but left out of the JSON line, which BENCHMARK.json gates: the
# shares read 0 on some workloads, p90 needs at least 100 verifications, and
# on gamma-spins the median of two dozen points of very different cost moves
# by a fifth from seed to seed.
PRINT_ONLY = ("point_s_p50", "point_s_p90", "failed_share",
              "unconverged_share")


@dataclass(frozen=True)
class Workload:
    sample: Callable      # (rng, k) -> params
    verify: Callable      # params -> VerificationReport
    target: float
    diagnostics: str      # key of the engine record in truncation_diagnostics


@dataclass(frozen=True)
class Outcome:
    """One verification, checked independently of ``report.passed``."""

    seconds: float
    ok: bool
    rel_residual: float = math.inf
    evaluations: int = 0
    converged: bool = False
    err_over_residual: float | None = None
    sides: tuple = ()
    error: str = ""


def import_pentaq():
    """Import pentaq from this checkout's ``src`` and nowhere else."""
    if not (SRC / "pentaq" / "__init__.py").is_file():
        sys.exit(f"benchmark: no pentaq sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pentaq
    if Path(pentaq.__file__).resolve().parent != SRC / "pentaq":
        sys.exit(f"benchmark: imported pentaq from {pentaq.__file__}")
    from pentaq import identities, kernels
    return identities, kernels


def workloads(identities, kernels) -> dict:
    from pentaq.special_functions import ModularPair

    ids = identities.IdentityId
    target = identities.DEFAULT_TARGETS
    # the three quasi-period pairs of acceptance criterion 3, cycled
    pairs = (ModularPair(0.4 + 0.9j, 1.0), ModularPair(0.3 + 0.7j, 1.1),
             ModularPair(0.6 + 1.3j, 0.9))
    return {
        "gamma-spins": Workload(
            lambda rng, k: kernels.sample_gamma(rng),
            identities.verify_pentagon_gamma,
            target[ids.GAMMA_SUM_INTEGRAL], "sum_integral"),
        "index-spins": Workload(
            lambda rng, k: kernels.sample_index(rng),
            identities.verify_pentagon_index,
            target[ids.INDEX], "sum_integral"),
        "hyperbolic-pairs": Workload(
            lambda rng, k: kernels.sample_hyperbolic(rng, pairs[k % 3]),
            identities.verify_pentagon_hyperbolic,
            target[ids.HYPERBOLIC], "integral"),
    }


def point_stream(wl: Workload, seed: int):
    """The workload's points in draw order; point k depends only on the seed."""
    import numpy as np

    rng = np.random.default_rng(seed)
    for k in itertools.count():
        yield wl.sample(rng, k)


def setup(name: str, seed: int, seconds: int):
    """Import pentaq and draw the panel; returns (workload, panel, stream),
    where the stream goes on with the points after the panel."""
    identities, kernels = import_pentaq()
    wl = workloads(identities, kernels)[name]
    stream = point_stream(wl, seed)
    size = max(1, round(seconds * NOMINAL_RATE[name]))
    return wl, list(itertools.islice(stream, size)), stream


def timed_setup(args):
    """Set up SETUP_SAMPLES times; returns the last setup's (workload, panel,
    stream) and the median set-up seconds.

    numpy and scipy are imported first: their import is not pentaq's, and on
    a shared host it drifted by a third between two sets of runs.  Each
    sample drops every pentaq module, so that it imports pentaq afresh and
    draws the panel again.
    """
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401

    samples = []
    for _ in range(SETUP_SAMPLES):
        for mod in [m for m in sys.modules
                    if m == "pentaq" or m.startswith("pentaq.")]:
            del sys.modules[mod]
        t0 = time.perf_counter()
        result = setup(args.workload, args.seed, args.seconds)
        samples.append(time.perf_counter() - t0)
    return result, statistics.median(samples)


def host_probe_ns() -> float:
    """ns per value of raw scipy loggamma on a fixed complex batch (best of
    five); recorded as run metadata to tell host drift from code changes."""
    import numpy as np
    from scipy.special import loggamma

    z = (np.linspace(0.05, 3.0, 512)[:, None]
         + 1j * np.linspace(-40.0, 40.0, 512)[None, :]).ravel()
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter_ns()
        loggamma(z)
        best = min(best, time.perf_counter_ns() - t0)
    return best / z.size


def points_sha256(panel) -> str:
    blob = json.dumps([p.to_record() for p in panel], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def run_point(wl: Workload, p) -> Outcome:
    t0 = time.perf_counter()
    try:
        rep = wl.verify(p)
    except Exception as exc:  # a raising point is counted, not fatal
        return Outcome(time.perf_counter() - t0, False,
                       error=f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    lhs, rhs = complex(rep.lhs), complex(rep.rhs)
    diag = rep.truncation_diagnostics[wl.diagnostics]
    finite = all(math.isfinite(v) for v in (lhs.real, lhs.imag,
                                            rhs.real, rhs.imag))
    abs_res = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    rel = abs_res / scale if finite and scale > 0 else math.inf
    return Outcome(
        seconds, finite and rel <= wl.target, rel, diag["evaluations"],
        diag["converged"],
        diag["abs_error_estimate"] / abs_res if abs_res > 0 else None,
        (lhs, rhs))


def end_to_end(args, wl, panel, stream) -> tuple[dict, int, int, dict]:
    # every panel point, then fresh points until --seconds have passed; the
    # output-derived metrics use the panel only, so they repeat for a seed
    first, times = [], []
    failed = 0
    errors = set()
    start = time.perf_counter()
    points = itertools.chain(panel, stream)
    while len(times) < len(panel) or time.perf_counter() - start < args.seconds:
        out = run_point(wl, next(points))
        if len(times) < len(panel):
            first.append(out)
        times.append(out.seconds)
        failed += not out.ok
        errors.update([out.error] if out.error else [])
    wall = time.perf_counter() - start
    worst = max(o.rel_residual for o in first)
    m = {
        "points_per_s": len(times) / wall,
        "point_s_p50": statistics.median(times),
        "evals_per_point": statistics.fmean(o.evaluations for o in first),
        "accuracy_digits": -math.log10(min(max(worst, 1e-300), 1.0)),
        "failed_share": sum(not o.ok for o in first) / len(first),
        "unconverged_share": sum(not o.converged for o in first) / len(first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    # the highest percentile with at least ten samples beyond it
    if len(times) >= 100:
        m["point_s_p90"] = statistics.quantiles(times, n=10)[-1]
    return m, len(times), failed, {"executions": len(times),
                                   "wall_s": wall, "errors": sorted(errors)}


def per_layer(args, wl, panel) -> tuple[dict, int, int, dict]:
    from tracing import Tracer, traced

    tracer = Tracer()
    points = panel[:max(1, len(panel) // 2)]
    plain, timed = [], []
    failed = 0
    same = True
    for i, p in enumerate(points):
        # alternate which of the pair runs first, so that warm-up and drift
        # do not land on one side of trace.overhead_s
        if i % 2 == 0:
            plain.append(run_point(wl, p))
        tracer.point = i
        with traced(tracer), tracer.span("point"):
            timed.append(run_point(wl, p))
        if i % 2 == 1:
            plain.append(run_point(wl, p))
        failed += (not plain[-1].ok) + (not timed[-1].ok)
        same = same and plain[-1].sides == timed[-1].sides
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{args.workload}.npz")

    n = len(points)
    m = layer_metrics(tracer, n)
    ratios = [o.err_over_residual for o in plain
              if o.err_over_residual is not None]
    m["integrators.err_est_over_residual"] = (statistics.median(ratios)
                                              if ratios else 0.0)
    m["trace.overhead_s"] = (sum(o.seconds for o in timed)
                             - sum(o.seconds for o in plain)) / n
    errors = sorted({o.error for o in plain + timed if o.error})
    return m, 2 * n, failed, {"traced_points": n, "spans": len(tracer.span_id),
                              "traced_equals_untraced": same,
                              "errors": errors}


def layer_metrics(tracer, n: int) -> dict:
    """Per-point layer metrics from the tracer's per-name totals.  A function
    the workload never calls reads 0, its per-value cost included."""
    from tracing import KERNELS, SPECIAL_FUNCTIONS

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for fn in SPECIAL_FUNCTIONS:
        key = f"special_functions.{fn}"
        s = tracer.by_name(key)
        m[f"{key}.calls"] = s.calls / n
        m[f"{key}.values"] = s.values / n
        m[f"{key}.self_s"] = s.self_ns * 1e-9 / n
        if fn != "log_hyperbolic_gamma":
            m[f"{key}.ns_per_value"] = ratio(s.self_ns, s.values)
    key = "integrators.sum_over_integers"
    s = tracer.by_name(key)
    m[f"{key}.rings"] = s.counters.get("levels", 0) / n
    m[f"{key}.unconverged"] = s.counters.get("unconverged", 0) / n
    m[f"{key}.tail_share"] = ratio(s.counters.get("tail_share", 0), s.calls)
    m[f"{key}.self_s"] = s.self_ns * 1e-9 / n
    for engine in ("integrate_real_line", "integrate_unit_circle"):
        key = f"integrators.{engine}"
        s = tracer.by_name(key)
        m[f"{key}.calls"] = s.calls / n
        m[f"{key}.evaluations"] = s.counters.get("evaluations", 0) / n
        m[f"{key}.levels"] = ratio(s.counters.get("levels", 0), s.calls)
        m[f"{key}.self_s"] = s.self_ns * 1e-9 / n
    for part in ("integrand", "summand"):
        s = tracer.by_name(f"identities.{part}")
        m[f"identities.{part}.calls"] = s.calls / n
        m[f"identities.{part}.self_s"] = s.self_ns * 1e-9 / n
    for side in ("lhs", "rhs"):
        m[f"identities.{side}_s"] = sum(
            tracer.by_name(f"identities.eval_{ident}_{side}").total_ns
            for ident in ("gamma", "index", "hyperbolic")) * 1e-9 / n
    kern = [tracer.by_name(f"kernels.{k}") for k in KERNELS]
    m["kernels.calls"] = sum(s.calls for s in kern) / n
    m["kernels.self_s"] = sum(s.self_ns for s in kern) * 1e-9 / n
    return m


PER_LAYER_UNITS = {"calls": "count", "values": "count", "self_s": "s",
                   "ns_per_value": "ns", "rings": "count",
                   "unconverged": "count", "tail_share": "ratio",
                   "evaluations": "count", "levels": "count",
                   "err_est_over_residual": "ratio", "lhs_s": "s",
                   "rhs_s": "s", "overhead_s": "s"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(NOMINAL_RATE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    (wl, panel, stream), setup_s = timed_setup(args)
    probe_start = host_probe_ns()
    if args.trace:
        metrics, attempted, failed, info = per_layer(args, wl, panel)
    else:
        metrics, attempted, failed, info = end_to_end(args, wl, panel, stream)
        metrics = {"setup_s": setup_s, **metrics}
    probe_end = host_probe_ns()

    import numpy
    import scipy
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "panel_points": len(panel),
            "points_sha256": points_sha256(panel),
            "host_probe_ns_per_value": [probe_start, probe_end],
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, **info}
    print("run " + json.dumps(meta))
    if args.trace:
        units = {k: PER_LAYER_UNITS[k.rsplit(".", 1)[-1]] for k in metrics}
    else:
        units = dict(END_TO_END)
    for name in (n for n in units if n in metrics):
        print(f"{name:<48} {metrics[name]:.6g} {units[name]}")
    correct = failed == 0 and info.get("traced_equals_untraced", True)
    shown = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
             if k not in PRINT_ONLY}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
