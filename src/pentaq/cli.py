"""Command-line front end: verifications, limit studies, operator
expansions, and golden-vector self-checks.

Reports are line-delimited JSON: a header record (schema version, run
configuration, timestamp), one record per parameter point, and a summary
record with pass/fail counts and fitted constants.  A point whose evaluation
raises gets the record ``{"kind": "point", "index": i, "error": ...}`` and
counts as failed; the run goes on with the next point.  Identical configuration
and seed produce byte-identical reports except for the header timestamp and
each point's ``wall_time``.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from importlib import resources
from inspect import signature
from pathlib import Path
from typing import Callable

import click
import numpy as np

from . import identities as idn
from . import kernels as krn
from .identities import IdentityId
from .integrators import DEFAULT_POLICY
from .special_functions import (
    ConvergenceError,
    ModularPair,
    bernoulli_b22,
    dilog,
    hyperbolic_gamma,
    log_gamma,
    qpoch_inf,
    qpoch_ratio_regularized,
    rogers_L,
)
from .weyl_series import operator_pentagon_sides, series_difference

SCHEMA_VERSION = 2

_OPERATOR_QS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))


@dataclass(frozen=True)
class IdentityRow:
    """How the ``verify`` command handles one identity.

    ``load`` turns a JSONL parameter record into a point, ``sample`` draws
    one from an rng, and ``verify(point, policy[, convention])`` checks it;
    the convention is passed only when its signature names one.
    """

    load: Callable[[dict], object]
    sample: Callable[[np.random.Generator], object]
    verify: Callable[..., idn.VerificationReport]


def _classical_point(rec: dict) -> dict:
    x, y = float(rec["x"]), float(rec["y"])
    if not (0 < x < 1 and 0 < y < 1):
        raise ValueError(f"(x, y) must lie in (0,1)^2, got ({x}, {y})")
    return {"x": x, "y": y}


IDENTITY_TABLE = {
    IdentityId.CLASSICAL: IdentityRow(
        _classical_point,
        lambda rng: {"x": float(rng.uniform(0.01, 0.99)),
                     "y": float(rng.uniform(0.01, 0.99))},
        lambda point, policy: idn.verify_classical_pentagon(point["x"],
                                                            point["y"])),
    IdentityId.HYPERBOLIC: IdentityRow(
        krn.HyperbolicParams.from_record, krn.sample_hyperbolic,
        idn.verify_pentagon_hyperbolic),
    IdentityId.INDEX: IdentityRow(
        krn.IndexParams.from_record, krn.sample_index,
        idn.verify_pentagon_index),
    IdentityId.GAMMA_SUM_INTEGRAL: IdentityRow(
        krn.GammaParams.from_record, krn.sample_gamma,
        idn.verify_pentagon_gamma),
    IdentityId.EQUIVALENCE: IdentityRow(
        krn.GammaParams.from_record,
        lambda rng: krn.sample_gamma(rng, with_spins=False),
        lambda point, policy: idn.equivalence_check_gamma_rhs(point)),
    IdentityId.BETA_INTEGRAL: IdentityRow(
        krn.BetaParams.from_record, krn.sample_beta,
        idn.verify_pentagon_beta),
}


@dataclass(frozen=True)
class LimitRow:
    """How the ``limit-study`` command runs one study: ``run(seed)``, and
    whether the study reads the seed at all (``seeded``); a study that
    does not records ``"seed": null`` in its header."""

    run: Callable[[int], idn.LimitStudyResult]
    seeded: bool


LIMIT_TABLE = {
    "q-to-1": LimitRow(lambda seed: idn.limit_study_q_to_1(
        krn.sample_gamma(np.random.default_rng(seed))), seeded=True),
    "omega": LimitRow(lambda seed: idn.limit_study_omega(), seeded=False),
}


def _load_points(identity: IdentityId, params_path: str) -> list:
    """The points of a JSONL parameter file; a record may declare its
    identity, which must be the one its parameters belong to."""
    expected = ("gamma" if identity is IdentityId.EQUIVALENCE
                else identity.value)
    points = []
    with open(params_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError(f"record is not a JSON object: {line}")
                declared = rec.get("identity")
                if declared is not None and declared != expected:
                    raise ValueError(f"record declares identity "
                                     f"{declared!r}, expected {expected!r}")
                points.append(IDENTITY_TABLE[identity].load(rec))
            except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
                raise click.ClickException(
                    f"{params_path}:{lineno}: constraint violation or "
                    f"parse error: {exc}") from exc
    if not points:
        raise click.ClickException(f"{params_path}: no parameter points")
    return points


def _finite_tol(ctx, param, value):
    """A ``--tol`` must be finite and at least 0; written so that nan fails
    it."""
    if value is not None and not 0 <= value < np.inf:
        raise click.BadParameter(f"must be finite and at least 0, got {value}")
    return value


def _report_dir(ctx, param, value):
    """A ``--report`` file must lie in an existing directory; checked
    before the run, whose points would otherwise be lost at its end."""
    if value is not None and not Path(value).parent.is_dir():
        raise click.BadParameter(f"the directory of {value!r} does not exist")
    return value


def _run_header(command: str, **fields) -> str:
    """A report's first line: schema, command, ``fields``, timestamp."""
    return json.dumps({
        "schema_version": SCHEMA_VERSION, "kind": "run_header",
        "command": command, **fields,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })


def _emit(lines: list[str], report_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if report_path:
        Path(report_path).write_text(text, encoding="utf-8")
    click.echo(text, nl=False)


@click.group()
def main() -> None:
    """Pentagon-identity verification harness."""


@main.command()
@click.option("--identity", required=True,
              type=click.Choice(["operator"]
                                + [i.value for i in IDENTITY_TABLE]),
              help="Which identity to verify.")
@click.option("--params", "params_path", type=click.Path(exists=True),
              default=None, help="JSONL file of parameter points.")
@click.option("--random", "random_count", type=int, default=None,
              help="Number of random balanced points to sample.")
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True, help="Seed for the random sampler (PCG64).")
@click.option("--tol", type=float, default=None, callback=_finite_tol,
              help="Override the identity's residual target.")
@click.option("--convention", type=click.Choice(["resolved", "printed"]),
              default="resolved", show_default=True)
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              default=None, callback=_report_dir,
              help="Write the JSONL report here as well as stdout.")
@click.option("--max-degree", type=click.IntRange(min=1), default=10,
              show_default=True,
              help="Truncation degree for the operator identity.")
@click.option("--quadrature-abs-tol", type=float, default=None)
@click.option("--quadrature-rel-tol", type=float, default=None)
@click.option("--sum-tail-tol", type=float, default=None)
@click.option("--max-refinements", type=int, default=None)
def verify(identity, params_path, random_count, seed, tol, convention,
           report_path, max_degree, **overrides) -> None:
    """Verify one identity over a set of parameter points."""
    try:
        policy = replace(DEFAULT_POLICY, **{name: value for name, value
                                            in overrides.items()
                                            if value is not None})
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    if identity == "operator":
        if params_path or random_count:
            raise click.UsageError(
                "the operator identity runs its fixed rational-q set; "
                "--params/--random do not apply")
        takes_convention = False
        points = _OPERATOR_QS
        verify_one = partial(idn.verify_operator_pentagon, max_degree)
    else:
        identity_id = IdentityId(identity)
        row = IDENTITY_TABLE[identity_id]
        takes_convention = "convention" in signature(row.verify).parameters
        if params_path is not None and random_count is not None:
            raise click.UsageError("use exactly one of --params or --random")
        if params_path is not None:
            points = _load_points(identity_id, params_path)
        else:
            count = 25 if random_count is None else random_count
            if count < 1:
                raise click.UsageError("--random must be at least 1")
            rng = np.random.default_rng(seed)
            points = [row.sample(rng) for _ in range(count)]
        verify_one = partial(row.verify, policy=policy, **(
            {"convention": convention} if takes_convention else {}))
    results = []
    for point in points:
        try:
            rep = verify_one(point)
        except (ValueError, ArithmeticError, ConvergenceError) as exc:
            results.append(f"{type(exc).__name__}: {exc}")
            continue
        if tol is not None:
            rep = replace(rep, target=tol)
        results.append(rep)
    reports = [res for res in results if not isinstance(res, str)]

    lines = [_run_header(
        "verify", identity=identity, seed=seed,
        convention=convention if takes_convention else None,
        points=len(results), generator="numpy.random.default_rng(PCG64)")]
    for index, res in enumerate(results):
        record = {"error": res} if isinstance(res, str) else res.to_record()
        lines.append(json.dumps({"kind": "point", "index": index, **record}))

    passed = sum(rep.passed for rep in reports)
    fits = [rep.constant_fit for rep in reports
            if rep.constant_fit is not None]
    summary = {
        "kind": "summary",
        "passed": passed,
        "failed": len(results) - passed,
        "max_rel_residual": max((rep.rel_residual for rep in reports),
                                default=None),
        "constant_fit_mean": float(np.mean(fits)) if fits else None,
        "constant_fit_std": float(np.std(fits)) if fits else None,
    }
    lines.append(json.dumps(summary))
    _emit(lines, report_path)
    sys.exit(0 if passed == len(results) else 1)


@main.command("limit-study")
@click.argument("kind", type=click.Choice(list(LIMIT_TABLE)))
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True,
              help="Seed for the gamma parameter point of the q-to-1 study.")
@click.option("--report", "report_path", type=click.Path(dir_okay=False),
              default=None, callback=_report_dir)
def limit_study(kind, seed, report_path) -> None:
    """Run a convergence study toward one of the two gamma-function limits."""
    row = LIMIT_TABLE[kind]
    result = row.run(seed)
    lines = [_run_header("limit-study", study=kind,
                         seed=seed if row.seeded else None,
                         parameters=result.parameters),
             json.dumps({"kind": "study", **result.to_record()})]
    _emit(lines, report_path)
    sys.exit(0 if result.passed else 1)


@main.command("expand-operator")
@click.option("--max-degree", type=click.IntRange(min=0), default=8,
              show_default=True)
@click.option("--q", "q_string", default="1/2", show_default=True,
              help="Rational q as p/r.")
def expand_operator(max_degree, q_string) -> None:
    """Print both sides of the operator identity and their difference."""
    try:
        q = Fraction(q_string)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.UsageError(f"malformed rational {q_string!r}") from exc
    if not 0 < q < 1:
        raise click.UsageError(f"q must satisfy 0 < q < 1, got {q}")
    lhs, rhs = operator_pentagon_sides(max_degree, q)
    diff = series_difference(lhs, rhs)

    def dump(title, series):
        click.echo(f"# {title}")
        for a, b in sorted(series, key=lambda key: (sum(key), key)):
            click.echo(f"x^{a} y^{b}  {series[(a, b)]}")
        if not series:
            click.echo("(all coefficients zero)")

    dump("l(y) l(x)", lhs)
    dump("l(x) l(-xy) l(y)", rhs)
    dump("difference", diff)
    residual = max(map(abs, diff.values()), default=Fraction(0))
    click.echo(f"# max residual: {residual}")
    sys.exit(0 if residual == 0 else 1)


# golden-vector function name -> (function, the input keys of its
# positional arguments); an input [re, im] is passed as a complex number
_GOLDEN_FUNCTIONS = {
    "log_gamma": (log_gamma, ("z",)),
    "qpoch_inf": (qpoch_inf, ("a", "q")),
    "qpoch_ratio_regularized": (qpoch_ratio_regularized,
                                ("alpha", "beta", "q")),
    "bernoulli_b22": (lambda u, w1, w2: bernoulli_b22(u, (w1, w2)),
                      ("u", "omega1", "omega2")),
    "hyperbolic_gamma": (
        lambda u, w1, w2: hyperbolic_gamma(u, ModularPair(w1, w2)),
        ("u", "omega1", "omega2")),
    "dilog": (dilog, ("x",)),
    "rogers_L": (rogers_L, ("x",)),
    "b_idx": (krn.b_idx, ("a", "n", "b", "m", "q")),
    "b_gamma_disc": (krn.b_gamma_disc, ("a", "n", "b", "m")),
    "b_beta": (krn.b_beta, ("x", "y")),
    "b_hyp": (lambda x, y, w1, w2: krn.b_hyp(x, y, ModularPair(w1, w2)),
              ("x", "y", "omega1", "omega2")),
}


def _golden_input(value):
    return complex(value[0], value[1]) if isinstance(value, list) else value


@main.command()
@click.option("--vectors", "vectors_path", type=click.Path(exists=True),
              default=None, help="Alternative golden-vector file.")
@click.option("--tol", "tol_scale", type=float, default=1.0,
              show_default=True, callback=_finite_tol,
              help="Scale factor applied to every vector tolerance.")
def selfcheck(vectors_path, tol_scale) -> None:
    """Evaluate every shipped golden test vector and report pass/fail."""
    if vectors_path is None:
        source = resources.files("pentaq").joinpath(
            "data/golden_vectors.jsonl")
        text = source.read_text(encoding="utf-8")
        name = "golden_vectors.jsonl"
    else:
        with open(vectors_path, encoding="utf-8") as fh:
            text = fh.read()
        name = vectors_path
    failures = 0
    total = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rec = json.loads(line)
            expected = complex(rec["expected"][0], rec["expected"][1])
            tol = float(rec["tol"]) * tol_scale
            fn = rec["function"]
            call, keys = _GOLDEN_FUNCTIONS[fn]
            args = [_golden_input(rec["input"][key]) for key in keys]
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise click.ClickException(
                f"{name}:{lineno}: malformed golden vector: {exc}") from exc
        total += 1
        provenance = rec.get("provenance", "?")
        try:
            got = complex(call(*args))
        except (ValueError, ArithmeticError, ConvergenceError) as exc:
            failures += 1
            click.echo(f"FAIL  {fn:28s} {type(exc).__name__}: {exc} "
                       f"[{provenance}]")
            continue
        err = abs(got - expected) / max(abs(expected), 1e-300)
        ok = err <= tol
        failures += not ok
        status = "ok" if ok else "FAIL"
        click.echo(f"{status}  {fn:28s} rel={err:.3e} tol={tol:.1e} "
                   f"[{provenance}]")
    click.echo(f"# {total - failures}/{total} golden vectors passed")
    sys.exit(0 if failures == 0 and total > 0 else 1)


if __name__ == "__main__":  # pragma: no cover
    main()
