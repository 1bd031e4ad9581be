"""Two benchmark runs with the same seed must count the same work.

Run with ``python -m pytest benchmarks/test_determinism.py`` from the root
of a checkout (about a minute).  Each workload is run twice untraced and
twice traced, with ``--seconds 1``; the deterministic counters and the hash
of the generated points must be identical between the two runs.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("gamma-spins", "index-spins", "hyperbolic-pairs")
# counters that depend only on the points and the code, never on timing
DETERMINISTIC_SUFFIXES = (".calls", ".values", ".rings", ".unconverged",
                          ".tail_share", ".evaluations", ".levels",
                          "err_est_over_residual")


def _run(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed",
         str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True,
        cwd=RUN.parent.parent)
    lines = done.stdout.strip().splitlines()
    meta = json.loads(next(ln for ln in lines if ln.startswith("run "))[4:])
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    return meta, {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_counters_repeat(workload):
    (meta1, m1), (meta2, m2) = _run(workload, 0), _run(workload, 0)
    assert meta1["points_sha256"] == meta2["points_sha256"]
    for key in ("evals_per_point", "accuracy_digits"):
        assert m1[key] == m2[key], key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_counters_repeat(workload):
    (meta1, m1), (meta2, m2) = _run(workload, 1), _run(workload, 1)
    assert meta1["points_sha256"] == meta2["points_sha256"]
    assert meta1["traced_equals_untraced"] and meta2["traced_equals_untraced"]
    keys = [k for k in m1 if k.endswith(DETERMINISTIC_SUFFIXES)]
    assert any(k.endswith(".rings") for k in keys)
    assert any(k.endswith(".values") and m1[k] > 0 for k in keys)
    for key in keys:
        assert m1[key] == m2[key], key


def test_seed_changes_points():
    meta1, _ = _run("hyperbolic-pairs", 0, seed=3)
    meta2, _ = _run("hyperbolic-pairs", 0, seed=4)
    assert meta1["points_sha256"] != meta2["points_sha256"]
