"""Report snapshots: ``pentaq verify --random 2 --seed 0`` for every identity
of the verify table, and ``pentaq verify --identity operator``, must give
the records stored in ``tests/data/reports.jsonl``; the same runs with
``--convention printed``, for the identities that take a convention, those
in ``tests/data/printed_reports.jsonl``; and
``pentaq limit-study <kind> --seed 0`` for every kind of the limit table
those in ``tests/data/limit_studies.jsonl``, apart from ``timestamp`` and
``wall_time``.  The printed runs hold the unsigned m-weights and the
alternating m-sum tails of the index and gamma sum-integrals, and the
printed beta integrand; each of them fails by design and exits 1.

A change that should leave reports as they are must pass this unchanged.  A
change that moves them regenerates the fixtures with
``PYTHONPATH=src python tests/test_reports.py`` and says which fields moved.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from pentaq.cli import IDENTITY_TABLE, LIMIT_TABLE, main

FIXTURE = Path(__file__).parent / "data" / "reports.jsonl"
PRINTED_FIXTURE = Path(__file__).parent / "data" / "printed_reports.jsonl"
LIMIT_FIXTURE = Path(__file__).parent / "data" / "limit_studies.jsonl"
IDENTITIES = [identity.value for identity in IDENTITY_TABLE] + ["operator"]
PRINTED = ["index", "gamma", "beta"]
STUDIES = list(LIMIT_TABLE)


def _invoke(args: list[str]) -> dict:
    result = CliRunner().invoke(main, args)
    records = [json.loads(line) for line in result.output.splitlines()]
    for rec in records:
        rec.pop("timestamp", None)
        rec.pop("wall_time", None)
    return {"exit_code": result.exit_code, "records": records}


def _run(identity: str, *options: str) -> dict:
    args = ["verify", "--identity", identity, "--seed", "0", *options]
    if identity != "operator":
        args += ["--random", "2"]
    return {"identity": identity, **_invoke(args)}


def _run_printed(identity: str) -> dict:
    return _run(identity, "--convention", "printed")


def _run_study(study: str) -> dict:
    return {"study": study,
            **_invoke(["limit-study", study, "--seed", "0"])}


def _stored(fixture: Path, key: str) -> dict:
    runs = [json.loads(line) for line in fixture.read_text().splitlines()]
    return {run[key]: run for run in runs}


@pytest.mark.parametrize("identity", IDENTITIES)
def test_report_matches_snapshot(identity):
    assert _run(identity) == _stored(FIXTURE, "identity")[identity]


@pytest.mark.parametrize("identity", PRINTED)
def test_printed_report_matches_snapshot(identity):
    assert (_run_printed(identity)
            == _stored(PRINTED_FIXTURE, "identity")[identity])


@pytest.mark.parametrize("study", STUDIES)
def test_limit_study_matches_snapshot(study):
    assert _run_study(study) == _stored(LIMIT_FIXTURE, "study")[study]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    for path, runs in ((FIXTURE, map(_run, IDENTITIES)),
                       (PRINTED_FIXTURE, map(_run_printed, PRINTED)),
                       (LIMIT_FIXTURE, map(_run_study, STUDIES))):
        path.write_text("".join(json.dumps(run) + "\n" for run in runs))
        print(f"wrote {path}")
