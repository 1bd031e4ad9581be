"""Report snapshot: ``pentaq verify --random 2 --seed 0`` for every identity
of the verify table, and ``pentaq verify --identity operator``, must give
the records stored in ``tests/data/reports.jsonl``, apart from
``timestamp`` and ``wall_time``.

A change that should leave reports as they are must pass this unchanged.  A
change that moves them regenerates the fixture with
``PYTHONPATH=src python tests/test_reports.py`` and says which fields moved.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from pentaq.cli import IDENTITY_TABLE, main

FIXTURE = Path(__file__).parent / "data" / "reports.jsonl"
IDENTITIES = [identity.value for identity in IDENTITY_TABLE] + ["operator"]


def _run(identity: str) -> dict:
    args = ["verify", "--identity", identity, "--seed", "0"]
    if identity != "operator":
        args += ["--random", "2"]
    result = CliRunner().invoke(main, args)
    records = [json.loads(line) for line in result.output.splitlines()]
    for rec in records:
        rec.pop("timestamp", None)
        rec.pop("wall_time", None)
    return {"identity": identity, "exit_code": result.exit_code,
            "records": records}


def _stored() -> dict:
    runs = [json.loads(line) for line in FIXTURE.read_text().splitlines()]
    return {run["identity"]: run for run in runs}


@pytest.mark.parametrize("identity", IDENTITIES)
def test_report_matches_snapshot(identity):
    assert _run(identity) == _stored()[identity]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text("".join(json.dumps(_run(identity)) + "\n"
                               for identity in IDENTITIES))
    print(f"wrote {FIXTURE}")
