"""Report gate: a fixed set of ``pentaq`` runs must print the digest stored
in ``tests/data/report_digest.jsonl``.

The runs come from the command line's own tables, so an identity or limit
study is gated as soon as its row exists:

- ``verify --identity operator``, the exact operator check;
- on each of SEEDS, ``verify --random 4`` for every identity of
  ``IDENTITY_TABLE``, again with ``--convention printed`` for each one whose
  verifier takes a convention (the printed forms fail by design and exit 1),
  and ``limit-study`` for every seeded kind of ``LIMIT_TABLE``;
- ``limit-study`` for every kind that reads no seed;
- ``selfcheck``, which prints each golden special-function value's
  relative error to four digits;
- ``expand-operator --max-degree 8 --q 2/5``, the exact operator series.

The digest prints each run as a line naming its arguments and exit code,
then its output, one JSON line per line: a record without ``timestamp`` and
``wall_time`` at any depth, and any line that is not JSON as a JSON string.
Tier-1 makes this tree's digest once, checks that it lists the stored runs
in their order, and compares each run with its stored block.

A change that should leave reports as they are passes this unedited.  A
change that moves them regenerates the file, whose diff shows every field
that moved; the second command prints any checkout's digest for a ``cmp``.
Neither needs an install or ``PYTHONPATH``:

    python tests/test_reports.py . > tests/data/report_digest.jsonl
    python tests/test_reports.py CHECKOUT > digest.jsonl
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SEEDS = (0, 7101, 7102, 7103)
STORED = Path(__file__).parent / "data" / "report_digest.jsonl"
VOLATILE = ("timestamp", "wall_time")

# Runs in the checkout's interpreter: the runs of the module docstring, from
# the checkout's own tables (a verifier takes a convention when its signature
# names one, as in the command line), each printed as a JSON line of
# arguments and exit code followed by the run's output.
_DRIVER = """
import json, sys
from inspect import signature
from click.testing import CliRunner
import pentaq
from pentaq.cli import IDENTITY_TABLE, LIMIT_TABLE, main
assert pentaq.__file__.startswith(sys.argv[1]), pentaq.__file__
runs = [["verify", "--identity", "operator"]]
for seed in sys.argv[2:]:
    verify = [["verify", "--identity", identity.value, "--random", "4",
               "--seed", seed] for identity in IDENTITY_TABLE]
    runs += verify + [args + ["--convention", "printed"] for args, row
                      in zip(verify, IDENTITY_TABLE.values())
                      if "convention" in signature(row.verify).parameters]
    runs += [["limit-study", kind, "--seed", seed]
             for kind, row in LIMIT_TABLE.items() if row.seeded]
runs += [["limit-study", kind] for kind, row in LIMIT_TABLE.items()
         if not row.seeded]
runs += [["selfcheck"], ["expand-operator", "--max-degree", "8", "--q", "2/5"]]
for args in runs:
    res = CliRunner().invoke(main, args)
    if res.exception and not isinstance(res.exception, SystemExit):
        raise res.exception
    print(json.dumps({"run": args, "exit_code": res.exit_code}))
    sys.stdout.write(res.stdout)
"""


def strip(value):
    """``value`` without the VOLATILE keys, at every depth."""
    if isinstance(value, dict):
        return {key: strip(item) for key, item in value.items()
                if key not in VOLATILE}
    if isinstance(value, list):
        return [strip(item) for item in value]
    return value


def as_json_line(line: str) -> str:
    """One output line as a JSON line: a record without the VOLATILE keys,
    or a line that is not JSON as a JSON string."""
    try:
        value = strip(json.loads(line))
    except json.JSONDecodeError:
        value = line
    return json.dumps(value) + "\n"


def digest(checkout: Path) -> str:
    """The digest of the pentaq tree rooted at ``checkout``."""
    src = str((checkout / "src").resolve())
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, src, *map(str, SEEDS)],
        env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE,
        text=True, check=True)
    return "".join(as_json_line(line)
                   for line in proc.stdout.splitlines() if line)


def blocks(text: str) -> dict[str, str]:
    """A digest's runs in order: each run's arguments, joined by ``_``,
    to its lines."""
    runs = {}
    for line in text.splitlines(keepends=True):
        if line.startswith('{"run": '):
            run = "_".join(json.loads(line)["run"])
            runs[run] = ""
        runs[run] += line
    return runs


STORED_RUNS = blocks(STORED.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fresh() -> dict[str, str]:
    return blocks(digest(Path(__file__).resolve().parents[1]))


def test_tree_and_file_list_the_same_runs(fresh):
    assert list(fresh) == list(STORED_RUNS)


@pytest.mark.parametrize("run", STORED_RUNS)
def test_run(fresh, run):
    assert fresh.get(run) == STORED_RUNS[run]


if __name__ == "__main__":
    if len(sys.argv) != 2 or not (Path(sys.argv[1]) / "src").is_dir():
        sys.exit(f"usage: {sys.argv[0]} CHECKOUT (a tree with a src/)")
    sys.stdout.write(digest(Path(sys.argv[1])))
