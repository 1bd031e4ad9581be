"""Print a checkout's JSONL reports on fixed seeds, without the fields that
change from run to run, so that ``cmp`` of two outputs checks that a change
leaves every report bit the same.

Usage, from any directory:

    python tests/report_digest.py CHECKOUT > digest.txt

CHECKOUT is the root of a pentaq tree.  Its ``src`` is imported in one
subprocess, which runs through the ``pentaq`` command line:

- ``verify --random 4`` for every identity with random points, on each of
  SEEDS, and again with ``--convention printed`` for index, gamma and beta;
- ``verify --identity operator``, the exact operator check;
- ``limit-study q-to-1`` on each of SEEDS, and ``limit-study omega``;
- ``selfcheck``, which prints each golden special-function value's
  relative error to four digits;
- ``expand-operator --max-degree 8 --q 2/5``, the exact operator series.

The seeds are held out: the report snapshots under ``tests/data`` use
seed 0.  Each run prints a line naming its arguments and exit code, then
its output, one JSON line per line: a record with ``timestamp`` and
``wall_time`` removed at every depth and every other key in its order, and
any line that is not JSON as a JSON string.  This file is a tool, not a
test: pytest collects only ``test_*.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SEEDS = (7101, 7102, 7103)
RANDOM_IDENTITIES = ("classical", "hyperbolic", "index", "gamma",
                     "equivalence", "beta")
PRINTED_IDENTITIES = ("index", "gamma", "beta")
VOLATILE = ("timestamp", "wall_time")

# Runs in the checkout's interpreter: each argument list of stdin's JSON
# through pentaq's command line, printed as one JSON line of arguments and
# exit code followed by the run's output.
_DRIVER = """
import json, sys
from click.testing import CliRunner
import pentaq
from pentaq.cli import main
assert pentaq.__file__.startswith(sys.argv[1]), pentaq.__file__
for args in json.load(sys.stdin):
    res = CliRunner().invoke(main, args)
    if res.exception is not None and not isinstance(res.exception,
                                                    SystemExit):
        raise res.exception
    print(json.dumps({"run": args, "exit_code": res.exit_code}))
    sys.stdout.write(res.stdout)
"""


def runs() -> list[list[str]]:
    """Every command line the digest runs, in its order."""
    out = [["verify", "--identity", "operator"]]
    for seed in map(str, SEEDS):
        out += [["verify", "--identity", identity, "--random", "4",
                 "--seed", seed] for identity in RANDOM_IDENTITIES]
        out += [["verify", "--identity", identity, "--random", "4",
                 "--seed", seed, "--convention", "printed"]
                for identity in PRINTED_IDENTITIES]
        out.append(["limit-study", "q-to-1", "--seed", seed])
    out.append(["limit-study", "omega"])
    out.append(["selfcheck"])
    out.append(["expand-operator", "--max-degree", "8", "--q", "2/5"])
    return out


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
    src = str((checkout / "src").resolve())
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _DRIVER, src],
                          input=json.dumps(runs()), env=env,
                          capture_output=True, text=True, check=True)
    return "".join(as_json_line(line)
                   for line in proc.stdout.splitlines() if line)


if __name__ == "__main__":
    if len(sys.argv) != 2 or not (Path(sys.argv[1]) / "src").is_dir():
        sys.exit(f"usage: {sys.argv[0]} CHECKOUT (a tree with a src/)")
    sys.stdout.write(digest(Path(sys.argv[1])))
