"""Command-line interface: exit codes, JSONL records, determinism."""

import json
import math

import pytest
from click.testing import CliRunner

from pentaq.cli import IDENTITY_TABLE, LIMIT_TABLE, main
from pentaq.identities import IdentityId
from pentaq.kernels import sample_hyperbolic
from pentaq.special_functions import ModularPair


@pytest.fixture
def runner():
    return CliRunner()


def jsonl(output):
    return [json.loads(line) for line in output.strip().splitlines()
            if line.startswith("{")]


class TestVerify:
    def test_classical_exits_zero(self, runner):
        res = runner.invoke(main, ["verify", "--identity", "classical",
                                   "--random", "10", "--seed", "7"])
        assert res.exit_code == 0, res.output
        records = jsonl(res.output)
        assert records[0]["kind"] == "run_header"
        assert records[0]["schema_version"] == 2
        assert records[-1]["kind"] == "summary"
        assert records[-1]["failed"] == 0

    def test_operator_runs_fixed_q_set(self, runner):
        res = runner.invoke(main, ["verify", "--identity", "operator",
                                   "--max-degree", "6"])
        assert res.exit_code == 0, res.output
        points = [r for r in jsonl(res.output) if r["kind"] == "point"]
        assert len(points) == 3

    def test_operator_max_degree_range_checked(self, runner):
        res = runner.invoke(main, ["verify", "--identity", "operator",
                                   "--max-degree", "0"])
        assert res.exit_code == 2, res.output
        assert "--max-degree" in res.output

    def test_operator_rejects_random(self, runner):
        res = runner.invoke(main, ["verify", "--identity", "operator",
                                   "--random", "5"])
        assert res.exit_code != 0

    def test_random_count_must_be_positive(self, runner):
        res = runner.invoke(main, ["verify", "--identity", "classical",
                                   "--random", "0"])
        assert res.exit_code == 2
        assert "--random must be at least 1" in res.output

    def test_params_and_random_mutually_exclusive(self, runner, tmp_path):
        f = tmp_path / "pts.jsonl"
        f.write_text("{}\n")
        res = runner.invoke(main, ["verify", "--identity", "classical",
                                   "--params", str(f), "--random", "3"])
        assert res.exit_code != 0

    @pytest.mark.parametrize("identity", list(IDENTITY_TABLE),
                             ids=lambda identity: identity.value)
    def test_params_file_round_trip(self, runner, tmp_path, rng, identity):
        pts = [IDENTITY_TABLE[identity].sample(rng) for _ in range(2)]
        recs = [p if isinstance(p, dict) else p.to_record() for p in pts]
        f = tmp_path / "pts.jsonl"
        f.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
        res = runner.invoke(main, ["verify", "--identity", identity.value,
                                   "--params", str(f)])
        assert res.exit_code == 0, res.output
        points = [r for r in jsonl(res.output) if r["kind"] == "point"]
        assert len(points) == 2

    @pytest.mark.parametrize("identity, rec", [
        ("index", {"s": [0.1, 0.2, 0.2], "t": [0.1, 0.2, 0.2],
                   "n": [1, 1, 1], "m": [0, 0, 0], "q": 0.3}),
        ("index", {"s": [-0.05, 0.3, 0.25], "t": [0.2, 0.2, 0.1],
                   "n": [0, 0, 0], "m": [0, 0, 0], "q": 0.3}),
        ("classical", {"x": 1.5, "y": 0.3}),
        # balanced and pole-separated, but Re(1/w1 + 1/w2) < 0
        ("hyperbolic", {"a": [[0.05, 0.03]] * 3,
                        "b": [[0.05, 0.03]] * 2 + [[0.25, 0.15]],
                        "omega1": [-0.5, 0.3], "omega2": [1.0, 0.0]}),
        ("classical", {"x": None, "y": 0.5}),
        ("hyperbolic", {"a": [1, 2, 3], "b": [[0.05, 0.03]] * 3,
                        "omega1": [0.4, 0.9], "omega2": [1.0, 0.0]}),
        ("classical", [1, 2]),
        ("index", {"s": [math.nan, 0.2, 0.3], "t": [0.1, 0.2, 0.2],
                   "n": [0, 0, 0], "m": [0, 0, 0], "q": 0.3}),
        # the spins' half-sums overflow a float
        ("gamma", {"alpha": [0.1, 0.2, 0.2], "beta": [0.1, 0.2, 0.2],
                   "n": [10**400, -10**400, 0], "m": [0, 0, 0]}),
        # a valid gamma point that declares another identity
        ("gamma", {"identity": "index", "alpha": [0.1, 0.2, 0.2],
                   "beta": [0.1, 0.2, 0.2], "n": [0, 0, 0], "m": [0, 0, 0]}),
    ], ids=["index-spins", "index-negative-exponent", "classical-outside",
            "hyperbolic-no-decay", "classical-null", "hyperbolic-a-not-pairs",
            "not-an-object", "index-nan", "gamma-overflowing-spins",
            "declares-other-identity"])
    def test_params_file_constraint_violation_reported(self, runner,
                                                       tmp_path, identity,
                                                       rec):
        f = tmp_path / "bad.jsonl"
        f.write_text(json.dumps(rec) + "\n")
        res = runner.invoke(main, ["verify", "--identity", identity,
                                   "--params", str(f)])
        assert res.exit_code == 1
        assert "bad.jsonl:1: constraint violation" in res.output

    def test_blank_params_lines_skipped(self, runner, tmp_path):
        f = tmp_path / "pts.jsonl"
        f.write_text('\n{"x": 0.3, "y": 0.6}\n  \n')
        res = runner.invoke(main, ["verify", "--identity", "classical",
                                   "--params", str(f)])
        assert res.exit_code == 0, res.output
        assert len([r for r in jsonl(res.output)
                    if r["kind"] == "point"]) == 1

    def test_params_file_without_points_refused(self, runner, tmp_path):
        f = tmp_path / "empty.jsonl"
        f.write_text("")
        res = runner.invoke(main, ["verify", "--identity", "classical",
                                   "--params", str(f)])
        assert res.exit_code == 1
        assert "empty.jsonl: no parameter points" in res.output

    def test_raising_point_gives_error_record(self, runner, tmp_path, rng):
        # the dual nome of the first pair underflows and its integrand raises
        # ConvergenceError; the run must still verify the second, good point
        pts = [sample_hyperbolic(rng, ModularPair(0.0005 + 0.0005j, 1.0)),
               sample_hyperbolic(rng, ModularPair(0.4 + 0.9j, 1.0))]
        f = tmp_path / "pts.jsonl"
        f.write_text("".join(json.dumps(p.to_record()) + "\n" for p in pts))
        res = runner.invoke(main, ["verify", "--identity", "hyperbolic",
                                   "--params", str(f)])
        assert res.exit_code == 1, res.output
        header, bad, good, summary = jsonl(res.output)
        assert header["points"] == 2
        assert set(bad) == {"kind", "index", "error"}
        assert bad["index"] == 0
        assert bad["error"].startswith("ConvergenceError: ")
        assert good["index"] == 1 and good["passed"]
        assert summary["passed"] == 1 and summary["failed"] == 1

    def test_index_underflow_gives_named_error_record(self, runner,
                                                      tmp_path):
        # at q = 0.99 the index LHS's denominator Pochhammer product
        # underflows to 0; the record names the cause and the run goes on
        recs = [{"s": [0.1, 0.15, 0.25], "t": [0.2, 0.12, 0.18],
                 "n": [1, 0, -1], "m": [0, 1, -1], "q": q}
                for q in (0.99, 0.35)]
        f = tmp_path / "pts.jsonl"
        f.write_text("".join(json.dumps(rec) + "\n" for rec in recs))
        res = runner.invoke(main, ["verify", "--identity", "index",
                                   "--params", str(f)])
        assert res.exit_code == 1, res.output
        _, bad, good, _ = jsonl(res.output)
        assert bad["error"] == ("ConvergenceError: index Pochhammer "
                                "denominator underflows to 0 at q = 0.99")
        assert good["passed"]

    def test_beta_exits_nonzero(self, runner):
        res = runner.invoke(main, ["verify", "--identity", "beta",
                                   "--random", "2",
                                   "--convention", "printed"])
        assert res.exit_code == 1
        summary = jsonl(res.output)[-1]
        assert summary["failed"] == 2

    def test_deterministic_for_seed(self, runner):
        args = ["verify", "--identity", "index", "--random", "3",
                "--seed", "11"]

        def records():
            recs = jsonl(runner.invoke(main, args).output)
            for rec in recs:
                rec.pop("timestamp", None)
                rec.pop("wall_time", None)
            return recs

        first = records()
        assert [r["kind"] for r in first].count("point") == 3
        assert first == records()

    def test_unconverged_points_fail(self, runner):
        # no sum reaches a 1e-30 tail tolerance, so both end unconverged at
        # the ring cap (two refinements keep the inner integrals cheap); a
        # point fails then, however small its residual
        res = runner.invoke(main, ["verify", "--identity", "gamma",
                                   "--random", "2", "--max-refinements", "2",
                                   "--sum-tail-tol", "1e-30"])
        assert res.exit_code == 1, res.output
        records = jsonl(res.output)
        points = [r for r in records if r["kind"] == "point"]
        assert not any(r["truncation_diagnostics"]["sum_integral"]
                       ["converged"] for r in points)
        assert not any(r["passed"] for r in points)
        assert records[-1]["failed"] == 2

    @pytest.mark.parametrize("option, value", [
        ("--max-refinements", "0"), ("--sum-tail-tol", "-1"),
        ("--quadrature-rel-tol", "0"), ("--quadrature-abs-tol", "nan"),
        ("--max-refinements", "17"), ("--quadrature-abs-tol", "inf")])
    def test_bad_policy_option_is_usage_error(self, runner, option, value):
        res = runner.invoke(main, ["verify", "--identity", "classical",
                                   "--random", "1", option, value])
        assert res.exit_code == 2, res.output
        assert "must be" in res.output

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_bad_tol_is_usage_error(self, runner, value):
        res = runner.invoke(main, ["verify", "--identity", "classical",
                                   "--random", "1", "--tol", value])
        assert res.exit_code == 2, res.output
        assert "must be finite and at least 0" in res.output

    def test_zero_tol_is_valid(self, runner):
        # 0 is the operator identity's own target
        res = runner.invoke(main, ["verify", "--identity", "operator",
                                   "--max-degree", "3", "--tol", "0"])
        assert res.exit_code == 0, res.output

    def test_negative_seed_is_usage_error(self, runner):
        res = runner.invoke(main, ["verify", "--identity", "classical",
                                   "--random", "2", "--seed", "-1"])
        assert res.exit_code == 2, res.output
        assert "--seed" in res.output

    def test_tol_override_can_force_failure(self, runner):
        res = runner.invoke(main, ["verify", "--identity", "hyperbolic",
                                   "--random", "1", "--tol", "1e-30"])
        assert res.exit_code == 1, res.output
        summary = jsonl(res.output)[-1]
        assert summary["kind"] == "summary"
        assert summary["failed"] == 1

    @pytest.mark.parametrize("identity, convention",
                             [("classical", None), ("index", "resolved")])
    def test_header_records_convention_only_where_used(self, runner,
                                                       identity, convention):
        res = runner.invoke(main, ["verify", "--identity", identity,
                                   "--random", "1"])
        assert res.exit_code == 0, res.output
        assert jsonl(res.output)[0]["convention"] == convention

    def test_report_file_written(self, runner, tmp_path):
        out = tmp_path / "report.jsonl"
        res = runner.invoke(main, ["verify", "--identity", "classical",
                                   "--random", "2", "--report", str(out)])
        assert res.exit_code == 0
        records = [json.loads(line) for line in
                   out.read_text().strip().splitlines()]
        assert records[0]["kind"] == "run_header"

    @pytest.mark.parametrize("args", [
        ["verify", "--identity", "classical", "--random", "2"],
        ["limit-study", "omega"]], ids=["verify", "limit-study"])
    def test_report_directory_is_usage_error(self, runner, tmp_path, args):
        # refused before the run, which used to end in IsADirectoryError
        res = runner.invoke(main, args + ["--report", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "is a directory" in res.output

    @pytest.mark.parametrize("args", [
        ["verify", "--identity", "classical", "--random", "2"],
        ["limit-study", "omega"]], ids=["verify", "limit-study"])
    def test_report_missing_directory_is_usage_error(self, runner, tmp_path,
                                                     args):
        out = tmp_path / "missing" / "report.jsonl"
        res = runner.invoke(main, args + ["--report", str(out)])
        assert res.exit_code == 2, res.output
        assert "does not exist" in res.output
        assert not out.parent.exists()


class TestLimitStudy:
    @pytest.mark.parametrize("kind", list(LIMIT_TABLE))
    def test_exits_zero(self, runner, kind):
        res = runner.invoke(main, ["limit-study", kind])
        assert res.exit_code == 0, res.output
        records = jsonl(res.output)
        assert any(r.get("passed") for r in records)

    def test_table_runs_every_limit_study(self):
        kinds = {study.run(0).kind for study in LIMIT_TABLE.values()}
        assert kinds == {i for i in IdentityId
                         if i.value.startswith("limit-")}

    @pytest.mark.parametrize("kind", list(LIMIT_TABLE))
    def test_header_seed_only_where_read(self, runner, kind):
        # a study that reads no seed records null, and its rows do not
        # change with --seed
        outputs = [jsonl(runner.invoke(main, ["limit-study", kind,
                                              "--seed", seed]).output)
                   for seed in ("0", "5")]
        header = outputs[1][0]
        if LIMIT_TABLE[kind].seeded:
            assert header["seed"] == 5
        else:
            assert header["seed"] is None
            for out in outputs:
                out[0].pop("timestamp")
                out[1].pop("wall_time", None)
            assert outputs[0] == outputs[1]


    def test_negative_seed_is_usage_error(self, runner):
        res = runner.invoke(main, ["limit-study", "q-to-1", "--seed", "-3"])
        assert res.exit_code == 2, res.output
        assert "--seed" in res.output


class TestExpandOperator:
    def test_exact_zero_exit(self, runner):
        res = runner.invoke(main, ["expand-operator", "--max-degree", "5"])
        assert res.exit_code == 0, res.output

    def test_malformed_q_usage_error(self, runner):
        res = runner.invoke(main, ["expand-operator", "--q", "zebra"])
        assert res.exit_code != 0

    def test_q_outside_unit_interval_usage_error(self, runner):
        res = runner.invoke(main, ["expand-operator", "--q", "3/2"])
        assert res.exit_code == 2
        assert "q must satisfy 0 < q < 1, got 3/2" in res.output

    def test_negative_degree_usage_error(self, runner):
        res = runner.invoke(main, ["expand-operator", "--max-degree", "-1"])
        assert res.exit_code == 2
        assert "--max-degree" in res.output

    def test_degree_zero_is_valid(self, runner):
        res = runner.invoke(main, ["expand-operator", "--max-degree", "0"])
        assert res.exit_code == 0, res.output
        assert "# max residual: 0" in res.output


class TestSelfcheck:
    def test_bundled_vectors_pass(self, runner):
        res = runner.invoke(main, ["selfcheck"])
        assert res.exit_code == 0, res.output

    def test_tol_scale_can_force_failure(self, runner):
        res = runner.invoke(main, ["selfcheck", "--tol", "1e-12"])
        assert res.exit_code != 0

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_bad_tol_scale_is_usage_error(self, runner, value):
        res = runner.invoke(main, ["selfcheck", "--tol", value])
        assert res.exit_code == 2, res.output
        assert "must be finite and at least 0" in res.output

    def test_corrupted_vector_file_reports_line(self, runner, tmp_path):
        f = tmp_path / "vec.jsonl"
        f.write_text('{"function": "log_gamma", "args": [2.0]\n')
        res = runner.invoke(main, ["selfcheck", "--vectors", str(f)])
        assert res.exit_code != 0
        assert "1" in res.output

    @pytest.mark.parametrize("vector", [
        '{"function": "no_such_function", "input": {"z": 2.0}',
        '{"function": "log_gamma", "input": {"w": 2.0}',
    ], ids=["unknown-function", "missing-input"])
    def test_malformed_vector_reports_line(self, runner, tmp_path, vector):
        f = tmp_path / "vec.jsonl"
        f.write_text(vector + ', "expected": [0.0, 0.0], "tol": 1e-14}\n')
        res = runner.invoke(main, ["selfcheck", "--vectors", str(f)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert f"{f}:1: malformed golden vector" in res.output

    def test_raising_vector_fails_and_run_goes_on(self, runner, tmp_path):
        # log_gamma has a pole at z = 0; the next vector is still checked
        f = tmp_path / "vec.jsonl"
        f.write_text(
            '{"function": "log_gamma", "input": {"z": 0.0}, '
            '"expected": [0.0, 0.0], "tol": 1e-14}\n'
            '{"function": "log_gamma", "input": {"z": 1.0}, '
            '"expected": [0.0, 0.0], "tol": 1e-14}\n')
        res = runner.invoke(main, ["selfcheck", "--vectors", str(f)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        lines = res.output.splitlines()
        assert lines[0].startswith("FAIL  log_gamma")
        assert "PoleError" in lines[0]
        assert lines[1].startswith("ok  log_gamma")
        assert lines[2] == "# 1/2 golden vectors passed"
