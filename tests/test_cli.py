"""Command-line interface: exit codes, CSV layout, determinism."""

import csv
import json

import pytest

from greedy_eig import KroneckerSumOperator, gen_random_kronecker, save_operator
from greedy_eig.cli import (
    EXIT_CONFIG,
    EXIT_ITER_CAP,
    EXIT_OK,
    EXIT_STEP_FAILURE,
    TRACE_COLUMNS,
    main,
)

PROBLEM = {"kind": "RandomKronecker", "d": 2, "sizes": [7, 7], "K": 2,
           "seed": 7}


def negative_definite_problem(tmp_path):
    """A stored operator that is not coercive at nu = 0, by construction.

    Negating one factor of every term of an SPD Kronecker sum makes it
    negative definite, so the residual rule's shifted direction systems
    cannot be SPD at nu = 0.
    """
    op, m = gen_random_kronecker(2, (7, 7), 2, seed=1)
    neg = KroneckerSumOperator([(-term[0], *term[1:]) for term in op.terms])
    path = str(tmp_path / "negdef.geig")
    save_operator(neg, m, path)
    return {"kind": "FromFile", "path": path}


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestGen:
    def test_round_trip_through_solve(self, tmp_path):
        gen_cfg = write_config(tmp_path, PROBLEM, "gen.json")
        op_path = str(tmp_path / "op.geig")
        assert main(["gen", "--config", gen_cfg, "--out", op_path]) == EXIT_OK

        solve_cfg = write_config(tmp_path, {
            "problem": {"kind": "FromFile", "path": op_path},
            "solver": {"variant": "rayleigh", "max_iter": 60,
                       "tol_residual": 1e-10, "rng_seed": 3},
        }, "solve.json")
        out = str(tmp_path / "trace.csv")
        assert main(["solve", "--config", solve_cfg, "--out", out]) == EXIT_OK
        summary = json.loads((tmp_path / "trace.csv.json").read_text())
        assert summary["reason"].startswith("converged")

    def test_bad_spec_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"kind": "Nonsense"})
        assert main(["gen", "--config", cfg,
                     "--out", str(tmp_path / "x.geig")]) == EXIT_CONFIG


class TestSolve:
    def test_header_and_summary(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": PROBLEM,
            "solver": {"variant": "rayleigh", "max_iter": 60,
                       "tol_residual": 1e-10, "rng_seed": 3},
            "oracle": True,
        })
        out = str(tmp_path / "trace.csv")
        assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
        rows = read_csv(out)
        assert tuple(rows[0]) == TRACE_COLUMNS
        assert rows[1][0] == "0"
        # oracle columns populated and shrinking
        first_err = float(rows[1][7])
        last_err = float(rows[-1][7])
        assert last_err <= first_err
        summary = json.loads((tmp_path / "trace.csv.json").read_text())
        assert summary["err_lambda"] <= 1e-8

    def test_oracle_off_leaves_error_columns_blank(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": PROBLEM,
            "solver": {"max_iter": 5, "rng_seed": 3},
        })
        out = str(tmp_path / "trace.csv")
        main(["solve", "--config", cfg, "--out", out])
        for row in read_csv(out)[1:]:
            assert row[7] == row[8] == row[9] == ""

    def test_deterministic_trace(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": PROBLEM,
            "solver": {"variant": "residual", "max_iter": 15, "rng_seed": 5},
        })
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["solve", "--config", cfg, "--out", out1])
        main(["solve", "--config", cfg, "--out", out2])
        rows1, rows2 = read_csv(out1), read_csv(out2)
        wall = TRACE_COLUMNS.index("wall_time_ms")
        for r1, r2 in zip(rows1, rows2):
            assert r1[:wall] == r2[:wall]

    def test_seed_override_changes_start(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": PROBLEM,
            "solver": {"max_iter": 5, "rng_seed": 5},
        })
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(["solve", "--config", cfg, "--out", out1])
        main(["solve", "--config", cfg, "--out", out2, "--seed", "123"])
        # same problem, same limit value; traces exist for both seeds
        assert len(read_csv(out1)) > 1 and len(read_csv(out2)) > 1

    def test_iteration_cap_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": PROBLEM,
            "solver": {"variant": "residual", "max_iter": 2,
                       "tol_residual": 1e-14, "tol_lambda": 1e-16,
                       "rng_seed": 3},
        })
        out = str(tmp_path / "trace.csv")
        assert main(["solve", "--config", cfg, "--out", out]) == EXIT_ITER_CAP

    def test_step_failure_exit_code(self, tmp_path):
        # the residual rule at nu = 0 on a negative definite operator
        cfg = write_config(tmp_path, {
            "problem": negative_definite_problem(tmp_path),
            "solver": {"variant": "residual", "nu": 0.0, "max_iter": 30,
                       "rng_seed": 3},
        })
        out = str(tmp_path / "trace.csv")
        with pytest.warns(UserWarning, match="nu=0.0"):
            assert main(["solve", "--config", cfg, "--out", out]) == EXIT_STEP_FAILURE
        summary = json.loads((tmp_path / "trace.csv.json").read_text())
        assert summary["reason"].startswith("step_failure")

    def test_unknown_solver_key(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": PROBLEM,
            "solver": {"max_iter": 5, "bogus": 1},
        })
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG

    def test_unknown_variant(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": PROBLEM,
            "solver": {"variant": "newton"},
        })
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["solve", "--config", str(path),
                     "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG

    def test_missing_output(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": PROBLEM, "solver": {}})
        assert main(["solve", "--config", cfg]) == EXIT_CONFIG


class TestCompare:
    def test_long_format_sorted_by_variant(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": PROBLEM,
            "variants": [
                {"variant": "residual", "max_iter": 10, "rng_seed": 3},
                {"variant": "rayleigh", "max_iter": 10, "rng_seed": 3},
                {"variant": "rayleigh", "orthogonal": True, "max_iter": 10,
                 "rng_seed": 3},
            ],
        })
        out = str(tmp_path / "cmp.csv")
        assert main(["compare", "--config", cfg, "--out", out]) == EXIT_OK
        rows = read_csv(out)
        assert tuple(rows[0]) == ("variant", *TRACE_COLUMNS, "reason")
        labels = [r[0] for r in rows[1:]]
        assert labels == sorted(labels)
        assert set(labels) == {"rayleigh", "residual", "orthogonal-rayleigh"}

    def test_failed_variant_recorded_as_row(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": negative_definite_problem(tmp_path),
            "variants": [
                {"variant": "rayleigh", "max_iter": 10, "rng_seed": 3},
                {"variant": "residual", "nu": 0.0, "max_iter": 10,
                 "rng_seed": 3},
            ],
        })
        out = str(tmp_path / "cmp.csv")
        with pytest.warns(UserWarning, match="nu=0.0"):
            assert main(["compare", "--config", cfg, "--out", out]) == EXIT_OK
        reasons = {r[0]: r[-1] for r in read_csv(out)[1:]}
        assert reasons["residual"].startswith("step_failure")

    def test_empty_variant_list(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": PROBLEM, "variants": []})
        assert main(["compare", "--config", cfg,
                     "--out", str(tmp_path / "c.csv")]) == EXIT_CONFIG

    def test_unknown_top_level_key(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": PROBLEM,
            "variants": [{"max_iter": 5}],
            "extra": True,
        })
        assert main(["compare", "--config", cfg,
                     "--out", str(tmp_path / "c.csv")]) == EXIT_CONFIG
