"""Command-line interface: exit codes, CSV layout, determinism."""

import csv
import json
import math
import struct
from dataclasses import fields, replace

import numpy as np
import pytest

from greedy_eig import (KroneckerSumOperator, MetricSet, dense_reference,
                        gen_random_kronecker, greedy, problems, save_operator)
from greedy_eig.cli import (
    EXIT_CONFIG,
    EXIT_ITER_CAP,
    EXIT_OK,
    EXIT_STEP_FAILURE,
    TRACE_COLUMNS,
    main,
    parse_solver_config,
)
from greedy_eig.errors import (AdmFailure, DegenerateIterate, ParseError,
                               VersionError)
from greedy_eig.greedy import GreedyConfig, Variant, run
from greedy_eig.problems import ProblemSpec, load_operator

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


SHIFT_PROBLEM = {"kind": "RandomKronecker", "d": 2, "sizes": [8, 7], "K": 2,
                 "seed": 3}
ERR_VEC_A = TRACE_COLUMNS.index("err_vec_a")


def dense_err_vec_a(solver_raw):
    """err_vec_a of every iterate of a SHIFT_PROBLEM run, computed densely
    in the norm of A + nu I with the run's own nu."""
    op, m = ProblemSpec.from_dict(SHIFT_PROBLEM).build()
    cfg = parse_solver_config(solver_raw)
    result = run(op, m, cfg)
    a = sum(np.kron(*term) for term in op.terms)
    w = np.linalg.eigh(a)[1][:, 0]
    shifted = a + cfg.nu * np.eye(a.shape[0])
    dists = []
    for u in result.iterates:
        u = u.to_dense()
        dists.append(min(np.sqrt((u - s * w) @ shifted @ (u - s * w))
                         for s in (1.0, -1.0)))
    return dists


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

    def test_seed_flag_is_not_an_option(self, tmp_path):
        """gen draws nothing at random from a solver seed."""
        cfg = write_config(tmp_path, PROBLEM)
        with pytest.raises(SystemExit) as info:
            main(["gen", "--config", cfg, "--out", str(tmp_path / "x.geig"),
                  "--seed", "3"])
        assert info.value.code == EXIT_CONFIG
        assert not (tmp_path / "x.geig").exists()

    def test_bad_spec_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"kind": "Nonsense"})
        assert main(["gen", "--config", cfg,
                     "--out", str(tmp_path / "x.geig")]) == EXIT_CONFIG

    @pytest.mark.parametrize("spec", [
        dict(PROBLEM, K=2.5),
        dict(PROBLEM, seed=-1),
        {"kind": "Separable", "sizes": [4, 5], "seed": -1},
        dict(PROBLEM, sizes=5),
        {"kind": "ExcitedTrap", "mu_02": "a"},
        {"kind": "FromFile", "path": "no/such/operator.geig"},
        dict(PROBLEM, sizes=[5, 5.5]),
        {"kind": "DegenerateLowest", "sizes": [5, 5], "multiplicity": 2.5},
        {"kind": "ExcitedTrap", "modes_per_dim": 3.5},
    ], ids=["K_float", "seed_negative", "separable_seed_negative",
            "sizes_scalar", "mu_string", "missing_file", "size_float",
            "multiplicity_float", "modes_float"])
    def test_bad_value_is_rejected_not_coerced(self, tmp_path, capsys, spec):
        """A value of the wrong type or range exits 2 with one error line
        and writes no file; it is neither truncated nor left to raise."""
        cfg = write_config(tmp_path, spec)
        out = tmp_path / "x.geig"
        assert main(["gen", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not out.exists()
        assert not (tmp_path / "x.geig.json").exists()

    @pytest.mark.parametrize("spec", [
        dict(PROBLEM, sizes=[200000, 2], K=1, seed=0),
        {"kind": "Separable", "sizes": [200000, 2]},
        {"kind": "DegenerateLowest", "sizes": [200, 200]},
        {"kind": "ExcitedTrap", "modes_per_dim": 100000},
    ], ids=["random_kronecker", "separable", "degenerate_lowest", "trap"])
    def test_oversized_problem_is_refused_before_allocating(
            self, tmp_path, capsys, monkeypatch, spec):
        """A generator whose arrays would exceed MAX_GEN_ENTRIES exits 2
        and writes nothing.  Every numpy call in the generators fails
        here, so a problem that got past the bound could not allocate."""

        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"a generator reached np.{name}")

        monkeypatch.setattr(problems, "np", NoNumpy())
        cfg = write_config(tmp_path, spec)
        out = tmp_path / "x.geig"
        assert main(["gen", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "float64 entries" in err[0], err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


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

    def test_err_vec_a_uses_the_solver_shift(self, tmp_path):
        """The file's metric has nu = 0; the solver runs at nu = 10, and
        err_vec_a must be measured in the run's shifted norm."""
        solver = {"variant": "residual", "nu": 10.0, "max_iter": 4,
                  "rng_seed": 3}
        cfg = write_config(tmp_path, {"problem": SHIFT_PROBLEM,
                                      "solver": solver, "oracle": True})
        out = str(tmp_path / "trace.csv")
        main(["solve", "--config", cfg, "--out", out])
        got = [float(r[ERR_VEC_A]) for r in read_csv(out)[1:]]
        assert got == pytest.approx(dense_err_vec_a(solver), rel=1e-9)

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

    def test_failure_before_the_first_step_exits_4(self, tmp_path, capsys,
                                                   monkeypatch):
        """A GreedyEigError that no step reports, here from the initial
        guess, is a failure of the solve: exit 4, one line, no file."""
        def fail(*args):
            raise AdmFailure("forced")

        monkeypatch.setattr(greedy, "adm_initial_guess", fail)
        cfg = write_config(tmp_path, {"problem": PROBLEM, "solver": {}})
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "t.csv")]) == EXIT_STEP_FAILURE
        assert capsys.readouterr().err.splitlines() == [
            "error: AdmFailure: forced"]
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

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
        for command, entry in (("solve", {"solver": {}}),
                               ("compare", {"variants": [{}]})):
            cfg = write_config(tmp_path, {"problem": PROBLEM, **entry})
            assert main([command, "--config", cfg]) == EXIT_CONFIG
            assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("solver", [
        pytest.param({"nu": float("nan")}, id="nu_nan"),
        pytest.param({"nu": True}, id="nu_bool"),
        pytest.param({"tol_lambda": True}, id="tol_lambda_bool"),
        pytest.param({"tol_residual": True}, id="tol_residual_bool"),
        pytest.param({"max_iter": 2.5}, id="max_iter_fractional"),
        pytest.param({"rng_seed": -1}, id="rng_seed_negative"),
        pytest.param({"rng_seed": 1.5}, id="rng_seed_fractional"),
        pytest.param({"orthogonal": "false"}, id="orthogonal_string"),
        pytest.param({"adm": {"max_sweeps": 60}}, id="adm_key_unknown"),
    ])
    def test_invalid_solver_value(self, tmp_path, solver):
        cfg = write_config(tmp_path, {"problem": PROBLEM, "solver": solver})
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG
        assert not (tmp_path / "t.csv").exists()

    def test_negative_seed_flag(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": PROBLEM, "solver": {}})
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / "t.csv"), "--seed", "-3"]) == EXIT_CONFIG
        assert not (tmp_path / "t.csv").exists()

    def test_non_boolean_oracle(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": PROBLEM, "solver": {},
                                      "oracle": "false"})
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("corrupt", ["nan_factor", "version_1",
                                         "trailing_bytes", "asymmetric_factor",
                                         "ill_conditioned_mass"])
    def test_corrupt_operator_file(self, tmp_path, corrupt):
        op, m = gen_random_kronecker(2, (4, 3), 2, seed=0)
        path = tmp_path / "op.geig"
        save_operator(op, m, str(path))
        data = bytearray(path.read_bytes())
        # header: magic, version, d, d sizes, K; then the float64 blocks
        if corrupt == "nan_factor":
            data[24:32] = struct.pack("<d", float("nan"))
        elif corrupt == "asymmetric_factor":
            # entry (0, 1) of the first 4 x 4 factor
            (entry,) = struct.unpack("<d", data[32:40])
            data[32:40] = struct.pack("<d", entry + 1.0)
        elif corrupt == "ill_conditioned_mass":
            # the first 4 x 4 mass follows both terms' 4 x 4 and 3 x 3 factors;
            # it factors, but its last pivot fails the solver's SPD test
            start = 24 + 8 * 2 * (16 + 9)
            mass = np.diag([1.0, 1.0, 1.0, 1e-13]).astype("<f8")
            data[start:start + 128] = mass.tobytes()
        elif corrupt == "version_1":
            # version 1 stored a shift nu after the masses
            data[4:8] = struct.pack("<I", 1)
            data += struct.pack("<d", 0.0)
        else:
            data += bytes(8)
        path.write_bytes(bytes(data))
        error = VersionError if corrupt == "version_1" else ParseError
        with pytest.raises(error):
            load_operator(path)
        cfg = write_config(tmp_path, {
            "problem": {"kind": "FromFile", "path": str(path)},
            "solver": {"max_iter": 2},
        })
        assert main(["solve", "--config", cfg,
                     "--out", str(tmp_path / "t.csv")]) == EXIT_CONFIG


class TestSolverConfig:
    """Every config field is a key of the solver config; a field added to
    GreedyConfig without an entry below fails here."""

    # field -> (JSON value, parsed value), neither the default
    SOLVER = {"variant": ("explicit", Variant.EXPLICIT),
              "orthogonal": (True, True), "nu": (0.5, 0.5),
              "max_iter": (7, 7), "tol_lambda": (1e-9, 1e-9),
              "tol_residual": (1e-7, 1e-7), "rng_seed": (11, 11)}

    @pytest.mark.parametrize("name", [f.name for f in fields(GreedyConfig)])
    def test_solver_field_round_trips(self, name):
        raw, parsed = self.SOLVER[name]
        want = replace(GreedyConfig(), **{name: parsed})
        assert want != GreedyConfig()
        assert parse_solver_config({name: raw}) == want


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

    def test_err_vec_a_uses_each_variant_shift(self, tmp_path):
        variants = [{"variant": "residual", "nu": nu, "max_iter": 4,
                     "rng_seed": 3} for nu in (0.0, 10.0)]
        variants[1]["orthogonal"] = True
        cfg = write_config(tmp_path, {"problem": SHIFT_PROBLEM,
                                      "variants": variants, "oracle": True})
        out = str(tmp_path / "cmp.csv")
        assert main(["compare", "--config", cfg, "--out", out]) == EXIT_OK
        rows = read_csv(out)[1:]
        for label, solver in (("residual", variants[0]),
                              ("orthogonal-residual", variants[1])):
            got = [float(r[1 + ERR_VEC_A]) for r in rows if r[0] == label]
            assert got == pytest.approx(dense_err_vec_a(solver), rel=1e-9)

    def test_non_boolean_oracle(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": PROBLEM,
                                      "variants": [{"max_iter": 5}],
                                      "oracle": 1})
        assert main(["compare", "--config", cfg,
                     "--out", str(tmp_path / "c.csv")]) == EXIT_CONFIG
        assert not (tmp_path / "c.csv").exists()

    def test_spd_masses_of_condition_1e3(self, tmp_path):
        """SPD masses of condition 1e3 on each axis, written through
        save_operator: the Rayleigh rule in both flavours and the residual
        rule, with the dense oracle.  No row fails, every err_* cell is
        finite, and no recorded lambda lies below mu1."""
        op, _ = gen_random_kronecker(2, (12, 10), 2, seed=1)
        rng = np.random.default_rng(5)
        qs = [np.linalg.qr(rng.standard_normal((n, n)))[0] for n in op.sizes]
        masses = [(q * np.geomspace(10 ** -1.5, 10 ** 1.5, len(q))) @ q.T
                  for q in qs]
        path = str(tmp_path / "mass.geig")
        save_operator(op, MetricSet([0.5 * (w + w.T) for w in masses]), path)
        cfg = write_config(tmp_path, {
            "problem": {"kind": "FromFile", "path": path}, "oracle": True,
            "variants": [
                {"variant": "rayleigh", "max_iter": 60, "rng_seed": 3},
                {"variant": "rayleigh", "orthogonal": True, "max_iter": 60,
                 "rng_seed": 3},
                {"variant": "residual", "max_iter": 60, "rng_seed": 3},
            ],
        })
        out = str(tmp_path / "mass.csv")
        assert main(["compare", "--config", cfg, "--out", out]) == EXIT_OK
        mu1 = dense_reference(*load_operator(path)).mu1
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert {r["variant"] for r in rows} == {
            "rayleigh", "orthogonal-rayleigh", "residual"}
        assert not [r for r in rows if r["reason"].startswith("failed:")]
        cells = [r[k] for r in rows for k in r if k.startswith("err_")]
        assert cells and all(c and math.isfinite(float(c)) for c in cells)
        lowest = min(float(r["lambda_n"]) for r in rows)
        assert lowest >= mu1 - 1e-9 * (1 + abs(mu1))
        # a run that ends in a step failure is no pass either
        last = {r["variant"]: r["reason"] for r in rows}
        assert set(last.values()) <= {
            "converged_lambda", "converged_residual", "max_iter"}, last

    def test_duplicate_labels_rejected(self, tmp_path, capsys, monkeypatch):
        """Rows carry only the rule and flavour, so two variants that
        differ in nu alone would write rows no one can tell apart."""
        monkeypatch.setattr(ProblemSpec, "build",
                            lambda spec: pytest.fail("problem was built"))
        cfg = write_config(tmp_path, {
            "problem": PROBLEM,
            "variants": [{"variant": "residual", "nu": nu, "max_iter": 3}
                         for nu in (1.0, 10.0)],
        })
        assert main(["compare", "--config", cfg,
                     "--out", str(tmp_path / "c.csv")]) == EXIT_CONFIG
        assert "residual" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

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


class TestCompareFailedRun:
    def test_failed_variant_row_is_as_wide_as_the_header(self, tmp_path,
                                                         monkeypatch):
        """A variant whose run raises writes one row with every column,
        and the failure lands whole in the reason column, also when its
        message holds a comma and a quote."""
        cfg = write_config(tmp_path, {"problem": PROBLEM,
                                      "variants": [{"max_iter": 2}]})
        out = str(tmp_path / "c.csv")
        for message in ("forced", 'forced, with a "comma"'):
            def fail(*args, message=message, **kwargs):
                raise DegenerateIterate(message)

            monkeypatch.setattr("greedy_eig.cli.run", fail)
            assert main(["compare", "--config", cfg, "--out", out]) == EXIT_OK
            header, row = read_csv(out)
            assert len(row) == len(header)
            assert row[-1] == f"failed: DegenerateIterate: {message}"
            with open(out, newline="") as fh:
                assert [None in r for r in csv.DictReader(fh)] == [False]


class TestRefusedBeforeWriting:
    """Configs that the commands refuse with exit code 2 before they write
    anything."""

    RUN_ENTRY = {"solve": {"solver": {}}, "compare": {"variants": [{}]}}

    @pytest.mark.parametrize("command", ["gen", "solve", "compare"])
    def test_config_not_utf8(self, tmp_path, capsys, command):
        """A 0xff byte, which no UTF-8 text holds, is a parse error that the
        command reports on one line, whatever the locale's encoding."""
        payload = PROBLEM if command == "gen" else {
            "problem": PROBLEM, **self.RUN_ENTRY[command]}
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(json.dumps(payload).encode().replace(
            b"Random", b"Random\xff"))
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg),
                     "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "UTF-8" in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command,payload", [
        ("gen", ["RandomKronecker"]),
        ("gen", {"sizes": [4, 4]}),
        ("solve", {"problem": ["RandomKronecker"], "solver": {}}),
        ("solve", {"problem": {"sizes": [4, 4]}, "solver": {}}),
        ("solve", {"solver": {}}),
        ("solve", {"problem": PROBLEM}),
        ("compare", {"problem": PROBLEM}),
        ("compare", {"variants": [{}]}),
        ("solve", [PROBLEM]),
        ("compare", "config"),
    ], ids=["spec_not_mapping", "spec_without_kind",
            "run_spec_not_mapping", "run_spec_without_kind",
            "run_without_problem", "run_without_solver",
            "compare_without_variants", "compare_without_problem",
            "run_config_a_list", "compare_config_a_string"])
    def test_malformed_config(self, tmp_path, capsys, command, payload):
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg,
                     "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("output", [2, True, ["a"]])
    def test_non_string_output(self, tmp_path, monkeypatch, command, output):
        """An integer or true would name an open file descriptor."""
        monkeypatch.setattr("greedy_eig.cli.run",
                            lambda *args: pytest.fail("a solve ran"))
        cfg = write_config(tmp_path, {"problem": PROBLEM,
                                      **self.RUN_ENTRY[command],
                                      "output": output})
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_oracle_size_guard(self, tmp_path, command):
        """A problem too large for the dense oracle is a config refusal,
        not a step failure: no step has run."""
        cfg = write_config(tmp_path, {"problem": dict(PROBLEM, sizes=[70, 70]),
                                      **self.RUN_ENTRY[command],
                                      "oracle": True})
        out = tmp_path / "t.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()


class TestEndToEnd:
    """Problems written by ``gen`` and solved through ``main``, as a user
    would run them.  Besides each check's own conditions, no run may end
    in a step failure."""

    def gen_and_solve(self, tmp_path, spec, solver, oracle=False):
        """(exit code, summary, trace rows) of ``solve`` on ``spec``."""
        op_path = str(tmp_path / "op.geig")
        assert main(["gen", "--config", write_config(tmp_path, spec, "p.json"),
                     "--out", op_path]) == EXIT_OK
        cfg = write_config(tmp_path, {
            "problem": {"kind": "FromFile", "path": op_path},
            "solver": solver, "oracle": oracle}, "run.json")
        out = str(tmp_path / "trace.csv")
        rc = main(["solve", "--config", cfg, "--out", out])
        with open(out + ".json") as fh:
            summary = json.load(fh)
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert not summary["reason"].startswith("step_failure"), summary
        return rc, summary, rows

    def test_d3_above_the_dense_residual_limit(self, tmp_path):
        """16 x 16 x 17 = 4,352 entries: the residual is read from Grams
        grown with the basis, and every eig_residual_h is finite and
        positive."""
        rc, _, rows = self.gen_and_solve(
            tmp_path, {"kind": "RandomKronecker", "d": 3,
                       "sizes": [16, 16, 17], "K": 2, "seed": 1},
            {"max_iter": 30})
        cells = [float(r["eig_residual_h"]) for r in rows]
        assert rc in (EXIT_OK, EXIT_ITER_CAP)
        assert cells and all(math.isfinite(c) and c > 0 for c in cells)

    def test_d3_with_the_dense_oracle(self, tmp_path):
        """Every err_* and eig_residual_h cell is filled and finite, and
        lambda is not below mu1."""
        rc, summary, rows = self.gen_and_solve(
            tmp_path, {"kind": "RandomKronecker", "d": 3,
                       "sizes": [8, 9, 10], "K": 2, "seed": 1},
            {"max_iter": 30, "rng_seed": 3}, oracle=True)
        cells = [r[k] for r in rows for k in r
                 if k.startswith("err_") or k == "eig_residual_h"]
        mu1 = summary["mu1"]
        assert rc in (EXIT_OK, EXIT_ITER_CAP)
        assert rows and all(c and math.isfinite(float(c)) for c in cells)
        assert summary["lambda"] >= mu1 - 1e-9 * (1 + abs(mu1))

    def test_orthogonal_basis_that_spans_the_space(self, tmp_path):
        """A 9-dimensional problem: once the orthogonal basis spans the
        space a correction adds nothing, and the run still converges."""
        rc, _, _ = self.gen_and_solve(
            tmp_path, {"kind": "RandomKronecker", "d": 2, "sizes": [3, 3],
                       "K": 2, "seed": 0},
            {"variant": "residual", "orthogonal": True, "max_iter": 30,
             "rng_seed": 1, "tol_lambda": 1e-13, "tol_residual": 1e-15})
        assert rc == EXIT_OK

    @pytest.mark.parametrize("modes,solver", [
        (4, {"max_iter": 60, "rng_seed": 3}),
        # seed 2 starts the first Rayleigh correction where a direction
        # update has no minimizer, and the ADM solve reseeds
        (3, {"max_iter": 30, "rng_seed": 2}),
    ], ids=["4_modes", "3_modes_seed_2"])
    def test_excited_trap_stays_above_its_minimum(self, tmp_path, modes,
                                                  solver):
        """The trap's dense minimum is mu_02 = 1: no run reports less."""
        rc, summary, _ = self.gen_and_solve(
            tmp_path, {"kind": "ExcitedTrap", "modes_per_dim": modes}, solver)
        assert rc in (EXIT_OK, EXIT_ITER_CAP)
        assert summary["lambda"] >= 1 - 1e-9
