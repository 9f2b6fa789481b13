"""Problem generators and operator file round-trips."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greedy_eig import problems
from greedy_eig.adm import AdmConfig, adm_initial_guess
from greedy_eig.errors import InvalidSpec, ParseError, VersionError
from greedy_eig.problems import (
    FORMAT_MAGIC,
    ProblemSpec,
    gen_degenerate_lowest,
    gen_excited_trap,
    gen_random_kronecker,
    gen_separable,
    kronecker_decompose,
    load_operator,
    save_operator,
)
from greedy_eig.reference_oracle import dense_assemble, dense_reference
from greedy_eig.tensor_core import MetricSet, TensorSum, rayleigh


class TestRandomKronecker:
    def test_requested_shape(self):
        op, m = gen_random_kronecker(2, (51, 51), 2, seed=1)
        assert op.sizes == (51, 51)
        assert op.num_terms == 2

    def test_determinism(self):
        op1, _ = gen_random_kronecker(2, (6, 5), 3, seed=9)
        op2, _ = gen_random_kronecker(2, (6, 5), 3, seed=9)
        for t1, t2 in zip(op1.terms, op2.terms):
            for f1, f2 in zip(t1, t2):
                assert np.array_equal(f1, f2)

    def test_dense_assembly_is_spd(self):
        op, m = gen_random_kronecker(2, (8, 8), 2, seed=0)
        a, _ = dense_assemble(op, m)
        np.linalg.cholesky(a)  # raises if not SPD

    def test_factors_are_spd(self):
        op, _ = gen_random_kronecker(3, (4, 5, 6), 2, seed=2)
        for term in op.terms:
            for f in term:
                assert np.linalg.eigvalsh(f)[0] > 0

    def test_invalid_k(self):
        with pytest.raises(InvalidSpec):
            gen_random_kronecker(2, (4, 4), 0, seed=0)


class TestSeparable:
    def test_diagonal_case(self):
        op = gen_separable([np.diag([1.0, 2.0]), np.diag([1.0, 2.0])])
        m = MetricSet.identity(op.sizes)
        ref = dense_reference(op, m)
        assert ref.mu1 == pytest.approx(2.0)
        ground = np.abs(ref.eigenspace[:, 0])
        assert np.argmax(ground) == 0  # e_1 x e_1 in flat ordering

    def test_ground_state_factors(self):
        """Lowest eigenvector of the sum operator is an outer product."""
        rng = np.random.default_rng(14)
        mats = []
        for _ in range(3):
            g = rng.standard_normal((4, 4))
            mats.append(0.5 * (g + g.T) + np.diag(np.arange(4.0)))
        op = gen_separable(mats)
        m = MetricSet.identity(op.sizes)
        ref = dense_reference(op, m)
        expected_val = sum(np.linalg.eigvalsh(d)[0] for d in mats)
        assert ref.mu1 == pytest.approx(expected_val, abs=1e-10)
        outer = np.array([1.0])
        for d in mats:
            w, v = np.linalg.eigh(d)
            outer = np.kron(outer, v[:, 0])
        overlap = abs(outer @ ref.eigenspace[:, 0])
        assert overlap == pytest.approx(1.0, abs=1e-10)


class TestKroneckerDecompose:
    def test_round_trip(self):
        rng = np.random.default_rng(15)
        n1, n2 = 3, 4
        # build a block-symmetric matrix from symmetric Kronecker terms
        dense = np.zeros((12, 12))
        for _ in range(3):
            f1 = rng.standard_normal((n1, n1))
            f2 = rng.standard_normal((n2, n2))
            dense += np.kron(0.5 * (f1 + f1.T), 0.5 * (f2 + f2.T))
        op = kronecker_decompose(dense, (n1, n2))
        back, _ = dense_assemble(op, MetricSet.identity((n1, n2)))
        assert np.allclose(back, dense, atol=1e-12)

    def test_rejects_unstructured_symmetric_matrix(self):
        rng = np.random.default_rng(16)
        g = rng.standard_normal((6, 6))
        with pytest.raises(InvalidSpec):
            kronecker_decompose(0.5 * (g + g.T), (2, 3))


class TestDegenerateLowest:
    def test_multiplicity_two(self):
        op, m = gen_degenerate_lowest((6, 6), 2, seed=3)
        ref = dense_reference(op, m)
        assert ref.eigenspace.shape[1] == 2
        assert ref.gap > 0.4

    def test_multiplicity_one_is_generic(self):
        op, m = gen_degenerate_lowest((5, 5), 1, seed=4)
        ref = dense_reference(op, m)
        assert ref.eigenspace.shape[1] == 1

    def test_determinism(self):
        op1, _ = gen_degenerate_lowest((6, 6), 2, seed=3)
        op2, _ = gen_degenerate_lowest((6, 6), 2, seed=3)
        for t1, t2 in zip(op1.terms, op2.terms):
            for f1, f2 in zip(t1, t2):
                assert np.array_equal(f1, f2)

    def test_incompatible_multiplicity(self):
        with pytest.raises(InvalidSpec):
            gen_degenerate_lowest((6, 6), 5, seed=0)
        with pytest.raises(InvalidSpec):
            gen_degenerate_lowest((2, 2), 4, seed=0)


def dense_trap(mu_02, mu_11, mu_20, M_shift, n):
    """The trap's operator built level by level, as the sum of mu v v^T over
    its eigenpairs (mu, v): the reference for the Kronecker-sum build."""
    def mid(k, l):
        return M_shift + 0.75 * (1 + k * k) * (1 + l * l)

    def e(k, l):
        v = np.zeros((n, n))
        v[k, l] = 1.0
        return v.ravel()

    s2 = 1.0 / np.sqrt(2.0)
    mu_p = mid(0, 0)
    levels = [(s2 * (e(0, 2) + e(2, 0)), mu_02),
              (s2 * (e(0, 2) - e(2, 0)), mu_20),
              (s2 * (e(0, 0) + e(2, 2)), mu_p),
              (s2 * (e(0, 0) - e(2, 2)), mu_p + mu_20 - mu_02),
              (e(1, 1), mu_11)]
    special = {(0, 2), (2, 0), (0, 0), (2, 2), (1, 1)}
    levels += [(e(k, l), mid(k, l)) for k in range(n) for l in range(n)
               if (k, l) not in special]
    return sum(mu * np.outer(v, v) for v, mu in levels)


class TestExcitedTrap:
    def test_default_parameters_certify(self):
        op, m = gen_excited_trap(1.0, 2.0, 17.0, 20.0, 3)
        ref = dense_reference(op, m)
        assert ref.mu1 == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("modes", [3, 4, 5, 6])
    def test_certifies_every_size(self, modes):
        """mu_02 is the dense minimum and mu_11, on e_1 x e_1, the best
        rank-one value.  From 5 modes on, random samples and ADM runs all
        stall at 9.0, so only the coordinate elements certify the trap.
        The n diagonal terms and one coupling term are the operator built
        level by level."""
        op, m = gen_excited_trap(1.0, 2.0, 17.0, 20.0, modes)
        a, _ = dense_assemble(op, m)
        reference = dense_trap(1.0, 2.0, 17.0, 20.0, modes)
        assert np.max(np.abs(a - reference)) <= 1e-13
        assert op.num_terms == modes + 1
        assert dense_reference(op, m).mu1 == pytest.approx(1.0, abs=1e-9)
        e1 = np.eye(modes)[1]
        e11 = TensorSum.rank_one([e1, e1])
        assert rayleigh(op, m, e11) == pytest.approx(2.0, abs=1e-12)
        for seed in range(3):
            out = adm_initial_guess(op, m, AdmConfig(),
                                    np.random.default_rng(seed))
            assert out.objective >= 2.0 - 1e-8

    def test_guard_ordering(self):
        with pytest.raises(InvalidSpec):
            gen_excited_trap(2.0, 1.0, 17.0, 20.0, 3)

    def test_guard_gap_condition(self):
        # violates mu_20 > mu_02 + 2 mu_11
        with pytest.raises(InvalidSpec):
            gen_excited_trap(1.0, 2.0, 4.9, 20.0, 3)

    def test_guard_band(self):
        # split too small for the paired level's admissible band
        with pytest.raises(InvalidSpec):
            gen_excited_trap(1.0, 2.0, 9.0, 20.0, 3)


@pytest.fixture(scope="module")
def operator_file(tmp_path_factory):
    """A valid operator file and its bytes; the fuzz test overwrites it."""
    path = tmp_path_factory.mktemp("fuzz") / "op.geig"
    op, m = gen_random_kronecker(2, (3, 2), 2, seed=0)
    save_operator(op, m, path)
    return path, path.read_bytes()


def damaged(data):
    """Byte strings made from a valid file: bytes overwritten, the file cut
    short, random bytes, or a valid header followed by random bytes."""
    n = len(data)

    def overwrite(edits):
        out = bytearray(data)
        for pos, value in edits:
            out[pos] = value
        return bytes(out)

    header = 4 + 4 + 4 + 2 * 4 + 4   # magic, version, d, 2 sizes, K
    return st.one_of(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 255)),
                 min_size=1, max_size=8).map(overwrite),
        st.integers(0, n - 1).map(lambda k: data[:k]),
        st.binary(max_size=2 * n),
        st.binary(max_size=2 * n).map(lambda tail: data[:header] + tail),
    )


class TestSerialization:
    @settings(database=None, derandomize=True, deadline=None,
              max_examples=300)
    @given(data=st.data())
    def test_damaged_file_raises_only_parse_or_version_error(
            self, operator_file, data):
        path, valid = operator_file
        path.write_bytes(data.draw(damaged(valid)))
        try:
            load_operator(path)
        except (ParseError, VersionError):
            pass

    def test_round_trip(self, tmp_path):
        op, m = gen_random_kronecker(2, (4, 5), 2, seed=6)
        path = tmp_path / "op.geig"
        save_operator(op, m, path)
        op2, m2 = load_operator(path)
        assert op2.sizes == op.sizes
        for t1, t2 in zip(op.terms, op2.terms):
            for f1, f2 in zip(t1, t2):
                assert np.array_equal(f1, f2)
        for m1, m2_ in zip(m.masses, m2.masses):
            assert np.array_equal(m1, m2_)

    def test_sidecar_written(self, tmp_path):
        import json

        op, m = gen_random_kronecker(2, (3, 3), 1, seed=0)
        path = tmp_path / "op.geig"
        save_operator(op, m, path)
        meta = json.loads((path.parent / "op.geig.json").read_text())
        assert meta["sizes"] == [3, 3]
        assert meta["format"] == FORMAT_MAGIC.decode()
        assert meta["version"] == 2
        assert "nu" not in meta

    def test_truncated_file(self, tmp_path):
        op, m = gen_random_kronecker(2, (3, 3), 1, seed=0)
        path = tmp_path / "op.geig"
        save_operator(op, m, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ParseError) as exc:
            load_operator(path)
        assert exc.value.offset is not None

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "op.geig"
        path.write_bytes(b"NOPE" + b"\x00" * 100)
        with pytest.raises(ParseError):
            load_operator(path)

    def test_version_mismatch(self, tmp_path):
        import struct

        op, m = gen_random_kronecker(2, (3, 3), 1, seed=0)
        path = tmp_path / "op.geig"
        save_operator(op, m, path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(VersionError):
            load_operator(path)


class TestProblemSpec:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            ProblemSpec("Nonsense", {})
        with pytest.raises(InvalidSpec):   # a JSON list is not hashable
            ProblemSpec.from_dict({"kind": ["RandomKronecker"]})

    def test_unknown_key(self):
        with pytest.raises(InvalidSpec):
            ProblemSpec("RandomKronecker",
                        {"d": 2, "sizes": [4, 4], "K": 1, "seed": 0, "x": 1})

    def test_missing_key(self):
        with pytest.raises(InvalidSpec):
            ProblemSpec("RandomKronecker", {"d": 2})

    def test_build_random(self):
        spec = ProblemSpec("RandomKronecker",
                           {"d": 2, "sizes": [4, 4], "K": 2, "seed": 5})
        op, m = spec.build()
        assert op.sizes == (4, 4)

    def test_build_from_file(self, tmp_path):
        op, m = gen_random_kronecker(2, (3, 4), 1, seed=8)
        path = tmp_path / "x.geig"
        save_operator(op, m, path)
        spec = ProblemSpec("FromFile", {"path": str(path)})
        op2, _ = spec.build()
        assert op2.sizes == (3, 4)

    def test_trap_defaults(self):
        """Every kind with defaults takes them, as documented, from its
        builder's signature."""
        spec = ProblemSpec("ExcitedTrap", {})
        assert spec.params["mu_11"] == 2.0
        for kind, given, defaults, builder in (
            ("ExcitedTrap", {}, {"mu_02": 1.0, "mu_11": 2.0, "mu_20": 17.0,
                                 "M_shift": 20.0, "modes_per_dim": 3},
             gen_excited_trap),
            ("Separable", {"sizes": [3, 3]}, {"seed": 0},
             problems._random_separable),
            ("DegenerateLowest", {"sizes": [4, 4]},
             {"multiplicity": 2, "seed": 0}, gen_degenerate_lowest),
        ):
            assert ProblemSpec(kind, given).params == {**given, **defaults}
            params = inspect.signature(builder).parameters
            assert {k: params[k].default for k in defaults} == defaults

    def test_build_looks_up_the_builder_by_name(self, monkeypatch):
        """A wrapper put in place of a module generator is what a spec
        calls, and the wrapped signature still gives the parameters."""
        calls = []
        original = problems.gen_random_kronecker

        def wrapper(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        wrapper.__wrapped__ = original
        monkeypatch.setattr(problems, "gen_random_kronecker", wrapper)
        spec = ProblemSpec("RandomKronecker",
                           {"d": 2, "sizes": [3, 3], "K": 1, "seed": 0})
        op, _ = spec.build()
        assert calls == [spec.params]
        assert op.sizes == (3, 3)
