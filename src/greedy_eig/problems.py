"""Deterministic problem generators and operator (de)serialization.

All generators return a Kronecker-sum operator together with its metric and
are bit-reproducible for a fixed seed.  The trap generator builds an operator
whose best rank-one Rayleigh value sits strictly above the true minimum, so
greedy runs stagnate at an excited level; it certifies that property
numerically before returning.
"""

from __future__ import annotations

import inspect
import itertools
import json
import numbers
import struct
from dataclasses import dataclass, field

import numpy as np

from .adm import AdmConfig, adm_initial_guess, require_count
from .errors import InvalidSpec, ParseError, StructuralError, VersionError
from .tensor_core import (
    KroneckerSumOperator,
    MetricSet,
    TensorSum,
    rayleigh,
)

FORMAT_MAGIC = b"GEIG"
FORMAT_VERSION = 2


# ---------------------------------------------------------------------------
# generators

def _random_spd(n: int, rng) -> np.ndarray:
    """Q diag(lam) Q^T with lam uniform in [0.5, 10] and Q a random rotation."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = rng.uniform(0.5, 10.0, size=n)
    return (q * lam) @ q.T


def gen_random_kronecker(d: int, sizes, K: int, seed: int):
    """Random SPD-factor Kronecker sum with the identity metric."""
    require_count("d", d, least=2)
    require_count("K", K)
    sizes = tuple(require_count("each size", n, least=2) for n in sizes)
    if len(sizes) != d:
        raise InvalidSpec(f"expected {d} sizes, got {len(sizes)}")
    rng = np.random.default_rng(require_count("seed", seed, least=0))
    terms = [[_random_spd(n, rng) for n in sizes] for _ in range(K)]
    return KroneckerSumOperator(terms), MetricSet.identity(sizes)


def gen_separable(one_body) -> KroneckerSumOperator:
    """Sum of one-body operators: sum_j I x ... x D_j x ... x I.

    When each D_j has a simple lowest eigenvalue the ground state of the
    assembled operator is exactly the outer product of the factor ground
    states.
    """
    mats = [np.asarray(m, dtype=float) for m in one_body]
    if len(mats) < 2:
        raise InvalidSpec("separable operator needs at least two dimensions")
    sizes = [m.shape[0] for m in mats]
    terms = []
    for j, dj in enumerate(mats):
        term = [np.eye(n) for n in sizes]
        term[j] = dj
        terms.append(term)
    return KroneckerSumOperator(terms)


def _random_separable(sizes, seed=0):
    """Separable operator whose one-body terms are seeded symmetric Gaussian
    matrices plus diag(1, ..., n), with the identity metric."""
    rng = np.random.default_rng(require_count("seed", seed, least=0))
    sizes = [require_count("each size", n) for n in sizes]
    gs = [rng.standard_normal((n, n)) for n in sizes]
    op = gen_separable([0.5 * (g + g.T) + np.diag(np.arange(1.0, len(g) + 1))
                        for g in gs])
    return op, MetricSet.identity(op.sizes)


def _partial_transpose(dense: np.ndarray, n1: int, n2: int) -> np.ndarray:
    """Transpose the second tensor slot of a matrix on a 2-fold product space."""
    t = dense.reshape(n1, n2, n1, n2)
    return np.ascontiguousarray(t.transpose(0, 3, 2, 1)).reshape(n1 * n2, n1 * n2)


def kronecker_decompose(dense: np.ndarray, sizes) -> KroneckerSumOperator:
    """Exact Kronecker-sum decomposition of a block-symmetric dense matrix.

    Requires d = 2 and the partial-transpose symmetry that makes every block
    B_(i,i') symmetric; symmetric dense matrices built from sums of
    symmetric-factor Kronecker products always satisfy it.
    """
    n1, n2 = (int(n) for n in sizes)
    dense = np.asarray(dense, dtype=float)
    if dense.shape != (n1 * n2, n1 * n2):
        raise InvalidSpec("dense matrix shape does not match sizes")
    pt_gap = np.max(np.abs(dense - _partial_transpose(dense, n1, n2)))
    if pt_gap > 1e-10 * (1.0 + np.max(np.abs(dense))):
        raise InvalidSpec(
            f"matrix lacks block symmetry (defect {pt_gap:.3e}); it has no "
            "Kronecker-sum decomposition with symmetric factors"
        )
    terms = []
    for i in range(n1):
        for ip in range(i, n1):
            block = dense[i * n2:(i + 1) * n2, ip * n2:(ip + 1) * n2]
            block = 0.5 * (block + block.T)
            if np.max(np.abs(block)) == 0.0:
                continue
            e = np.zeros((n1, n1))
            e[i, ip] = e[ip, i] = 1.0
            terms.append([e, block])
    if not terms:
        raise InvalidSpec("zero matrix has no nontrivial decomposition")
    return KroneckerSumOperator(terms)


def gen_degenerate_lowest(sizes, multiplicity: int = 2, seed: int = 0):
    """Operator with a prescribed multiplicity of the lowest eigenvalue.

    A seeded dense symmetric matrix is driven by alternating projection onto
    (a) the block-symmetric subspace that admits an exact symmetric-factor
    Kronecker decomposition and (b) the set of matrices whose lowest
    eigenvalue has the requested multiplicity with a unit spectral gap.
    """
    sizes = tuple(require_count("each size", n) for n in sizes)
    if len(sizes) != 2:
        raise InvalidSpec("degenerate generator supports two dimensions")
    mult = require_count("multiplicity", multiplicity)
    dim = sizes[0] * sizes[1]
    if mult > 4 or mult >= dim:
        raise InvalidSpec(
            f"multiplicity {mult} incompatible with sizes {sizes} (need 1..4, < {dim})"
        )
    rng = np.random.default_rng(require_count("seed", seed, least=0))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    vals = np.sort(rng.uniform(3.0, 9.0, size=dim))
    vals[:mult] = 1.0
    a = (q * vals) @ q.T

    n1, n2 = sizes
    for _ in range(5000):
        # project onto the block-symmetric subspace
        a = 0.5 * (a + _partial_transpose(a, n1, n2))
        a = 0.5 * (a + a.T)
        # project onto the prescribed-spectrum set
        w, v = np.linalg.eigh(a)
        target = w.copy()
        target[:mult] = np.mean(w[:mult])
        floor = target[0] + 1.0
        target[mult:] = np.maximum(w[mult:], floor)
        a_new = (v * target) @ v.T
        if np.max(np.abs(a_new - a)) < 1e-13:
            a = a_new
            break
        a = a_new
    a = 0.5 * (a + _partial_transpose(a, n1, n2))
    a = 0.5 * (a + a.T)
    w = np.linalg.eigvalsh(a)
    spread = w[mult - 1] - w[0]
    if spread > 1e-9 or (mult < dim and w[mult] - w[mult - 1] < 0.5):
        raise InvalidSpec(
            f"degenerate synthesis failed: cluster spread {spread:.3e}, "
            f"gap {w[mult] - w[mult - 1]:.3e}"
        )
    return kronecker_decompose(a, sizes), MetricSet.identity(sizes)


def _certify_trap(op: KroneckerSumOperator, m: MetricSet, mu_02: float,
                  mu_11: float) -> None:
    """Check mu_11 is the rank-one minimum and sits above the dense minimum.

    Random samples and ADM runs search below mu_11; the coordinate elements
    e_k x e_l include e_1 x e_1, which attains it and which both may miss.
    """
    sizes = op.sizes
    rng = np.random.default_rng(2024)
    best = np.inf
    for _ in range(2000):
        z = TensorSum.rank_one([rng.standard_normal(n) for n in sizes])
        best = min(best, rayleigh(op, m, z))
    for k, l in itertools.product(range(sizes[0]), range(sizes[1])):
        z = TensorSum.rank_one([np.eye(sizes[0])[k], np.eye(sizes[1])[l]])
        best = min(best, rayleigh(op, m, z))
    for attempt in range(8):
        out = adm_initial_guess(op, m, AdmConfig(),
                                np.random.default_rng(attempt))
        best = min(best, out.objective)
    if best < mu_11 - 1e-8:
        raise InvalidSpec(
            f"trap certification failed: found rank-one Rayleigh value "
            f"{best:.12g} below the intended floor {mu_11}"
        )
    if abs(best - mu_11) > 1e-6:
        raise InvalidSpec(
            f"trap certification failed: rank-one minimum {best:.12g} does "
            f"not attain the intended floor {mu_11}"
        )
    if not mu_11 > mu_02:
        raise InvalidSpec("rank-one floor does not exceed the dense minimum")


def gen_excited_trap(mu_02: float = 1.0, mu_11: float = 2.0,
                     mu_20: float = 17.0, M_shift: float = 20.0,
                     modes_per_dim: int = 3):
    """Two-dimensional operator trapping greedy runs at an excited level.

    The dense minimum mu_02 lives on the entangled state
    (e0 x e2 + e2 x e0)/sqrt(2), unreachable by rank-one elements, while the
    best rank-one value is mu_11 on e1 x e1.  The two symmetric/antisymmetric
    pairs over {e0 x e2, e2 x e0} and {e0 x e0, e2 x e2} are split by the
    same amount, so both couplings are the one term -split/2 S x S with
    S = E_02 + E_20; every other mode pair sits at the middle of its band.
    """
    real = all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               for v in (mu_02, mu_11, mu_20, M_shift))
    if not (real and 0 < mu_02 < mu_11 < mu_20 < M_shift):
        raise InvalidSpec(
            f"need numbers 0 < mu_02 < mu_11 < mu_20 < M_shift, got "
            f"({mu_02!r}, {mu_11!r}, {mu_20!r}, {M_shift!r})"
        )
    if not mu_20 > mu_02 + 2.0 * mu_11:
        raise InvalidSpec(
            f"need mu_20 > mu_02 + 2*mu_11, got {mu_20} <= {mu_02 + 2 * mu_11}"
        )
    n = require_count("modes_per_dim", modes_per_dim, least=3)

    def band(k, l):
        lo = M_shift + 0.5 * (1 + k * k) * (1 + l * l)
        hi = M_shift + (1 + k * k) * (1 + l * l)
        return lo, hi

    split = mu_20 - mu_02
    mu_p = 0.5 * sum(band(0, 0))
    mu_q = mu_p + split
    lo_q, hi_q = band(2, 2)
    if not (lo_q <= mu_q <= hi_q):
        raise InvalidSpec(
            f"splitting mu_20 - mu_02 = {split} pushes the paired level to "
            f"{mu_q}, outside its admissible band [{lo_q}, {hi_q}]"
        )

    # a split pair {mu, mu'} has diagonal (mu + mu')/2 and coupling
    # (mu - mu')/2 = -split/2
    levels = np.array([[0.5 * sum(band(k, l)) for l in range(n)]
                       for k in range(n)])
    levels[1, 1] = mu_11
    levels[0, 2] = levels[2, 0] = 0.5 * (mu_02 + mu_20)
    levels[0, 0] = levels[2, 2] = 0.5 * (mu_p + mu_q)
    s = np.zeros((n, n))
    s[0, 2] = s[2, 0] = 1.0
    terms = [[np.diag(np.eye(n)[k]), np.diag(levels[k])] for k in range(n)]
    op = KroneckerSumOperator(terms + [[s, -0.5 * split * s]])
    m = MetricSet.identity((n, n))
    w = np.linalg.eigvalsh(sum(np.kron(a, b) for a, b in op.terms))
    if abs(w[0] - mu_02) > 1e-9:
        raise InvalidSpec(
            f"dense minimum {w[0]:.12g} does not equal mu_02 = {mu_02}"
        )
    _certify_trap(op, m, mu_02, mu_11)
    return op, m


# ---------------------------------------------------------------------------
# serialization

def save_operator(op: KroneckerSumOperator, m: MetricSet, path) -> None:
    """Write the operator and metric to a versioned binary file.

    Layout: magic "GEIG", u32 version, u32 d, u32 sizes[d], u32 K, the
    K*d factor blocks and the d metric blocks (all row-major little-endian
    float64).  A JSON sidecar at ``path + ".json"`` mirrors the metadata.
    """
    path = str(path)
    if op.sizes != m.sizes:
        raise InvalidSpec("operator and metric sizes disagree")
    parts = [FORMAT_MAGIC, struct.pack("<I", FORMAT_VERSION)]
    parts.append(struct.pack("<I", op.d))
    parts.append(struct.pack(f"<{op.d}I", *op.sizes))
    parts.append(struct.pack("<I", op.num_terms))
    for term in op.terms:
        for f in term:
            parts.append(np.ascontiguousarray(f, dtype="<f8").tobytes())
    for mm in m.masses:
        parts.append(np.ascontiguousarray(mm, dtype="<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))
    sidecar = {
        "format": FORMAT_MAGIC.decode(),
        "version": FORMAT_VERSION,
        "d": op.d,
        "sizes": list(op.sizes),
        "num_terms": op.num_terms,
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2)
        fh.write("\n")


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.data):
            raise ParseError(f"truncated file while reading {what}", self.pos)
        out = self.data[self.pos:self.pos + count]
        self.pos += count
        return out


def load_operator(path):
    """Read an operator file written by :func:`save_operator`.

    Contents the operator or metric would reject (a non-finite entry, a
    mass that is not SPD) raise ParseError.  Files of another format
    version, version 1 included, raise VersionError.
    """
    with open(str(path), "rb") as fh:
        data = fh.read()
    cur = _Cursor(data)
    magic = cur.take(4, "magic")
    if magic != FORMAT_MAGIC:
        raise ParseError(f"bad magic {magic!r}", 0)
    (version,) = struct.unpack("<I", cur.take(4, "version"))
    if version != FORMAT_VERSION:
        raise VersionError(
            f"unsupported format version {version} (expected "
            f"{FORMAT_VERSION}); regenerate the file with `greedy-eig gen`"
        )
    (d,) = struct.unpack("<I", cur.take(4, "dimension count"))
    if d < 2 or d > 64:
        raise ParseError(f"implausible dimension count {d}", cur.pos - 4)
    sizes = struct.unpack(f"<{d}I", cur.take(4 * d, "sizes"))
    if any(n < 1 or n > 1 << 20 for n in sizes):
        raise ParseError(f"implausible sizes {sizes}", cur.pos - 4 * d)
    (K,) = struct.unpack("<I", cur.take(4, "term count"))
    if K < 1 or K > 1 << 20:
        raise ParseError(f"implausible term count {K}", cur.pos - 4)

    def read_matrix(n, what):
        raw = cur.take(8 * n * n, what)
        return np.frombuffer(raw, dtype="<f8").reshape(n, n).copy()

    terms = [
        [read_matrix(n, f"factor block (term {k}, dim {j})")
         for j, n in enumerate(sizes)]
        for k in range(K)
    ]
    masses = [read_matrix(n, f"metric block (dim {j})")
              for j, n in enumerate(sizes)]
    if cur.pos != len(data):
        raise ParseError(
            f"{len(data) - cur.pos} trailing bytes after payload", cur.pos
        )
    try:
        return KroneckerSumOperator(terms), MetricSet(masses)
    except StructuralError as exc:
        raise ParseError(f"invalid operator data: {exc}") from exc


# ---------------------------------------------------------------------------
# declarative problem specs

# Each kind's builder, by name: its signature gives the kind's parameters and
# defaults, and a wrapper put in its place in this module is the one called.
_BUILDERS = {
    "RandomKronecker": "gen_random_kronecker",
    "Separable": "_random_separable",
    "DegenerateLowest": "gen_degenerate_lowest",
    "ExcitedTrap": "gen_excited_trap",
    "FromFile": "load_operator",
}


@dataclass(frozen=True)
class ProblemSpec:
    """Declarative description of a generated (or stored) problem."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _BUILDERS:
            raise InvalidSpec(
                f"unknown problem kind {self.kind!r}; "
                f"expected one of {sorted(_BUILDERS)}"
            )
        signature = inspect.signature(self._builder())
        unknown = set(self.params) - set(signature.parameters)
        if unknown:
            raise InvalidSpec(
                f"unknown parameter(s) {sorted(unknown)} for kind {self.kind}"
            )
        merged = {name: p.default for name, p in signature.parameters.items()
                  if p.default is not p.empty}
        merged.update(self.params)
        if not isinstance(merged.get("sizes", []), list):
            raise InvalidSpec(f"sizes must be a list, got {merged['sizes']!r}")
        missing = set(signature.parameters) - set(merged)
        if missing:
            raise InvalidSpec(
                f"missing parameter(s) {sorted(missing)} for kind {self.kind}"
            )
        object.__setattr__(self, "params", merged)

    def _builder(self):
        return globals()[_BUILDERS[self.kind]]

    @classmethod
    def from_dict(cls, raw: dict) -> "ProblemSpec":
        if not isinstance(raw, dict):
            raise InvalidSpec("problem spec must be a mapping")
        if "kind" not in raw:
            raise InvalidSpec("problem spec needs a 'kind' entry")
        params = {k: v for k, v in raw.items() if k != "kind"}
        return cls(raw["kind"], params)

    def build(self):
        """Materialize the operator and metric described by this spec."""
        return self._builder()(**self.params)
