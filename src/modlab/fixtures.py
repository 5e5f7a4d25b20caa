"""Seeded fixture generation: block algebra models with cyclic-separating vectors.

Every model is a direct sum of full matrix blocks with multiplicities,
``A = (+)_k M_{n_k} (x) 1_{m_k}`` acting on ``H = (+)_k C^{n_k} (x) C^{m_k}``:

- ``standard_factor(n)``: a single block (n, n), dimension d = n^2;
- ``direct_sum(blocks)``: a list of blocks (n, n); a cyclic-separating
  vector exists exactly when every multiplicity equals its block size, so
  blocks with m != n are refused;
- ``maximal_abelian(d)``: d blocks (1, 1), the diagonal algebra.

The reference vector is drawn per block as ``sum_i c_i |ii>`` with random
phases and Schmidt weights floored at p_min, which caps the condition number
of the modular operator at (1 - p_min) / p_min. For these models the modular
operator has the closed form ``(+)_k rho_k (x) conj(rho_k)^{-1}`` with
rho_k the within-block Schmidt weights, which downstream checks use as an
independent construction path.

Fixtures and modular triples serialize to a JSON schema (schema_version "1")
with matrices as row-major nested arrays of [re, im] pairs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraError,
    NotCyclicError,
    NotSeparatingError,
    OperatorSubspace,
    commutant,
    orbit,
    subspace_orthonormalize,
)
from .tomita import ModularTriple, modular_data
from .linalg import AntilinearMap, hermitian_eig

P_MIN_DEFAULT = 0.01
CERTIFY_ATTEMPTS = 16  # redraws of omega before a model is declared uncertifiable
WINDOW_MARGIN = 0.05  # relative distance of a window cut from both neighboring eigenvalues
SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class AlgebraSpec:
    """A block model (+)_k M_{n_k} (x) 1_{m_k} used to generate fixtures."""

    kind: str  # "standard_factor" | "direct_sum" | "maximal_abelian"
    blocks: tuple[tuple[int, int], ...]

    @staticmethod
    def standard_factor(n: int) -> "AlgebraSpec":
        if n < 1:
            raise AlgebraError(f"factor size must be >= 1, got {n}")
        return AlgebraSpec("standard_factor", ((n, n),))

    @staticmethod
    def direct_sum(blocks) -> "AlgebraSpec":
        blocks = tuple((int(n), int(m)) for n, m in blocks)
        if not blocks or any(n < 1 or m < 1 for n, m in blocks):
            raise AlgebraError(f"invalid block list {blocks}")
        if any(n != m for n, m in blocks):
            raise AlgebraError(
                f"block list {blocks} has a multiplicity different from its block "
                "size, so no vector is cyclic and separating"
            )
        return AlgebraSpec("direct_sum", blocks)

    @staticmethod
    def maximal_abelian(d: int) -> "AlgebraSpec":
        if d < 1:
            raise AlgebraError(f"dimension must be >= 1, got {d}")
        return AlgebraSpec("maximal_abelian", ((1, 1),) * d)

    @property
    def dim(self) -> int:
        return sum(n * m for n, m in self.blocks)

    def label(self) -> str:
        if self.kind == "standard_factor":
            return f"standard_factor({self.blocks[0][0]})"
        if self.kind == "maximal_abelian":
            return f"maximal_abelian({len(self.blocks)})"
        inner = ",".join(f"{n}:{m}" for n, m in self.blocks)
        return f"direct_sum({inner})"


def parse_spec(label: str) -> AlgebraSpec:
    """Inverse of :meth:`AlgebraSpec.label`."""
    label = label.strip()
    kind, _, rest = label.partition("(")
    rest = rest.rstrip(")")
    if kind == "standard_factor":
        return AlgebraSpec.standard_factor(int(rest))
    if kind == "maximal_abelian":
        return AlgebraSpec.maximal_abelian(int(rest))
    if kind == "direct_sum":
        blocks = [tuple(int(x) for x in item.split(":")) for item in rest.split(",")]
        return AlgebraSpec.direct_sum(blocks)
    raise AlgebraError(f"unknown model label {label!r}")


def _block_embedding(spec: AlgebraSpec):
    """Offsets and sizes of the block subspaces inside C^d."""
    offsets = []
    pos = 0
    for n, m in spec.blocks:
        offsets.append(pos)
        pos += n * m
    return offsets


def _elementary(n: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((n, n), dtype=complex)
    e[i, j] = 1.0
    return e


def algebra_basis_matrices(spec: AlgebraSpec) -> list[np.ndarray]:
    """Unnormalized basis E_ij (x) 1 in each block, embedded in d x d."""
    d = spec.dim
    mats = []
    for (n, m), off in zip(spec.blocks, _block_embedding(spec)):
        size = n * m
        for i in range(n):
            for j in range(n):
                x = np.zeros((d, d), dtype=complex)
                x[off : off + size, off : off + size] = np.kron(_elementary(n, i, j), np.eye(m))
                mats.append(x)
    return mats


def commutant_basis_matrices(spec: AlgebraSpec) -> list[np.ndarray]:
    """Unnormalized commutant basis 1 (x) E_ij in each block."""
    d = spec.dim
    mats = []
    for (n, m), off in zip(spec.blocks, _block_embedding(spec)):
        size = n * m
        for i in range(m):
            for j in range(m):
                x = np.zeros((d, d), dtype=complex)
                x[off : off + size, off : off + size] = np.kron(np.eye(n), _elementary(m, i, j))
                mats.append(x)
    return mats


def _draw_weights(rng: np.random.Generator, count: int, floor: float) -> np.ndarray:
    """A point of the simplex with every coordinate floored."""
    if count == 1:
        return np.array([1.0])
    if floor * count >= 1.0:
        raise AlgebraError(f"floor {floor} infeasible for {count} weights")
    raw = rng.exponential(1.0, size=count)
    raw = raw / raw.sum()
    return floor + (1.0 - count * floor) * raw


@dataclass(frozen=True)
class Fixture:
    """A generated instance: the standard form (A, A', omega) with its modular data."""

    spec: AlgebraSpec
    seed: int
    triple: ModularTriple
    block_weights: np.ndarray          # weight of each block in omega
    block_probs: list[np.ndarray]      # within-block Schmidt weights

    @property
    def dim(self) -> int:
        return self.spec.dim

    def closed_form_delta(self) -> np.ndarray:
        """Independent construction of the modular operator from the Schmidt data."""
        d = self.spec.dim
        out = np.zeros((d, d), dtype=complex)
        for (n, m), off, q in zip(self.spec.blocks, _block_embedding(self.spec), self.block_probs):
            rho = np.diag(q.astype(complex))
            blk = np.kron(rho, np.linalg.inv(np.conj(rho)))
            out[off : off + n * m, off : off + n * m] = blk
        return out


def generate_fixture(
    spec: AlgebraSpec,
    seed: int,
    p_min: float = P_MIN_DEFAULT,
) -> Fixture:
    """Deterministically generate a certified fixture for (spec, seed).

    The vector is drawn with floored Schmidt weights and random phases; if
    certification (cyclic and separating) fails the draw is retried with a
    perturbed seed, at most CERTIFY_ATTEMPTS times.
    """
    a = subspace_orthonormalize(algebra_basis_matrices(spec))
    a_prime = commutant(a)
    d = spec.dim
    for attempt in range(CERTIFY_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        weights = _draw_weights(rng, len(spec.blocks), min(0.05, 1.0 / (2 * len(spec.blocks))))
        probs = []
        omega = np.zeros(d, dtype=complex)
        for (n, m), off, w in zip(spec.blocks, _block_embedding(spec), weights):
            q = _draw_weights(rng, n, p_min)
            probs.append(q)
            phases = np.exp(2j * np.pi * rng.random(n))
            block_vec = np.zeros(n * m, dtype=complex)
            for i in range(n):
                block_vec[i * m + i] = np.sqrt(q[i]) * phases[i]
            omega[off : off + n * m] = np.sqrt(w) * block_vec
        omega = omega / np.linalg.norm(omega)
        try:
            triple = modular_data(a, omega, a_prime)
        except (NotCyclicError, NotSeparatingError):
            continue
        return Fixture(
            spec=spec, seed=seed, triple=triple, block_weights=weights, block_probs=probs
        )
    raise AlgebraError(
        f"could not certify a cyclic-separating vector for {spec.label()} "
        f"after {CERTIFY_ATTEMPTS} attempts"
    )


def covering_windows(
    triple: ModularTriple,
) -> list[tuple[float, float]]:
    """Disjoint windows covering the spectrum of Delta, cut at spectral gaps.

    Cuts are placed at geometric means of consecutive distinct eigenvalues
    whenever both neighbors keep a relative distance of at least WINDOW_MARGIN
    from the cut; otherwise the gap is not cut. The first window starts below
    the spectrum and the last ends above it, so the union always covers.
    """
    w = triple.delta_spec.eigenvalues
    lo, hi = float(w[0]), float(w[-1])
    cuts = [lo / 2.0]
    for x, y in zip(w[:-1], w[1:]):
        if y <= x * (1 + 1e-9):
            continue
        g = float(np.sqrt(x * y))
        if (g - x) >= WINDOW_MARGIN * x and (y - g) >= WINDOW_MARGIN * y:
            cuts.append(g)
    cuts.append(hi * 2.0)
    return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]


# ---------------------------------------------------------------------------
# JSON serialization (schema_version "1")
# ---------------------------------------------------------------------------


def _to_pairs(a: np.ndarray) -> list:
    """Nested lists of [re, im] pairs of a complex array, bit for bit."""
    a = np.ascontiguousarray(a, dtype=complex)
    return a.view(float).reshape(*a.shape, 2).tolist()


def _from_pairs(items) -> np.ndarray:
    """The complex array of nested lists of [re, im] pairs, bit for bit."""
    return np.ascontiguousarray(items, dtype=float).view(complex)[..., 0]


def fixture_to_json(fix: Fixture) -> dict:
    """Serializable snapshot of a fixture, including the modular triple."""
    t = fix.triple
    return {
        "schema_version": SCHEMA_VERSION,
        "model": fix.spec.label(),
        "seed": fix.seed,
        "dim": fix.dim,
        "omega": _to_pairs(t.omega),
        "algebra_basis": _to_pairs(t.algebra.basis),
        "commutant_basis": _to_pairs(t.commutant.basis),
        "s_matrix": _to_pairs(t.s.matrix),
        "j_matrix": _to_pairs(t.j.matrix),
        "delta": _to_pairs(t.delta),
        "delta_eigenvalues": [float(x) for x in t.delta_spec.eigenvalues],
        "delta_eigenvectors": _to_pairs(t.delta_spec.eigenvectors),
        "kappa": float(t.kappa),
        "block_weights": [float(x) for x in fix.block_weights],
        "block_probs": [[float(x) for x in q] for q in fix.block_probs],
    }


def fixture_from_json(doc: dict) -> Fixture:
    """Rebuild a fixture from its JSON snapshot."""
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise AlgebraError(f"unsupported schema version {doc.get('schema_version')!r}")
    spec = parse_spec(doc["model"])
    d = int(doc["dim"])
    algebra = OperatorSubspace(
        d,
        _from_pairs(doc["algebra_basis"]),
    )
    comm = OperatorSubspace(
        d,
        _from_pairs(doc["commutant_basis"]),
    )
    omega = _from_pairs(doc["omega"])
    delta = _from_pairs(doc["delta"])
    triple = ModularTriple(
        orbit=orbit(algebra, omega),
        commutant_orbit=orbit(comm, omega),
        s=AntilinearMap(_from_pairs(doc["s_matrix"])),
        j=AntilinearMap(_from_pairs(doc["j_matrix"])),
        delta=delta,
        delta_spec=hermitian_eig(delta),
        kappa=float(doc["kappa"]),
    )
    return Fixture(
        spec=spec,
        seed=int(doc["seed"]),
        triple=triple,
        block_weights=np.array(doc["block_weights"], dtype=float),
        block_probs=[np.array(q, dtype=float) for q in doc["block_probs"]],
    )


def save_fixture(fix: Fixture, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fixture_to_json(fix), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_fixture(path) -> Fixture:
    with open(path, encoding="utf-8") as fh:
        return fixture_from_json(json.load(fh))
