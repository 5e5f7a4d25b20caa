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
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .algebra import (
    RANK_TOL,
    AlgebraError,
    NotCyclicError,
    NotSeparatingError,
    OperatorSubspace,
    commutant,
    commutator_leak,
    subspace_orthonormalize,
)
from .tomita import ModularTriple, modular_data

P_MIN_DEFAULT = 0.01
CERTIFY_ATTEMPTS = 16  # redraws of omega before a model is declared uncertifiable
WINDOW_MARGIN = 0.05  # relative distance of a window cut from both neighboring eigenvalues
SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class AlgebraSpec:
    """A block model (+)_k M_{n_k} (x) 1_{m_k} used to generate fixtures."""

    kind: str  # "standard_factor" | "direct_sum" | "maximal_abelian"
    blocks: tuple[tuple[int, int], ...]
    _chain: list = field(default_factory=list, init=False, repr=False, compare=False)

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

    @property
    def offsets(self) -> list[int]:
        """Offset of each block's subspace inside C^d."""
        return list(accumulate((n * m for n, m in self.blocks[:-1]), initial=0))

    def commutant_chain(self, depth: int) -> list[OperatorSubspace]:
        """The first depth of A, A', A'', A''', ...: they depend on the model alone,
        so each is built on first use and kept on this spec object."""
        while len(self._chain) < depth:
            self._chain.append(commutant(self._chain[-1]) if self._chain
                               else subspace_orthonormalize(algebra_basis_matrices(self)))
        return self._chain[:depth]

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


def _block_basis(spec: AlgebraSpec, commutant: bool) -> np.ndarray:
    """E_ij (x) 1 in each block, or 1 (x) E_ij for the commutant, embedded in d x d.

    A (sum_k k^2, d, d) stack, E_ij at row i k + j of its block's rows.
    """
    d = spec.dim
    stacks = []
    for (n, m), off in zip(spec.blocks, spec.offsets):
        size, k = n * m, (m if commutant else n)
        e = np.eye(k * k).reshape(k * k, k, k)
        x = np.zeros((k * k, d, d), dtype=complex)
        x[:, off : off + size, off : off + size] = (
            np.kron(np.eye(n), e) if commutant else np.kron(e, np.eye(m)))
        stacks.append(x)
    return np.concatenate(stacks)


def algebra_basis_matrices(spec: AlgebraSpec) -> np.ndarray:
    """Unnormalized basis E_ij (x) 1 in each block, embedded in d x d."""
    return _block_basis(spec, commutant=False)


def commutant_basis_matrices(spec: AlgebraSpec) -> np.ndarray:
    """Unnormalized commutant basis 1 (x) E_ij in each block."""
    return _block_basis(spec, commutant=True)


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

    def closed_form_delta(self) -> np.ndarray:
        """Independent construction of the modular operator from the Schmidt data."""
        d = self.spec.dim
        out = np.zeros((d, d), dtype=complex)
        for (n, m), off, q in zip(self.spec.blocks, self.spec.offsets, self.block_probs):
            rho = np.diag(q.astype(complex))
            out[off : off + n * m, off : off + n * m] = np.kron(rho, np.linalg.inv(np.conj(rho)))
        return out


def generate_fixture(
    spec: AlgebraSpec,
    seed: int,
    p_min: float = P_MIN_DEFAULT,
) -> Fixture:
    """Deterministically generate a certified fixture for (spec, seed).

    The algebra and its commutant come from ``spec.commutant_chain``, built
    once per spec object; only the vector is drawn here, with floored Schmidt
    weights and random phases. If certification (cyclic and separating) fails
    the draw is retried with a perturbed seed, at most CERTIFY_ATTEMPTS times.
    """
    a, a_prime = spec.commutant_chain(2)
    for attempt in range(CERTIFY_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
        weights = _draw_weights(rng, len(spec.blocks), min(0.05, 1.0 / (2 * len(spec.blocks))))
        probs, parts = [], []
        for (n, m), w in zip(spec.blocks, weights):
            q = _draw_weights(rng, n, p_min)
            probs.append(q)
            phases = np.exp(2j * np.pi * rng.random(n))
            block_vec = np.zeros(n * m, dtype=complex)
            block_vec[np.arange(n) * (m + 1)] = np.sqrt(q) * phases  # the |ii> entries
            parts.append(np.sqrt(w) * block_vec)
        omega = np.concatenate(parts)
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
    cuts = [float(w[0]) / 2.0]
    cuts += [g for x, g, y in spectral_gaps(w)
             if (g - x) >= WINDOW_MARGIN * x and (y - g) >= WINDOW_MARGIN * y]
    cuts.append(float(w[-1]) * 2.0)
    return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]


def spectral_gaps(w: np.ndarray) -> list[tuple[float, float, float]]:
    """(x, sqrt(x y), y) for each pair of consecutive distinct ascending eigenvalues x < y."""
    return [(x, float(np.sqrt(x * y)), y) for x, y in zip(w[:-1], w[1:]) if y > x * (1 + 1e-9)]


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
    """Serializable snapshot of a fixture: what :func:`fixture_from_json` reads back."""
    t = fix.triple
    return {
        "schema_version": SCHEMA_VERSION,
        "model": fix.spec.label(),
        "seed": fix.seed,
        "dim": fix.spec.dim,
        "omega": _to_pairs(t.omega),
        "algebra_basis": _to_pairs(t.algebra.basis),
        "commutant_basis": _to_pairs(t.commutant.basis),
        "block_weights": [float(x) for x in fix.block_weights],
        "block_probs": [[float(x) for x in q] for q in fix.block_probs],
    }


def _stored_basis(doc: dict, key: str, d: int) -> OperatorSubspace:
    """The basis stored under key, refused unless a finite (k, d, d) trace-orthonormal stack."""
    basis = _from_pairs(doc[key])
    if basis.shape[1:] != (d, d) or not np.isfinite(basis).all():
        raise AlgebraError(f"{key} must be a finite (k, {d}, {d}) stack, got shape {basis.shape}")
    flat = basis.reshape(len(basis), d * d)
    gram_error = np.max(np.abs(flat.conj() @ flat.T - np.eye(len(basis))), initial=0.0)
    if not gram_error <= RANK_TOL:
        raise AlgebraError(f"{key} is not trace-orthonormal: Gram error {gram_error:.3e}")
    return OperatorSubspace(d, basis)


def fixture_from_json(doc: dict) -> Fixture:
    """Rebuild a fixture from its JSON snapshot.

    The modular triple is recomputed by :func:`modular_data` from the stored
    bases and omega, which certifies omega cyclic and separating again. Keys
    the loader does not read, such as the S, J and Delta that older snapshots
    stored, are ignored. A snapshot is refused with AlgebraError when its model
    and dim disagree, when a basis is not a finite trace-orthonormal
    (k, dim, dim) stack, when the two bases do not commute, or when omega is
    not a finite unit vector of dimension dim, each to RANK_TOL.
    """
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise AlgebraError(f"unsupported schema version {doc.get('schema_version')!r}")
    d, spec = int(doc["dim"]), parse_spec(doc["model"])
    if spec.dim != d:
        raise AlgebraError(f"model {spec.label()} has dimension {spec.dim}, the snapshot {d}")
    a, c = _stored_basis(doc, "algebra_basis", d), _stored_basis(doc, "commutant_basis", d)
    leak = commutator_leak(a.basis, c.basis, len(a.basis))  # one element of a at a time
    if not leak <= RANK_TOL:
        raise AlgebraError(f"stored bases do not commute: a commutator of norm {leak:.3e}")
    omega = _from_pairs(doc["omega"])
    norm = float(np.linalg.norm(omega))
    if omega.shape != (d,) or not abs(norm - 1.0) <= RANK_TOL:  # a NaN entry fails too
        raise AlgebraError(f"omega must be a finite unit vector of dimension {d}, got shape "
                           f"{omega.shape} and norm {norm:.3e}")
    triple = modular_data(a, omega, c)
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
