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
of the modular operator at ((1 - p_min) / p_min)^2. For any cyclic-separating
vector on these models, with X_k its block reshaped to n_k x m_k, the modular
operator has the closed form ``(+)_k rho_k (x) conj(rho'_k)^{-1}`` with
rho_k = X_k X_k^* and rho'_k = X_k^* X_k, which downstream checks use as an
independent construction path.

A fixture is its model, seed and omega: everything else is derived. It
serializes to a JSON snapshot (schema_version "1") of exactly those and the
dimension, with omega as [re, im] pairs.
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
    """Inverse of :meth:`AlgebraSpec.label`, whitespace aside: any other label is refused."""
    compact = "".join(label.split())
    kind, _, rest = compact.partition("(")
    rest = rest.removesuffix(")")
    try:
        if kind == "standard_factor":
            spec = AlgebraSpec.standard_factor(int(rest))
        elif kind == "maximal_abelian":
            spec = AlgebraSpec.maximal_abelian(int(rest))
        elif kind == "direct_sum":
            spec = AlgebraSpec.direct_sum(item.split(":") for item in rest.split(","))
        else:
            raise AlgebraError(f"unknown model label {label!r}")
    except AlgebraError:
        raise
    except ValueError as exc:  # a size that is not an integer, or a block that is not n:m
        raise AlgebraError(f"malformed model label {label!r}: {exc}") from None
    if spec.label() != compact:
        raise AlgebraError(f"malformed model label {label!r}: it reads as {spec.label()!r}")
    return spec


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

    def closed_form_delta(self) -> np.ndarray:
        """Independent construction of the modular operator from omega's block densities.

        With X = omega's block reshaped to n x m, rho = X X^* and rho' = X^* X, the
        block of Delta is rho (x) conj(rho')^{-1}; no S, J or orbit is used.
        """
        d = self.spec.dim
        out = np.zeros((d, d), dtype=complex)
        for (n, m), off in zip(self.spec.blocks, self.spec.offsets):
            block = slice(off, off + n * m)
            x = self.triple.omega[block].reshape(n, m)
            rho, rho_prime = x @ x.conj().T, x.conj().T @ x
            out[block, block] = np.kron(rho, np.linalg.inv(np.conj(rho_prime)))
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
        parts = []
        for (n, m), w in zip(spec.blocks, weights):
            q = _draw_weights(rng, n, p_min)
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
        return Fixture(spec=spec, seed=seed, triple=triple)
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
    return {
        "schema_version": SCHEMA_VERSION,
        "model": fix.spec.label(),
        "seed": fix.seed,
        "dim": fix.spec.dim,
        "omega": _to_pairs(fix.triple.omega),
    }


def fixture_from_json(doc: dict) -> Fixture:
    """Rebuild a fixture from its JSON snapshot.

    A and A' come from the model label by ``spec.commutant_chain``, as in
    :func:`generate_fixture`, and the modular triple is recomputed by
    :func:`modular_data` from them and omega, which certifies omega cyclic and
    separating again. Keys the loader does not read, such as the S, J, Delta,
    bases and weights that older snapshots stored, are ignored. A snapshot is
    refused with AlgebraError when it lacks a key that :func:`fixture_to_json`
    writes, when its model label is malformed or disagrees with dim, or when
    omega is not a finite unit vector of dimension dim, to RANK_TOL.
    """
    for key in ("schema_version", "model", "seed", "dim", "omega"):
        if key not in doc:
            raise AlgebraError(f"snapshot has no {key!r}")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise AlgebraError(f"unsupported schema version {doc['schema_version']!r}")
    d, spec = int(doc["dim"]), parse_spec(doc["model"])
    if spec.dim != d:
        raise AlgebraError(f"model {spec.label()} has dimension {spec.dim}, the snapshot {d}")
    omega = _from_pairs(doc["omega"])
    norm = float(np.linalg.norm(omega))
    if omega.shape != (d,) or not abs(norm - 1.0) <= RANK_TOL:  # a NaN entry fails too
        raise AlgebraError(f"omega must be a finite unit vector of dimension {d}, got shape "
                           f"{omega.shape} and norm {norm:.3e}")
    a, a_prime = spec.commutant_chain(2)
    return Fixture(spec=spec, seed=int(doc["seed"]), triple=modular_data(a, omega, a_prime))


def save_fixture(fix: Fixture, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fixture_to_json(fix), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_fixture(path) -> Fixture:
    with open(path, encoding="utf-8") as fh:
        return fixture_from_json(json.load(fh))
