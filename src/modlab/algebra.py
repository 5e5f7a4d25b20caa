"""Finite-dimensional von Neumann algebra engine.

An algebra (or any operator subspace) is represented by an orthonormal basis
of d x d matrices under the trace inner product <X, Y> = tr(X^dag Y). The
engine orthonormalizes spanning sets, computes commutants and bicommutants by
nullspace computation on the d^2-dimensional operator space, and holds the
orbit map a -> a omega as an :class:`Orbit`: its rank certifies omega cyclic
and separating, and its solve is the package's one inverse of the map.
Algebras enter as spanning sets (the block models of :mod:`modlab.fixtures`);
nothing here closes generators into an algebra.

A commutant is the nullspace of a stacked commutator map, read from the R
factor of its QR: R is d^2 x d^2 and has the stack's singular values and
right singular vectors, so the stack's square left singular factor is never
formed. A finite-dimensional von Neumann algebra has a single generator
(Pearcy, Proc. AMS 13, 1962), so from dim >= PAIR_MIN_DIM the stack is that of
two seeded generic elements (2 d^2 rows, 51 MiB at d = 36) rather than of the
whole basis (dim * d^2 rows); the result is certified against the whole basis,
and the full stack decides when the certificate fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import as_square_array, frob

RANK_TOL = 1e-9  # singular values below RANK_TOL * max count as zero
# commutant() takes the generic pair from this dim(a) on. Median times with
# one BLAS thread, full stack against pair: dim 4-5, 0.17-0.30 ms against
# 0.27-0.40 ms; a tie at dim 6; dim 7, 1.1 against 0.7 ms; dim 9, 6.1 against
# 3.0 ms; dim 16, 178 against 36 ms. The margin above the crossover covers a
# fallback, which pays for both.
PAIR_MIN_DIM = 8
PAIR_GAP_MIN = 1e-3  # smallest accepted rank gap of the pair's stack
COND_CAP = 1e6  # refuse orbit solves beyond this condition number


class AlgebraError(ValueError):
    pass


class NotCyclicError(AlgebraError):
    def __init__(self, rank: int, required: int):
        self.rank, self.required = rank, required
        super().__init__(f"vector is not cyclic: orbit rank {rank} < {required}")


class NotSeparatingError(AlgebraError):
    def __init__(self, rank: int, required: int):
        self.rank, self.required = rank, required
        super().__init__(
            f"vector is not separating: a -> a omega has nullspace of dimension "
            f"{required - rank}"
        )


class IllConditionedError(AlgebraError):
    def __init__(self, cond: float):
        self.cond = cond
        super().__init__(
            f"orbit matrix condition number {cond:.3e} exceeds cap {COND_CAP:.1e}; "
            "refusing an untrustworthy solve"
        )


@dataclass(frozen=True)
class OperatorSubspace:
    """A linear subspace of d x d matrices with a trace-orthonormal basis."""

    dim_space: int
    basis: np.ndarray  # shape (k, d, d), rows orthonormal under <X,Y>=tr(X^dag Y)

    @property
    def dim(self) -> int:
        """Dimension of the subspace (number of basis elements)."""
        return self.basis.shape[0]

    def flat(self) -> np.ndarray:
        """Basis as a (k, d^2) row-orthonormal matrix (row-major flattening)."""
        return self.basis.reshape(self.dim, self.dim_space**2)

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """Trace-inner-product coefficients of x against the basis."""
        return self.flat().conj() @ np.asarray(x, dtype=complex).reshape(-1)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection of x onto the subspace."""
        d = self.dim_space
        return np.dot(self.coefficients(x), self.flat()).reshape(d, d)

    def element(self, coeffs: np.ndarray) -> np.ndarray:
        """The combination sum_i coeffs[i] basis[i].

        ``np.dot`` gives the bits of ``np.tensordot(coeffs, basis, 1)``, which
        calls it, without the wrapper cost; ``coeffs @ flat`` differs in the
        last bit for a one-element basis.
        """
        d = self.dim_space
        return np.dot(np.asarray(coeffs, dtype=complex), self.flat()).reshape(d, d)


def membership_residual(x, subspace: OperatorSubspace):
    """Distance of x from the subspace, relative to its own size.

    Returns ``|x - P(x)|_F / max(|x|_F, 1e-30)``; zero (to rounding) exactly
    when x lies in the span. x is one (d, d) matrix, which gives a float, or
    an (..., d, d) stack, which gives an array of shape x.shape[:-2].
    """
    m = np.asarray(x, dtype=complex)
    flat = m.reshape(-1, subspace.dim_space ** 2)
    f = subspace.flat()
    residual = (np.linalg.norm(flat - (flat @ f.conj().T) @ f, axis=1)
                / np.maximum(np.linalg.norm(flat, axis=1), 1e-30)).reshape(m.shape[:-2])
    return float(residual) if m.ndim == 2 else residual


def subspace_orthonormalize(mats, dim_space: int | None = None) -> OperatorSubspace:
    """Orthonormalize a list of matrices under the trace inner product.

    The span is preserved, up to directions whose singular value is below
    RANK_TOL times the largest. Empty input yields the zero-dimensional
    subspace (the Hilbert space dimension must then be supplied).
    """
    mats = [as_square_array(m) for m in mats]
    if not mats:
        if dim_space is None:
            raise AlgebraError("cannot infer dimension from an empty generator list")
        return OperatorSubspace(dim_space, np.zeros((0, dim_space, dim_space), dtype=complex))
    d = mats[0].shape[0]
    for m in mats:
        if m.shape[0] != d:
            raise AlgebraError(f"dimension mismatch: {m.shape[0]} != {d}")
    stack = np.stack(mats).reshape(len(mats), d * d)
    _, sv, vh = np.linalg.svd(stack, full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return OperatorSubspace(d, np.zeros((0, d, d), dtype=complex))
    keep = sv > RANK_TOL * sv[0]
    return OperatorSubspace(d, vh[keep].reshape(-1, d, d))


def commutant(a: OperatorSubspace) -> OperatorSubspace:
    """Commutant {x : [x, b] = 0 for every basis element b of a}.

    Computed as the nullspace of a stacked commutator map on the
    d^2-dimensional operator space. From dim(a) >= PAIR_MIN_DIM the stack is
    that of two generic elements x1, x2 of a, 2 d^2 rows instead of
    dim(a) d^2. Its nullspace always contains the commutant; it is accepted
    when its rank gap is at least PAIR_GAP_MIN and every result element
    commutes with every basis element of a to RANK_TOL, and otherwise the
    full stack decides. The result of a (certified) algebra is itself an
    algebra.
    """
    d = a.dim_space
    if a.dim == 0:  # nothing to commute with: all of M_d, spanned by the E_ij
        return subspace_orthonormalize(list(np.eye(d * d, dtype=complex).reshape(-1, d, d)))
    if a.dim >= PAIR_MIN_DIM:
        # unit-norm but not orthogonal: only the commutator stack reads it
        pair = np.tensordot(_pair_coefficients(a.dim), a.basis, axes=(1, 0))
        c, gap = _nullspace(OperatorSubspace(d, pair))
        y = c.basis[:, None]
        leak = np.linalg.norm(y @ a.basis - a.basis @ y, axis=(-2, -1))
        if gap >= PAIR_GAP_MIN and np.max(leak, initial=0.0) <= RANK_TOL:
            return c
    return _nullspace(a)[0]


@lru_cache(maxsize=None)
def _pair_coefficients(k: int) -> np.ndarray:
    """Two unit-norm complex Gaussian coefficient rows, seeded by (0, k) alone."""
    rng = np.random.default_rng((0, k))
    g = rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    g.setflags(write=False)
    return g


def _nullspace(a: OperatorSubspace) -> tuple[OperatorSubspace, float]:
    """Nullspace of a's commutator stack, and its rank gap.

    Read from the SVD of the stack's d^2 x d^2 R factor; memory is the stack
    plus the QR's one copy. The gap is the smallest singular value above the
    null threshold, relative to max(sv0, 1) (inf when every one is null).
    """
    d = a.dim_space
    r = np.linalg.qr(_commutator_stack(a), mode="r")
    _, sv, vh = np.linalg.svd(r)
    # basis elements are trace-normalized, so genuine non-commutation shows up
    # at scale O(1); the floor keeps noise-level singular values in the nullspace
    scale = max(float(sv[0]), 1.0)
    null = sv <= RANK_TOL * scale
    gap = float(np.min(sv[~null], initial=np.inf)) / scale
    return subspace_orthonormalize(list(vh[null].conj().reshape(-1, d, d))), gap


def _commutator_stack(a: OperatorSubspace) -> np.ndarray:
    """The (dim(a)*d^2, d^2) stack whose block n maps vec(x) to vec([x, b_n]).

    Row-major vec: vec(x b) = (1 (x) b^T) vec(x), vec(b x) = (b (x) 1) vec(x);
    entry (i*d + j, p*d + q) of block n is stack[n, i, j, p, q].
    """
    d, k = a.dim_space, a.dim
    stack = np.zeros((k, d, d, d, d), dtype=complex)
    for i in range(d):
        stack[:, i, :, i, :] += a.basis.transpose(0, 2, 1)
    for c in range(d):
        stack[:, :, c, :, c] -= a.basis
    return stack.reshape(k * d * d, d * d)


def bicommutant(a: OperatorSubspace) -> OperatorSubspace:
    return commutant(commutant(a))


def mutual_projection_residual(a: OperatorSubspace, b: OperatorSubspace) -> float:
    """Largest distance of a basis element of either subspace from the other (NaN if any is)."""
    if a.dim != b.dim:
        return 1.0
    if a.dim == 0:
        return 0.0
    return float(np.max([frob(x - b.project(x)) for x in a.basis]
                        + [frob(y - a.project(y)) for y in b.basis]))


def numerical_rank(sv: np.ndarray) -> int:
    """Rank at the global threshold, floored at the O(1) scale of unit data."""
    if sv.size == 0:
        return 0
    return int(np.sum(sv > RANK_TOL * max(float(sv[0]), 1.0)))


@dataclass(frozen=True)
class Orbit:
    """The orbit map b -> b omega of a subspace, with its singular values.

    ``matrix`` is the d x dim(space) matrix with columns b_i omega. Its one
    SVD gives the rank, d when omega is cyclic and dim(space) when it is
    separating, and the condition number that every solve is gated on.
    """

    space: OperatorSubspace
    omega: np.ndarray
    matrix: np.ndarray
    singular_values: np.ndarray

    @property
    def cond(self) -> float:
        sv = self.singular_values
        return float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf

    @property
    def rank(self) -> int:
        return numerical_rank(self.singular_values)

    def solve(self, v) -> np.ndarray:
        """The unique element a of the space with a omega = v.

        v is one vector (d,) or a block of them, (d, m) or (d, ...), one per
        column; the result holds one element per vector, shape v.shape[1:] +
        (d, d), from one solve. The orbit matrix must be square (omega cyclic
        and separating) with cond at most COND_CAP.
        """
        v = np.asarray(v, dtype=complex)
        b = self.matrix
        if b.shape[0] != b.shape[1]:
            raise AlgebraError(
                f"solve needs dim = d, got {b.shape[1]} basis elements at dimension {b.shape[0]}"
            )
        if self.cond > COND_CAP:
            raise IllConditionedError(self.cond)
        d = self.space.dim_space
        coeffs = np.linalg.solve(b, v.reshape(d, -1))
        # np.dot, as OperatorSubspace.element: one coefficient row per element
        return np.dot(coeffs.T, self.space.flat()).reshape(*v.shape[1:], d, d)


def orbit(a: OperatorSubspace, omega) -> Orbit:
    """Build the orbit matrix of a at omega and factor it once."""
    omega = np.asarray(omega, dtype=complex)
    m = np.column_stack([b @ omega for b in a.basis])
    return Orbit(a, omega, m, np.linalg.svd(m, compute_uv=False))
