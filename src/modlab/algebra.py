"""Finite-dimensional von Neumann algebra engine.

An algebra (or any operator subspace) is represented by an orthonormal basis
of d x d matrices under the trace inner product <X, Y> = tr(X^dag Y). The
engine orthonormalizes spanning sets, computes commutants by nullspace
computation on the d^2-dimensional operator space, and holds the
orbit map a -> a omega as an :class:`Orbit`: its rank certifies omega cyclic
and separating, and its gated coefficient solve is the package's one
inverse of the map.
A spanning set is an (m, d, d) stack of matrices, and every basis is one.
Algebras enter as spanning sets (the block models of :mod:`modlab.fixtures`);
nothing here closes generators into an algebra.

A commutant is the nullspace of a stacked commutator map, read from the R
factor of its QR: R is square in the number of unknowns and has the stack's
singular values and right singular vectors, so the stack's left singular
factor is never formed. From dim >= PAIR_MIN_DIM the unknowns are only the
entries of x inside the eigenspaces of one generic Hermitian element h of
the input, where every element of the commutant lives, and the stack is that
of two seeded generic elements: 2 d^2 rows and |P| columns, |P| the number of
same-eigenspace index pairs (n^3 of the n^4 for standard_factor(n), 8.5 MiB
at d = 36). The clustering of h's eigenvalues and the result are certified,
and the full stack (dim * d^2 rows, d^2 columns) decides when either
certificate fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

RANK_TOL = 1e-9  # singular values below RANK_TOL * max count as zero
# commutant() takes the eigenspace route from this dim(a) on. Median times with
# one BLAS thread, full stack against eigenspace route: dim 4-5, 0.12-0.21 ms
# against 0.33-0.36 ms; dim 6, 0.24-0.30 against 0.42 ms; dim 7, 0.73-0.78
# against 0.48 ms; dim 8, 1.7-1.8 against 0.54 ms; dim 9, 3.8-4.9 against
# 0.64-0.80 ms; dim 16, 162 against 4.1 ms; dim 25, 1,984 against 25 ms.
PAIR_MIN_DIM = 7
PAIR_GAP_MIN = 1e-3  # smallest accepted rank gap of the eigenspace stack
# eigenvalues of h closer than CLUSTER_TOL |h| share a cluster: far above the
# rounding spread of a multiple eigenvalue (~1e-15 |h|) and above the smallest
# gap the clustering certificate accepts (2e9 err, ~1e-5 |h| at d = 49)
CLUSTER_TOL = 1e-4
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

    def element(self, coeffs: np.ndarray) -> np.ndarray:
        """The combinations sum_i coeffs[..., i] basis[i], shape coeffs.shape[:-1] + (d, d).

        One ``np.dot`` of the coefficient rows, as an (n, k) matrix, with the
        flat basis: the bits of ``np.tensordot(coeffs, basis, 1)``, which makes
        that call, without the wrapper cost; ``coeffs @ flat`` differs in the
        last bit for a one-element basis.
        """
        c = np.asarray(coeffs, dtype=complex)
        d = self.dim_space
        return np.dot(c.reshape(-1, self.dim), self.flat()).reshape(*c.shape[:-1], d, d)


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


def subspace_orthonormalize(mats) -> OperatorSubspace:
    """Orthonormalize an (m, d, d) stack of matrices under the trace inner product.

    A list of equal-shape matrices is taken as the stack it makes. The span is
    preserved, up to directions whose singular value is below RANK_TOL times
    the largest; an empty (0, d, d) stack gives the zero-dimensional subspace
    of M_d.
    """
    try:
        stack = np.asarray(mats, dtype=complex)
    except ValueError:  # a ragged list
        raise AlgebraError("spanning matrices differ in shape") from None
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not np.isfinite(stack).all():
        raise AlgebraError(f"need a finite (m, d, d) stack, got shape {stack.shape}")
    m, d, _ = stack.shape
    _, sv, vh = np.linalg.svd(stack.reshape(m, d * d), full_matrices=False)
    keep = sv > RANK_TOL * np.max(sv, initial=0.0)
    return OperatorSubspace(d, vh[keep].reshape(-1, d, d))


def commutant(a: OperatorSubspace) -> OperatorSubspace:
    """Commutant {x : [x, b] = 0 for every basis element b of a}.

    Computed as the nullspace of a stacked commutator map on the
    d^2-dimensional operator space. From dim(a) >= PAIR_MIN_DIM it is first
    solved inside the eigenspaces of a generic Hermitian element of a
    (:func:`_eigenspace_commutant`); when that route does not certify its
    result, and below PAIR_MIN_DIM, the full stack of dim(a) d^2 rows
    decides. The result of a (certified) algebra is itself an algebra.
    """
    d = a.dim_space
    if a.dim == 0:  # nothing to commute with: all of M_d, spanned by the E_ij
        return subspace_orthonormalize(np.eye(d * d, dtype=complex).reshape(-1, d, d))
    if a.dim >= PAIR_MIN_DIM:
        c = _eigenspace_commutant(a)
        if c is not None:
            return c
    return _nullspace(a.basis, *np.divmod(np.arange(d * d), d))[0]


def _eigenspace_commutant(a: OperatorSubspace) -> OperatorSubspace | None:
    """The commutant solved inside the eigenspaces of h = x1 + x1^H, or None.

    x1, x2 are two seeded generic elements of a; a finite-dimensional von
    Neumann algebra has a single generator (Pearcy, Proc. AMS 13, 1962), so
    generically {x1, x2}' = A' for a *-closed a. When h lies in a
    (membership residual at most RANK_TOL), every element of A' commutes
    with h and is block diagonal in h's eigenbasis, one block per eigenvalue
    cluster (Murota, Kanno, Kojima and Kojima, Japan J. Indust. Appl. Math.
    27, 2010): the
    unknowns are the entries on the same-cluster index pairs P, and the stack
    of y^ -> ([y^, x1^], [y^, x2^]), x^ = U^H x U for h's eigenvectors U, is
    2 d^2 x |P| (|P| = n^3 of n^4 for standard_factor(n)).

    Certificate of the clustering. Write h = h_A + e with h_A in a, and let
    the computed eigenpairs satisfy h U = U diag(w) + R. For y in A',
    [y, h_A] = 0, so in the eigenbasis (y^ = U^H y U) the commutator
    [y^, diag(w)] = U^H [y, e - R U^H] U has Frobenius norm at most
    2 |y|_F err, err = |e|_F + |R|_F; its entries are y^_ij (w_j - w_i). So
    the off-pattern part of a unit y has Frobenius norm, and each of its
    entries has modulus, at most 2 err / g, g the smallest gap between
    clusters. Merging clusters only grows P and loses nothing; splitting a
    true cluster would lose elements that no later check can see, so the
    route requires 2 err / g <= RANK_TOL. As g <= 2 |h|, that implies the
    membership gate whenever h has two clusters; the gate is the early exit
    for an input that is not *-closed. The nullspace is then read as in
    :func:`_nullspace`, mapped back by y = U y^ U^H, and accepted when its
    rank gap is at least PAIR_GAP_MIN and every element commutes with every
    basis element of a to RANK_TOL.
    """
    pair = np.tensordot(_pair_coefficients(a.dim), a.basis, axes=(1, 0))
    h = pair[0] + pair[0].conj().T
    residual = membership_residual(h, a)
    if not residual <= RANK_TOL:  # h outside a (a not *-closed): A' need not commute with h
        return None
    w, u = np.linalg.eigh(h)
    gaps = np.diff(w)
    split = gaps > CLUSTER_TOL * np.max(np.abs(w))
    err = residual * np.linalg.norm(h) + np.linalg.norm(h @ u - u * w)
    if not 2.0 * err <= RANK_TOL * np.min(gaps[split], initial=np.inf):
        return None
    cluster = np.concatenate(([0], np.cumsum(split)))
    rows, cols = np.nonzero(cluster[:, None] == cluster)
    c, gap = _nullspace(u.conj().T @ pair @ u, rows, cols, u)
    # in slices of about |P| / (2 dim a) elements, so the temporaries stay below the stack
    leak = commutator_leak(c.basis, a.basis, 2 * a.dim * c.dim // len(rows))
    return c if gap >= PAIR_GAP_MIN and leak <= RANK_TOL else None


def commutator_leak(xs: np.ndarray, bs: np.ndarray, parts: int) -> float:
    """Largest Frobenius norm of [x, b] over the (k, d, d) stacks xs and bs; 0.0 if one is empty.

    xs is swept in max(1, parts) slices, so the temporaries hold one slice's
    commutators with every b at a time. A NaN norm propagates.
    """
    return float(np.max([np.max(np.linalg.norm(x @ bs - bs @ x, axis=(-2, -1)), initial=0.0)
                         for x in np.array_split(xs[:, None], max(1, parts))], initial=0.0))


@lru_cache(maxsize=None)
def _pair_coefficients(k: int) -> np.ndarray:
    """Two unit-norm complex Gaussian coefficient rows, seeded by (0, k) alone."""
    rng = np.random.default_rng((0, k))
    g = rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    g.setflags(write=False)
    return g


def _nullspace(xs: np.ndarray, rows, cols, u=None) -> tuple[OperatorSubspace, float]:
    """Nullspace of the commutator stack of xs on the pattern (rows, cols), and its rank gap.

    Read from the SVD of the stack's |P| x |P| R factor; memory is the stack
    plus the QR's one copy. The gap is the smallest singular value above the
    null threshold, relative to max(sv0, 1) (inf when every one is null). The
    null vectors are scattered onto the pattern and, given u, mapped back by
    y -> u y u^H. The full stack passes no u: a product with the identity
    keeps the values but can flip the sign of a zero, which moves LAPACK's
    reflectors and so the bits of the basis.
    """
    d = xs.shape[-1]
    r = np.linalg.qr(_commutator_stack(xs, rows, cols), mode="r")
    _, sv, vh = np.linalg.svd(r)
    # basis elements are trace-normalized, so genuine non-commutation shows up
    # at scale O(1); the floor keeps noise-level singular values in the nullspace
    scale = max(float(sv[0]), 1.0)
    null = sv <= RANK_TOL * scale
    gap = float(np.min(sv[~null], initial=np.inf)) / scale
    y = np.zeros((int(null.sum()), d, d), dtype=complex)
    y[:, rows, cols] = vh[null].conj()
    return subspace_orthonormalize(y if u is None else u @ y @ u.conj().T), gap


def _commutator_stack(xs: np.ndarray, rows, cols) -> np.ndarray:
    """The (k d^2, |P|) stack whose block n maps y, supported on P, to vec([y, x_n]).

    Column l is vec([E_pq, x_n]) for (p, q) = (rows[l], cols[l]), row-major:
    entry (i, j) is delta_ip x_n[q, j] - delta_qj x_n[i, p]. With every index
    pair in row-major order it is the full stack, vec(x b) = (1 (x) b^T) vec(x)
    and vec(b x) = (b (x) 1) vec(x).
    """
    k, d, _ = xs.shape
    col = np.arange(len(rows))
    stack = np.zeros((k, d, d, len(rows)), dtype=complex)
    stack[:, rows, :, col] = xs[:, cols, :].transpose(1, 0, 2)
    stack[:, :, cols, col] -= xs[:, :, rows]
    return stack.reshape(k * d * d, len(rows))


def mutual_projection_residual(a: OperatorSubspace, b: OperatorSubspace) -> float:
    """Largest distance of a basis element of either subspace from the other (NaN if any is)."""
    if a.dim != b.dim:
        return 1.0
    return float(np.max(np.concatenate([membership_residual(a.basis, b),
                                        membership_residual(b.basis, a)]), initial=0.0))


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
    separating, and the condition number that every solve is gated on: the
    gate sits in :meth:`coefficients`, and :meth:`solve` combines the basis
    with what it returns.
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

    def coefficients(self, v) -> np.ndarray:
        """Basis coefficients c of the unique element a = sum_i c_i b_i with a omega = v.

        v is one vector (d,) or a block of them, (d, m) or (d, ...), one per
        column; the result has v's shape, one coefficient column per vector,
        from one solve. The orbit matrix must be square (omega cyclic and
        separating) with cond at most COND_CAP.
        """
        v = np.asarray(v, dtype=complex)
        b = self.matrix
        if b.shape[0] != b.shape[1]:
            raise AlgebraError(
                f"solve needs dim = d, got {b.shape[1]} basis elements at dimension {b.shape[0]}"
            )
        if self.cond > COND_CAP:
            raise IllConditionedError(self.cond)
        return np.linalg.solve(b, v.reshape(len(b), -1)).reshape(v.shape)

    def solve(self, v) -> np.ndarray:
        """The elements a with a omega = v, shape v.shape[1:] + (d, d), as :meth:`coefficients`."""
        return self.space.element(np.moveaxis(self.coefficients(v), 0, -1))


def orbit(a: OperatorSubspace, omega) -> Orbit:
    """Build the orbit matrix of a at omega and factor it once."""
    omega = np.asarray(omega, dtype=complex)
    m = (a.basis @ omega).T
    return Orbit(a, omega, m, np.linalg.svd(m, compute_uv=False))
