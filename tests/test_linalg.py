import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modlab.linalg import (
    AntilinearMap,
    EigensolverError,
    FunctionDomainError,
    LinalgError,
    SingularMapError,
    SpectralDecomposition,
    complex_power,
    hermitian_eig,
    opnorm,
    opnorm_stack,
    polar_antilinear,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, d):
    m = random_complex(rng, d, d)
    return (m + m.conj().T) / 2


# ---------------------------------------------------------------------------
# hermitian_eig
# ---------------------------------------------------------------------------


def test_eig_identity():
    dec = hermitian_eig(np.eye(4))
    assert np.allclose(dec.eigenvalues, [1, 1, 1, 1])


def test_eig_diagonal_sorted_ascending():
    dec = hermitian_eig(np.diag([2.0, 0.5]))
    assert np.allclose(dec.eigenvalues, [0.5, 2.0])


def test_eig_reconstruction_random_d8():
    rng = np.random.default_rng(11)
    h = random_hermitian(rng, 8)
    dec = hermitian_eig(h)
    scale = np.linalg.norm(h)
    u = dec.eigenvectors
    assert np.linalg.norm((u * dec.eigenvalues) @ u.conj().T - h) <= 1e-12 * scale
    assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-12 * 8


def test_eig_rejects_non_square():
    with pytest.raises(LinalgError):
        hermitian_eig(np.ones((2, 3)))


def test_eig_rejects_non_hermitian():
    with pytest.raises(EigensolverError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_rejects_nan():
    with pytest.raises(LinalgError):
        hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# SpectralDecomposition.function / apply, complex_power
# ---------------------------------------------------------------------------


def test_function_identity_map():
    rng = np.random.default_rng(3)
    h = random_hermitian(rng, 5)
    dec = hermitian_eig(h)
    assert np.linalg.norm(dec.function(dec.eigenvalues) - h) <= 1e-12 * np.linalg.norm(h)


def test_function_inverse_on_diagonal():
    dec = hermitian_eig(np.diag([2.0, 4.0]))
    out = dec.function(1.0 / dec.eigenvalues)
    assert np.allclose(out, np.diag([0.5, 0.25]))


def test_function_step_gives_projector():
    # eigenvalue-by-eigenvalue oracle: the step at 1.5 keeps {1/2, 1, 1},
    # drops {2}, so the result is a rank-3 orthogonal projector
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(random_complex(rng, 4, 4))
    h = q @ np.diag([0.5, 1.0, 1.0, 2.0]) @ q.conj().T
    dec = hermitian_eig(h)
    p = dec.function(np.where(1.5 - dec.eigenvalues > 0, 1.0, 0.0))
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.allclose(p, p.conj().T, atol=1e-12)
    assert abs(np.trace(p).real - 3.0) <= 1e-10


def test_apply_equals_the_function_times_each_row():
    # a complex eigenbasis, and values that broadcast: a stack of (2, 3)
    # functions applied to 3 vectors, and one function applied to all of them
    rng = np.random.default_rng(13)
    dec = hermitian_eig(random_hermitian(rng, 4))
    assert np.abs(dec.eigenvectors.imag).max() > 0.1
    values = random_complex(rng, 2, 3, 4)
    vs = random_complex(rng, 3, 4)
    out = dec.apply(values, vs)
    assert out.shape == (2, 3, 4)
    ref = (dec.function(values) @ vs[..., None])[..., 0]
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)
    one = dec.apply(values[0, 0], vs)
    assert np.linalg.norm(one - vs @ dec.function(values[0, 0]).T) <= 1e-12 * np.linalg.norm(one)


def test_complex_power_trivial_cases():
    rng = np.random.default_rng(7)
    h = np.diag([0.3, 1.0, 2.5]) + 0j
    dec = hermitian_eig(h)
    assert np.allclose(complex_power(dec, 0.0), np.eye(3))
    assert np.allclose(complex_power(dec, 1.0), h)


def test_complex_power_imaginary_scalar_oracle():
    dec = hermitian_eig(np.diag([2.0, 0.5]))
    t = 0.7
    out = complex_power(dec, -1j * t)
    # scalar exponential oracle in the original basis order: 2^(-it), 2^(it)
    oracle = np.diag([np.exp(-1j * t * np.log(2.0)), np.exp(1j * t * np.log(2.0))])
    assert np.allclose(out, oracle, atol=1e-13)
    assert np.linalg.norm(out @ out.conj().T - np.eye(2)) <= 1e-12


def test_complex_power_rejects_nonpositive_spectrum():
    dec = hermitian_eig(np.diag([0.0, 1.0]))
    with pytest.raises(FunctionDomainError):
        complex_power(dec, 0.5)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.floats(min_value=-8.0, max_value=8.0),
    st.floats(min_value=-8.0, max_value=8.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_complex_power_group_law(d, re1, re2, im, seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d)
    # keep eigenvalues positive and moderately conditioned
    dec0 = hermitian_eig(h)
    w = 0.25 + np.abs(dec0.eigenvalues) / (np.max(np.abs(dec0.eigenvalues)) + 1e-9)
    h = (dec0.eigenvectors * w) @ dec0.eigenvectors.conj().T
    dec = hermitian_eig(h)
    z1 = complex(re1, im)
    z2 = complex(re2, -im / 2)
    lhs = complex_power(dec, z1) @ complex_power(dec, z2)
    rhs = complex_power(dec, z1 + z2)
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1.0)
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * scale


def test_complex_power_array_equals_the_per_exponent_formula():
    rng = np.random.default_rng(29)
    h = random_hermitian(rng, 5) + 6.0 * np.eye(5)
    dec = hermitian_eig(h)
    assert [f.name for f in dataclasses.fields(SpectralDecomposition)] == ["eigenvalues",
                                                                           "eigenvectors"]
    u, log_w = dec.eigenvectors, np.log(dec.eigenvalues.astype(complex))
    # ints, reals, both signed complex zeros and complex values in one array
    exponents = [2, -3, -0.5, 1.0, -1j * 0.0, 0j, -1j * 0.3, complex(0.7, -2.0)]
    zs = np.array(exponents).reshape(2, 4)
    stack = complex_power(dec, zs)
    assert stack.shape == (2, 4, 5, 5)
    for z, power in zip(exponents, stack.reshape(-1, 5, 5)):
        formula = (u * np.exp(z * log_w)) @ u.conj().T
        assert power.tobytes() == formula.tobytes()
        assert complex_power(dec, z).tobytes() == formula.tobytes()
    ints = complex_power(dec, np.arange(-2, 3))  # an integer array, as the ladder passes
    assert ints.shape == (5, 5, 5) and ints[4].tobytes() == stack[0, 0].tobytes()


def test_opnorm_bits_equal_numpy_two_norm():
    rng = np.random.default_rng(31)
    mats = [random_complex(rng, d, d) for d in range(1, 17)]
    mats += [np.zeros((4, 4), dtype=complex)]
    mats += [np.outer(random_complex(rng, d), random_complex(rng, d).conj()) for d in (1, 3, 9)]
    for m in mats:
        assert opnorm(m) == float(np.linalg.norm(m, 2))


@pytest.mark.parametrize("d", [4, 9, 16])
def test_opnorm_stack_bits_equal_opnorm_loop(d):
    stack = random_complex(np.random.default_rng(d), 3, 5, d, d)
    norms = opnorm_stack(stack)
    assert norms.shape == (3, 5)
    assert np.array_equal(norms, [[opnorm(m) for m in row] for row in stack])


def test_opnorm_stack_keeps_a_nan_matrix_to_its_own_index():
    stack = random_complex(np.random.default_rng(5), 6, 4, 4)
    stack[2, 1, 3] = np.nan
    with pytest.raises(np.linalg.LinAlgError):  # what the batch would do unmasked
        np.linalg.svd(stack, compute_uv=False)
    norms = opnorm_stack(stack)
    assert np.isnan(norms[2]) and np.isnan(opnorm(stack[2]))
    finite = [0, 1, 3, 4, 5]
    assert np.array_equal(norms[finite], [opnorm(stack[i]) for i in finite])


# ---------------------------------------------------------------------------
# antilinear maps
# ---------------------------------------------------------------------------


def test_antilinear_composition_rule_exact():
    rng = np.random.default_rng(23)
    n = random_complex(rng, 4, 4)
    m = random_complex(rng, 4, 4)
    tn, tm = AntilinearMap(n), AntilinearMap(m)
    composed = tn.compose(tm)
    assert np.array_equal(composed, n @ np.conj(m))
    for _ in range(100):
        psi = random_complex(rng, 4)
        # composed matrix applied along the same arithmetic path
        assert np.array_equal(composed @ psi, (n @ np.conj(m)) @ psi)
        # sequential application agrees to rounding
        seq = tn(tm(psi))
        assert np.linalg.norm(seq - composed @ psi) <= 1e-12 * max(np.linalg.norm(seq), 1.0)


def test_antilinear_adjoint_defining_relation():
    rng = np.random.default_rng(29)
    t = AntilinearMap(random_complex(rng, 5, 5))
    ts = t.adjoint()
    assert np.array_equal(ts.matrix, t.matrix.T)
    for _ in range(100):
        psi = random_complex(rng, 5)
        phi = random_complex(rng, 5)
        lhs = np.vdot(ts(phi), psi)   # <T* phi, psi>
        rhs = np.vdot(t(psi), phi)    # <T psi, phi>
        scale = max(abs(lhs), abs(rhs), 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# polar decomposition of antilinear maps
# ---------------------------------------------------------------------------


def test_polar_identity_map():
    j, delta, _ = polar_antilinear(AntilinearMap(np.eye(3) + 0j))
    assert np.allclose(j.matrix, np.eye(3))
    assert np.allclose(delta, np.eye(3))


def _standard_form_tomita_matrix(p):
    # independent construction: S maps column-stacked a.sqrt(rho) to a*.sqrt(rho)
    n = len(p)
    c = np.sqrt(np.asarray(p, dtype=complex))
    omega = np.zeros(n * n, dtype=complex)
    for i in range(n):
        omega[i * n + i] = c[i]
    basis = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            basis.append(np.kron(e, np.eye(n)))
    b = np.column_stack([x @ omega for x in basis])
    bs = np.column_stack([x.conj().T @ omega for x in basis])
    return np.linalg.solve(b.conj().T, bs.T).T, omega


def test_polar_fixes_omega():
    m, omega = _standard_form_tomita_matrix([2 / 3, 1 / 3])
    s = AntilinearMap(m)
    assert np.linalg.norm(s(omega) - omega) <= 1e-12
    j, delta, _ = polar_antilinear(s)
    assert np.linalg.norm(j(omega) - omega) <= 1e-10
    assert np.linalg.norm(delta @ omega - omega) <= 1e-10


def test_polar_conjugation_inverts_delta():
    m, _ = _standard_form_tomita_matrix([0.6, 0.3, 0.1])
    s = AntilinearMap(m)
    j, delta, _ = polar_antilinear(s)
    jdj = j.matrix @ np.conj(delta @ j.matrix)
    assert np.linalg.norm(jdj - np.linalg.inv(delta)) <= 1e-10 * np.linalg.norm(np.linalg.inv(delta))
    # reconstruction and involutions for a Tomita-type (involutive) map
    dec = hermitian_eig(delta)
    assert np.linalg.norm(j.compose_linear(complex_power(dec, 0.5)).matrix - m) <= 1e-10 * np.linalg.norm(m)
    assert np.linalg.norm(j.compose(j) - np.eye(9)) <= 1e-10
    assert np.linalg.norm(s.compose(s) - np.eye(9)) <= 1e-10


def test_polar_j_antiunitary_for_generic_invertible_map():
    rng = np.random.default_rng(31)
    m = random_complex(rng, 4, 4) + 3 * np.eye(4)
    j, delta, _ = polar_antilinear(AntilinearMap(m))
    # antiunitarity J* J = 1 holds for any invertible input
    assert np.linalg.norm(j.adjoint().matrix @ np.conj(j.matrix) - np.eye(4)) <= 1e-10
    # positivity of delta
    assert np.min(np.linalg.eigvalsh(delta)) > 0


def test_polar_rejects_singular():
    with pytest.raises(SingularMapError):
        polar_antilinear(AntilinearMap(np.diag([1.0, 0.0]) + 0j))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_polar_reconstruction_property(d, seed):
    # for any invertible antilinear map: delta positive, J antiunitary, and
    # J o delta^(1/2) reconstructs the map (involutivity is NOT general)
    rng = np.random.default_rng(seed)
    g = random_complex(rng, d, d)
    # diagonal shift by 2|g| keeps sigma_min >= |g|, so every draw is
    # comfortably invertible
    m = g + 2.0 * np.linalg.norm(g, 2) * np.eye(d)
    s = AntilinearMap(m)
    j, delta, dec = polar_antilinear(s)
    w = np.linalg.eigvalsh(delta)
    assert w.min() > 0
    assert np.linalg.norm(j.adjoint().matrix @ np.conj(j.matrix) - np.eye(d)) <= 1e-9 * d
    # the returned eigendata are Delta's own, the bits of a fresh hermitian_eig
    fresh = hermitian_eig(delta)
    assert np.array_equal(dec.eigenvalues, fresh.eigenvalues)
    assert np.array_equal(dec.eigenvectors, fresh.eigenvectors)
    recon = j.compose_linear(complex_power(dec, 0.5)).matrix
    assert np.linalg.norm(recon - m) <= 1e-9 * np.linalg.norm(m)
