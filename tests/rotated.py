"""A fixture with complex bases, for tests that contract against a basis.

The block models' bases and eigenvectors are real, so a missing ``conj``
goes unseen on them; conjugating by a seeded unitary makes them complex.
"""

import numpy as np

from modlab.algebra import subspace_orthonormalize
from modlab.fixtures import generate_fixture, parse_spec
from modlab.tomita import modular_data


def rotated_triple(seed):
    """standard_factor(2) conjugated by a seeded unitary, so that its bases are
    complex, unlike those of the block models."""
    t = generate_fixture(parse_spec("standard_factor(2)"), seed).triple
    g = np.random.default_rng(seed).standard_normal((2, 4, 4))
    q, _ = np.linalg.qr(g[0] + 1j * g[1])

    def rotate(space):
        return subspace_orthonormalize([q @ b @ q.conj().T for b in space.basis])

    return modular_data(rotate(t.algebra), q @ t.omega, rotate(t.commutant))
