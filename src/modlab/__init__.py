"""modlab: a desk-scale numerical laboratory for Tomita-Takesaki modular theory.

The package constructs the modular data (Tomita operator, modular
conjugation, modular operator) of finite-dimensional von Neumann algebras
with cyclic-separating vectors, and verifies the operator identities,
transfer bounds, and contour-integral calculus that underlie the invariance
of such algebras under modular flow.

The entry point is the ``modlab`` command (:mod:`modlab.cli`); library code
imports the submodules, such as :mod:`modlab.algebra`, directly.
"""
