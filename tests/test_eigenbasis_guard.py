"""Only ``linalg.py`` reads a SpectralDecomposition's eigenvectors.

Every function of Delta reaches its eigenbasis through
``SpectralDecomposition.apply`` (vectors) or ``function`` (matrices), so that
the contraction U (f(w) * U^dag v) is written once. A hand-written copy
elsewhere is where a dropped ``conj`` hides: every block model's eigenvectors
are a permutation matrix, on which conj changes nothing. This test fails when
a module of ``src/modlab`` other than ``linalg.py`` reads the attribute
``eigenvectors``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "modlab"


def eigenvector_reads(tree) -> list[int]:
    """Line of each read of an ``.eigenvectors`` attribute."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "eigenvectors")


def test_only_linalg_reads_the_eigenbasis():
    reads = {path.name: eigenvector_reads(ast.parse(path.read_text(), filename=str(path)))
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "linalg.py"}
    assert {name: lines for name, lines in reads.items() if lines} == {}


def test_guard_flags_each_kind_of_read():
    snippet = (
        "u = triple.delta_spec.eigenvectors\n"
        "v = spec.eigenvectors.conj().T @ psi\n"
        "w = (dec.eigenvectors * x) @ y\n"
        "eigenvectors = 1\n"
        "z = dec.eigenvalues\n"
    )
    assert eigenvector_reads(ast.parse(snippet)) == [1, 2, 3]
