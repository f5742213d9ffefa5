"""The pure enumeration kernel used by the brute-force oracle."""

from cyclotwist import _enum_py


def test_pure_kernel_basic_shape():
    atoms = _enum_py.atoms(5, 1, 1)
    assert atoms == [(3, 2), (3, 3)]
    assert all(len(v) == 2 for v in atoms)
