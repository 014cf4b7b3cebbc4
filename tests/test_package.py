import ast
import builtins
import re
from pathlib import Path

import pytest

import qsatom
from qsatom import DriveConfig, bloch, cli, model, oracle, spectrum, xsection

SRC = Path(qsatom.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in qsatom.__all__ if not hasattr(qsatom, name)]
    assert missing == []


def test_star_import_binds_each_name_to_its_layers_object():
    ns = {}
    exec("from qsatom import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == sorted(qsatom.__all__)
    assert len(set(qsatom.__all__)) == len(qsatom.__all__) == 37
    homes = (model, bloch, xsection, spectrum, oracle)
    for name in qsatom.__all__:
        # the object its layer defines: a function's or class's own module,
        # and for the one constant, the module of its class
        layer = next(m for m in homes if m.__name__ == ns[name].__module__)
        assert ns[name] is getattr(layer, name), name


@pytest.mark.parametrize("name", ["no_such_name", "_sq", "np", "oracle_check"])
def test_unknown_package_attribute_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(qsatom, name)
    assert not hasattr(qsatom, name)


def test_readme_names_every_exported_name():
    text = README.read_text(encoding="utf-8")
    missing = [name for name in qsatom.__all__ if not re.search(rf"\b{name}\b", text)]
    assert missing == []


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one
    # would vanish; the package raises explicit errors instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_names_no_numpy_random_or_polynomial():
    # verify draws from the standard library's MT19937 and takes its Legendre values
    # and Gauss rules from one recurrence; checked in the source, since no
    # command runs g_pm
    pattern = re.compile(r"\b(?:np|numpy)\.(?:random|polynomial)\b"
                         r"|from numpy import [^\n]*\b(?:random|polynomial)\b")
    found = [f"{path.name}:{n}"
             for path in sorted(SRC.glob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if pattern.search(line)]
    assert found == []


def test_package_names_no_svd_or_hermitian_eigensolver():
    # each LAPACK driver adds pages on its first call, and verify loads none
    # of them: the step rule bounds the spectral norm by the 1- and inf-norms,
    # the 2x2 state's eigenvalues are in closed form, and the drift's poles come
    # from its real cubic; every route to gesdd, gelsd, heevd or geev is named
    # here, np.roots too (it calls eigvals), as a call or an import
    pattern = re.compile(r"\b(?:svd|pinv|matrix_rank|lstsq|cond|eig|eigvals|eigh|eigvalsh)\b"
                         r"|\bnorm\([^()\n]*,\s*-?2\s*[,)]|\bord\s*=\s*-?2\b"
                         r"|\broots\s*\(|\bimport\b[^\n]*\broots\b")
    found = [f"{path.name}:{n}"
             for path in sorted(SRC.glob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if pattern.search(line)]
    assert found == []
    assert pattern.search("lam = float(np.linalg.norm(a, 2))")
    assert pattern.search("eigs = np.linalg.eigvalsh(rho)")
    assert pattern.search("poles = np.roots(char_poly(rs))")
    assert pattern.search("from numpy import pi, roots")
    assert not pattern.search("the roots of :func:`char_poly`")


_BLAS_NAMES = {"dot", "vdot", "inner", "tensordot", "matmul", "matrix_power"}


def _blas_entries(source: str) -> list[int]:
    """Lines of ``source`` that reach BLAS or LAPACK: an ``@``, ``np.linalg`` (or an
    import of it), a product by name or method, or an einsum asked to ``optimize``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr in _BLAS_NAMES | {"linalg"}:
            found.append(node.lineno)
        elif isinstance(node, ast.Name) and node.id in _BLAS_NAMES:
            found.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                part in _BLAS_NAMES | {"linalg"}
                for name in [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                for part in name.split(".")):
            found.append(node.lineno)
        elif (isinstance(node, ast.Call) and any(k.arg == "optimize" for k in node.keywords)
              and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum"):
            found.append(node.lineno)
    return found


def test_package_calls_no_blas_or_lapack():
    # verify's products, determinants and solves run in numpy's own loops
    # (bloch._mul, _det3 and _solve), so no call maps OpenBLAS's code pages
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _blas_entries(path.read_text(encoding="utf-8"))]
    assert found == []


@pytest.mark.parametrize("source", [
    "c = a @ b", "a @= b", "x = np.linalg.solve(m, b)", "d = numpy.linalg.det(m)",
    "from numpy.linalg import inv", "from numpy import linalg", "import numpy.linalg as la",
    "p = np.dot(a, b)", "p = a.dot(b)", "p = np.vdot(a, b)", "p = np.inner(a, b)",
    "p = np.tensordot(a, b, 1)", "p = np.matmul(a, b)", "from numpy import matmul",
    "p = matrix_power(a, 3)", "p = np.einsum('ij,jk->ik', a, b, optimize=True)",
    "p = einsum('ij,jk->ik', a, b, optimize='greedy')",
])
def test_blas_entry_scan_finds_each_route(source):
    assert _blas_entries(source) == [1]


def test_blas_entry_scan_passes_numpys_own_loops():
    assert _blas_entries("p = np.einsum('...ij,...jk->...ik', a, b)\n"
                         "n = np.abs(a).sum(axis=0).max()\nd = a * b\ninnermost = 1") == []


def test_readme_calls_name_package_functions():
    # a `name(` call left in the prose after its function went is stale
    text = README.read_text(encoding="utf-8")
    homes = (qsatom, builtins, model, bloch, xsection, spectrum, oracle, cli)
    called = set(re.findall(r"`(\w+)\(", text))
    assert called and [n for n in sorted(called)
                       if not any(hasattr(h, n) for h in homes)] == []


_TABLE = oracle.DEFAULT_TABLE
_SC = qsatom.scalars_from_phase_shifts(_TABLE)
_DC = DriveConfig(2.0, 0.3, 0.6)
_SCALAR_FORMS = {
    "sigma_tot": lambda: qsatom.sigma_tot(_SC, _DC),
    "sigma_el": lambda: qsatom.sigma_el(_SC, _DC),
    "sigma_inel": lambda: qsatom.sigma_inel(_SC, _DC),
    "sigma_diff": lambda: qsatom.sigma_diff(_TABLE, _DC, 0.7),
    "spectral_diff_elastic": lambda: qsatom.spectral_diff(_TABLE, _DC, 0.7, 0.4)[0],
    "spectral_diff_inelastic": lambda: qsatom.spectral_diff(_TABLE, _DC, 0.7, 0.4)[1],
    "sigma_tot_x": lambda: qsatom.sigma_tot_x(_SC, _DC, 0.4),
    "sigma_inel_x": lambda: qsatom.sigma_inel_x(_SC, _DC, 0.4),
    "mollow_inel_x": lambda: qsatom.mollow_inel_x(0.3, 2.0, 0.6, 0.4),
    "low_intensity_x": lambda: qsatom.low_intensity_x(_SC, 0.3, 0.6, 0.1, 0.4),
    "low_intensity_tot": lambda: qsatom.low_intensity_tot(_SC, 0.3),
    "finite_beam_balance": lambda: qsatom.finite_beam_balance(_TABLE, _DC, 0.1),
}


@pytest.mark.parametrize("name", sorted(_SCALAR_FORMS))
def test_scalar_forms_return_python_floats(name):
    assert type(_SCALAR_FORMS[name]()) is float
