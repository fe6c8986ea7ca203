"""semirad needs numpy alone, its modules share public names only, and each
public name is listed once, in the `__all__` of the module that defines it."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import semirad

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "semirad").glob("*.py"))


def test_import_loads_no_scipy():
    # a fresh interpreter, so that no other test's imports count
    code = (
        "import sys, semirad, semirad.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


PUBLIC = """
    BoundReport ContextMismatch DegreeZero DimensionMismatch EigenDecomposition
    InclusionReport InvalidMatrix MatrixBoundReport NonPositiveWeight
    NotAAdjointable NotHermitian NotPSD NotSquare NotStrictlyPositive
    NumericalFailure PolynomialSpec PositiveOperator RangeEstimate SemiOperator
    TOutOfRange ValidationError WeightDimensionMismatch ZeroBoundReport a_crawford
    a_inner a_norm_vec a_numerical_radius a_operator_seminorm add_operators
    adjoint_operator alphas assemble_blocks block_bound_lemma24 block_bound_th25
    block_bound_th27 block_bound_th28 bound_carmichael_mason bound_cauchy
    bound_fujii_kubo bound_prk bound_report certificate_matrix companion
    estimate_range general_eig hermitian_eig identity_context im_a is_a_positive
    is_a_selfadjoint is_a_unitary lower_bound_21 lower_bound_22 make_context
    make_operator make_polynomial matrix_bound_report max_root_modulus
    monte_carlo_radius monte_carlo_seminorm optimize_t optimize_weights re_a
    scale_operator spectral_inclusion_check spectral_norm upper_bound_hphi
    validate_weights w_theta_identity_check zero_bound_report
""".split()

# the modules whose __all__ the package re-exports
EXPORTING = ("arange", "bounds", "errors", "linalg", "polyzero", "semihilbert")


def test_package_exports_the_public_names():
    assert len(PUBLIC) == 70
    assert sorted(semirad.__all__) == PUBLIC
    bound = {}
    exec("from semirad import *", bound)
    assert sorted(set(bound) - {"__builtins__"}) == PUBLIC


def test_each_public_name_is_listed_once_in_its_module():
    seen = []
    for name in EXPORTING:
        module = importlib.import_module(f"semirad.{name}")
        assert module.__all__ == sorted(module.__all__), name
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
        seen += module.__all__
    assert len(seen) == len(set(seen))
    for name in ("cells", "scan"):
        assert not hasattr(importlib.import_module(f"semirad.{name}"), "__all__")


def test_no_module_imports_a_private_name_of_another():
    # ``from .<module> import _<name>`` (or ``from semirad.<module> ...``)
    # anywhere in the package, with no allow-list
    found = []
    for source in SOURCES:
        tree = ast.parse(source.read_text(encoding="utf-8"), filename=source.name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").partition(".")[0] != "semirad":
                continue
            found += [
                f"{source.name}:{node.lineno} {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    assert found == []
