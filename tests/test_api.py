"""The package surface: every public name is declared once, by its module."""

import ast
from pathlib import Path

import hoffman
from hoffman import activesets, analysis, convex, formats, lp, rational, sampling

MODULES = (rational, lp, convex, activesets, analysis, sampling, formats)

PUBLIC_NAMES = {
    "ActiveSetFamily", "Certificate", "ErrorBoundVerdict", "FarkasCertificate",
    "FeasibilityResult", "IndexSet", "InequalitySystem", "Level", "LinearProgram",
    "LinearSolution", "LpOutcome", "LpStatus", "Mat", "MinMaxValue", "NO_ERROR_BOUND",
    "NoErrorBound", "Perturbation", "Rational", "SampleConfig", "StabilityVerdict",
    "SystemFileError", "Trichotomy", "Vec", "__version__", "active_set",
    "affine_hull_dim", "certificate_to_data", "check_error_bound", "check_stability",
    "convex_hull_multipliers", "digest_of", "directional_derivative",
    "enumerate_active_sets", "estimate_hoffman",
    "exact_field", "feasible", "format_rational", "hoffman_constant_sq",
    "inradius_at_origin_sq", "load_certificate", "load_system", "make_index_set",
    "make_report", "max_residual", "maximal_sets", "min_norm_point_sq", "minmax_sign",
    "minmax_value_sq", "nullspace", "parse_certificate_data", "parse_rational",
    "parse_scalar_value", "parse_system_data", "parse_vec_data", "perturb",
    "rank", "realizability", "residuals", "sample_minmax",
    "save_certificate", "save_system", "solve_linear", "solve_lp", "sqrt_approx",
    "system_to_data", "to_rational", "vec_to_data", "verify_certificate",
    "worst_case_system",
}


def test_public_names_are_the_package_surface():
    assert len(hoffman.__all__) == len(PUBLIC_NAMES)
    assert set(hoffman.__all__) == PUBLIC_NAMES


def test_every_public_name_is_declared_by_exactly_one_module():
    for name in hoffman.__all__:
        assert hasattr(hoffman, name), name
        if name == "__version__":
            continue
        owners = [module for module in MODULES if name in module.__all__]
        assert len(owners) == 1, (name, [module.__name__ for module in owners])
        assert getattr(hoffman, name) is getattr(owners[0], name)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_imports_a_private_name_of_another():
    """Neither `from .m import _x` nor `X._x` on a name X imported from the package."""
    found = []
    for path in sorted(Path(hoffman.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("hoffman")):
                found += [(path.name, alias.name) for alias in node.names if _private(alias.name)]
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.partition(".")[0]
                             for alias in node.names if alias.name.startswith("hoffman")}
        found += [
            (path.name, f"{node.value.id}.{node.attr}")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in imported and _private(node.attr)
        ]
    assert found == []
