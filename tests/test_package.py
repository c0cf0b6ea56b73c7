"""Package surface: exports resolve and the version is set."""

import dataclasses
import importlib
import inspect
import pkgutil

import lgdual


def test_all_exports_resolve():
    for name in lgdual.__all__:
        assert getattr(lgdual, name, None) is not None, name


def test_every_module_export_resolves():
    modules = [info.name for info in pkgutil.iter_modules(lgdual.__path__)]
    assert "linalg" in modules and "cli" in modules
    for name in modules:
        module = importlib.import_module("lgdual." + name)
        for export in getattr(module, "__all__", ()):
            assert getattr(module, export, None) is not None, "lgdual.%s.%s" % (name, export)


# Dropping a public name is an API change that needs a stated reason: this
# list fails loudly when a name disappears from (or is added to) the package.
PUBLIC_NAMES = [
    "BundleSpec", "BundleVerdict", "ChowClass", "ChowGroup", "ComplexQ",
    "DimensionMismatchError", "EmptyInteriorError", "FacetReport", "GroupMismatchError",
    "HalfspaceSystem", "IntMatrix", "KopasepticReport", "LGModel", "LinearData",
    "NotKopasepticError", "ParseError", "RegularityError", "SelfDualityWitness",
    "ShapeMismatchError", "SmithDecomposition", "Superpotential", "ToricData",
    "ValidationError", "__version__", "bundle_model",
    "bundle_over_p1", "canonical_class", "classify_cy", "cokernel", "default_k_class",
    "default_l_class", "dualize", "facets", "format_complex",
    "format_model", "from_linear_data", "generic_sections",
    "hnf_col_transform", "infeasibility_certificate", "is_kopaseptic", "is_regular",
    "k_reconstruction_class", "linear_data", "load_model", "matrix_self_dual",
    "model_self_dual", "moment_polygon", "mon_matrix", "monomial_name", "order_matrix",
    "parse_complex", "parse_model", "product", "product_self_dual",
    "projective_line", "render_svg", "right_equivalent", "self_dual_witness", "snf",
    "split_bundle_total_space", "strict_interior_nonempty", "strict_interior_point",
    "sum_models", "sweep_line_bundles", "sweep_rank_two",
]


def test_public_names_are_pinned():
    assert sorted(lgdual.__all__) == PUBLIC_NAMES


def test_version_string():
    major, minor, patch = lgdual.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))


def test_only_the_two_verdict_types_are_dataclasses():
    # Building a dataclass generates and compiles its methods at import, which
    # cost more than half of `import lgdual`; the other value types share
    # complexq._Frozen instead.  These two stay dataclasses because
    # bench/selftest.py builds altered verdicts with dataclasses.replace.
    found = set()
    for info in pkgutil.iter_modules(lgdual.__path__):
        module = importlib.import_module("lgdual." + info.name)
        for name, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__module__ == module.__name__ and dataclasses.is_dataclass(obj):
                found.add(name)
    assert found == {"BundleVerdict", "SelfDualityWitness"}
