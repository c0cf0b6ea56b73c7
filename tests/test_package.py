"""Package surface: exports resolve and the version is set."""

import importlib
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


def test_version_string():
    major, minor, patch = lgdual.__version__.split(".")
    assert all(part.isdigit() for part in (major, minor, patch))
