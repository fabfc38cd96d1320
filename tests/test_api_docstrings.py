"""Docstring audit of the public serving, parallel, cluster and durability APIs.

The ``docs/`` tree points readers at the load-bearing classes; this test
keeps the pointers trustworthy: every name a package exports through
``__all__`` must carry a real docstring, and so must the public methods
of every exported class.
"""

from __future__ import annotations

import inspect

import pytest

import repro.cluster
import repro.durability
import repro.parallel
import repro.retrieval
import repro.serving

pytestmark = pytest.mark.fast

AUDITED_PACKAGES = [repro.serving, repro.parallel, repro.cluster,
                    repro.durability, repro.retrieval]


def _has_docstring(obj) -> bool:
    doc = getattr(obj, "__doc__", None)
    return bool(doc and doc.strip())


@pytest.mark.parametrize("package", AUDITED_PACKAGES,
                         ids=lambda package: package.__name__)
def test_every_exported_name_has_a_docstring(package):
    assert _has_docstring(package), f"{package.__name__} has no module docstring"
    assert package.__all__, f"{package.__name__} exports nothing"
    undocumented = [
        name for name in package.__all__
        if not _has_docstring(getattr(package, name))
    ]
    assert not undocumented, (
        f"{package.__name__} exports without docstrings: {undocumented}"
    )


@pytest.mark.parametrize("package", AUDITED_PACKAGES,
                         ids=lambda package: package.__name__)
def test_public_methods_of_exported_classes_are_documented(package):
    undocumented = []
    for name in package.__all__:
        exported = getattr(package, name)
        if not inspect.isclass(exported):
            continue
        for method_name, member in inspect.getmembers(exported):
            if method_name.startswith("_"):
                continue
            if not (inspect.isfunction(member) or isinstance(
                    member, (property, staticmethod, classmethod))):
                continue
            # Only audit methods the repo defines (not ndarray helpers
            # or other inherited library members).
            module = getattr(inspect.unwrap(getattr(member, "fget", member)),
                             "__module__", "") or ""
            if not module.startswith("repro."):
                continue
            if not _has_docstring(member):
                undocumented.append(f"{name}.{method_name}")
    assert not undocumented, (
        f"{package.__name__} class members without docstrings: {undocumented}"
    )

