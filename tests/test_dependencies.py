"""linkmetrics depends on NumPy and the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import linkmetrics

PACKAGE = Path(linkmetrics.__file__).parent


def _fresh_python(script: str) -> str:
    """What `script` prints in a fresh interpreter that finds this package,
    since this session has loaded pytest, hypothesis and whatever they import."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    )
    return result.stdout


def test_modules_import_only_numpy_and_the_standard_library():
    # NumPy is imported first, so what it loads itself does not count.
    modules = ["linkmetrics"] + sorted(f"linkmetrics.{p.stem}" for p in PACKAGE.glob("[!_]*.py"))
    script = (
        "import importlib, sys\n"
        "import numpy\n"
        "before = set(sys.modules)\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted(loaded - set(sys.stdlib_module_names) - {'linkmetrics'}))\n"
    )
    assert _fresh_python(script) == "[]\n"


def test_package_root_imports_no_module():
    # Each name is imported from the module that defines it, so the root
    # loads none of them.
    script = (
        "import sys, linkmetrics\n"
        "print(sorted(name for name in sys.modules if name.startswith('linkmetrics.')))\n"
    )
    assert _fresh_python(script) == "[]\n"
