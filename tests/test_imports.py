"""numpy is the only runtime dependency: importing biparsdp loads nothing
else; every function the benchmark's tracer wraps exists; and the public
names, in `__all__` and in the README, exist."""

import ast
import importlib
import os
import pathlib
import re
import subprocess
import sys

import biparsdp

SRC = str(pathlib.Path(biparsdp.__file__).resolve().parent.parent)
ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
README = ROOT / "README.md"

_NEW_TOP_LEVEL = """
import sys
before = set(sys.modules)
import biparsdp
print(*sorted({name.partition(".")[0] for name in set(sys.modules) - before}))
"""


def test_import_loads_no_third_party_package_but_numpy():
    """A fresh interpreter imports biparsdp without any undeclared package.

    scipy, say, is often installed next to numpy; pulling it in would add a
    few tenths of a second to every process and an undeclared dependency.
    """
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", _NEW_TOP_LEVEL],
        capture_output=True, text=True, check=True, env=env, timeout=60,
    ).stdout.split()
    assert "biparsdp" in out and "numpy" in out
    stdlib = set(sys.stdlib_module_names) | set(sys.builtin_module_names)
    assert sorted(set(out) - stdlib - {"biparsdp", "numpy"}) == []


def test_traced_functions_resolve():
    """Each (module, function) in perfbench/tracing.py's TRACED exists in
    biparsdp, so that deleting or renaming a traced function fails here, not
    in a traced benchmark run.  TRACED is read as a literal; perfbench is
    neither imported nor run."""
    (traced,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(TRACING.read_text()).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    ]
    assert traced
    missing = [
        (module, func) for module, func, _ in traced
        if not callable(getattr(importlib.import_module(f"biparsdp.{module}"), func, None))
    ]
    assert missing == []


def test_public_names_resolve():
    """Every name in `biparsdp.__all__` exists, and every function the
    README's "Library" section names (imported in its example, or quoted as
    `name` or `name(...)`) is in `__all__`, so that a deleted export cannot
    stay documented."""
    assert [name for name in biparsdp.__all__ if not hasattr(biparsdp, name)] == []
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (imported,) = re.findall(r"^from biparsdp import (.+)$", library, flags=re.M)
    named = {name.strip() for name in imported.split(",")}
    named |= set(re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", library))
    assert len(named) > 10
    assert sorted(named - set(biparsdp.__all__)) == []
