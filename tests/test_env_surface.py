"""The environment surface of ``repro`` is exactly three variables.

Every ``REPRO_*`` name the package reads from the environment is a
global knob a user sets on purpose: worker processes for sweeps and the
sharded kernel.  A per-call bypass that keeps a second code path alive
belongs in the recorded goldens (``tests/eval/goldens/``), not in
``os.environ`` — this test fails the moment one creeps back in.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE_DIR = Path(repro.__file__).parent

EXPECTED = {"REPRO_JOBS", "REPRO_SHARDS", "REPRO_SHARD_MODE"}


def _is_environ(node: ast.AST) -> bool:
    """``os.environ`` (or a bare ``environ`` imported from os)."""
    if isinstance(node, ast.Attribute):
        return node.attr == "environ"
    return isinstance(node, ast.Name) and node.id == "environ"


def _read_keys(tree: ast.Module) -> list[ast.expr]:
    """Every expression used as a key into the environment."""
    keys: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if isinstance(func, ast.Attribute) and (
                (func.attr in ("get", "pop", "setdefault") and _is_environ(func.value))
                or func.attr == "getenv"
            ):
                keys.append(node.args[0])
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            keys.append(node.slice)
        elif isinstance(node, ast.Compare) and any(
            _is_environ(comparator) for comparator in node.comparators
        ):
            keys.append(node.left)
    return keys


def _string_constants(tree: ast.Module) -> dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments."""
    constants = {}
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    constants[target.id] = node.value.value
    return constants


def environment_reads() -> dict[str, list[str]]:
    """Environment variable name -> the modules that read it."""
    reads: dict[str, list[str]] = {}
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        constants = _string_constants(tree)
        for key in _read_keys(tree):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                name = key.value
            elif isinstance(key, ast.Name) and key.id in constants:
                name = constants[key.id]
            else:
                name = f"<unresolved {ast.unparse(key)}>"
            reads.setdefault(name, []).append(
                str(path.relative_to(PACKAGE_DIR.parent))
            )
    return reads


def test_package_reads_exactly_the_three_global_knobs():
    reads = environment_reads()
    assert set(reads) == EXPECTED, reads


def test_scanner_sees_every_known_read():
    # Guard the guard: each knob is found where it is actually read.
    reads = environment_reads()
    assert reads["REPRO_JOBS"] == ["repro/eval/experiment.py"]
    assert sorted(reads["REPRO_SHARDS"] + reads["REPRO_SHARD_MODE"]) == [
        "repro/core/builder.py",
        "repro/core/builder.py",
    ]
