"""Every fkemu name the end-to-end benchmark reads still resolves in the package.

perfbench/ drives fkemu from outside and is read here, never imported: its
workloads and its tracer are parsed, and each name they read on fkemu
without a guard must exist, so that a removal in src/ cannot break a
benchmark run that only CI would notice.
"""

import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
FILES = ("workloads.py", "tracing.py")


def fkemu_reads(tree: ast.AST) -> set[tuple[str, str]]:
    """(module, name) for every fkemu name the parsed file reads unguarded:
    each name of a ``from fkemu... import``, each attribute read on a module
    bound by ``from fkemu import m``, and each ``_module("m").name``."""
    modules = {}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fkemu":
            for alias in node.names:
                reads.add((node.module, alias.name))
                if node.module == "fkemu":
                    modules[alias.asname or alias.name] = f"fkemu.{alias.name}"
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in modules:
            reads.add((modules[base.id], node.attr))
        elif (
            isinstance(base, ast.Call)
            and isinstance(base.func, ast.Name)
            and base.func.id == "_module"
            and len(base.args) == 1
            and isinstance(base.args[0], ast.Constant)
        ):
            reads.add((f"fkemu.{base.args[0].value}", node.attr))
    return reads


def resolves(module: str, name: str) -> bool:
    """Whether ``from module import name`` would succeed."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_every_name_perfbench_reads_resolves():
    reads = set()
    for name in FILES:
        path = PERFBENCH / name
        reads |= fkemu_reads(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    # the walk sees the reads that hold names in the package
    assert {("fkemu.dh", "chain_pose"), ("fkemu.cordic", "cordic_step"), ("fkemu", "cli")} <= reads
    missing = sorted(f"{m}.{n}" for m, n in reads if not resolves(m, n))
    assert missing == []
