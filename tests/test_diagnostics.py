"""Ratchet on the library's one diagnostics channel.

Every non-fatal report (a capped balance, a duality gap, K > M users, a
fully occluded scene, a failed configuration, combination, sweep point or
line search) is one record on a ``risopt.*`` logger.  So no module imports
``warnings``, and only ``cli.main``, which prints the two exit messages,
names ``sys.stderr``.  The modules are parsed with ``ast``, not imported.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "risopt"


def parsed_modules():
    paths = sorted(SRC.glob("*.py"))
    assert paths, f"no modules under {SRC}"
    return [(path.stem, ast.parse(path.read_text(), str(path))) for path in paths]


def test_no_module_imports_warnings():
    found = []
    for name, tree in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                continue
            if any(module.split(".")[0] == "warnings" for module in imported):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def names_stderr(node) -> bool:
    """``sys.stderr``, or ``stderr`` imported from ``sys``."""
    if isinstance(node, ast.Attribute):
        return (
            node.attr == "stderr"
            and isinstance(node.value, ast.Name)
            and node.value.id == "sys"
        )
    if isinstance(node, ast.ImportFrom):
        return node.module == "sys" and any(a.name == "stderr" for a in node.names)
    return False


def test_only_cli_main_names_sys_stderr():
    found = []
    for name, tree in parsed_modules():
        for top in tree.body:
            owner = f"{name}.{getattr(top, 'name', '<module>')}"
            if owner == "cli.main" and isinstance(top, ast.FunctionDef):
                continue
            found += [f"{owner}:{n.lineno}" for n in ast.walk(top) if names_stderr(n)]
    assert found == []
