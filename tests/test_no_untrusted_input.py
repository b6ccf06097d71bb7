"""Nothing in ``repro`` opens a network socket or unpickles bytes.

The simulator and its sweeps run on one host: worker processes talk to
their parent over ``multiprocessing`` pipes, and results persist as
checksummed JSON. A module that imports ``socket`` (a listener or a
remote dispatcher) or calls ``pickle.load``/``pickle.loads`` (code
execution for whoever controls the bytes) would reopen the hole this
test closes. ``pickle.dumps`` stays allowed: the executor uses it to
size results it produced itself.
"""

from __future__ import annotations

import ast
import pathlib
from typing import List

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

NETWORK_MODULES = {"socket", "socketserver"}
UNPICKLERS = {"load", "loads"}


def offences(tree: ast.AST) -> List[str]:
    """Forbidden imports and unpickling calls in one parsed module."""
    found: List[str] = []
    pickle_names = set()  # local names bound to the pickle module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in NETWORK_MODULES:
                    found.append(f"line {node.lineno}: import {alias.name}")
                if alias.name == "pickle":
                    pickle_names.add(alias.asname or "pickle")
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root in NETWORK_MODULES:
                found.append(f"line {node.lineno}: from {node.module} import")
            if node.module == "pickle":
                for alias in node.names:
                    if alias.name in UNPICKLERS:
                        found.append(f"line {node.lineno}: from pickle "
                                     f"import {alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in UNPICKLERS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in pickle_names):
            found.append(f"line {node.lineno}: "
                         f"{node.func.value.id}.{node.func.attr}()")
    return found


def scan(root: pathlib.Path) -> List[str]:
    report = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        report += [f"{path.relative_to(root.parent)} {what}"
                   for what in offences(tree)]
    return report


def test_no_module_imports_socket_or_unpickles():
    assert SRC.is_dir()
    assert scan(SRC) == []


def test_detector_flags_each_forbidden_form():
    source = (
        "import socket\n"
        "from socketserver import TCPServer\n"
        "import pickle as pk\n"
        "from pickle import loads\n"
        "pk.loads(b'')\n"
        "pk.load(None)\n"
        "pk.dumps(1)\n")
    assert len(offences(ast.parse(source))) == 5


def test_detector_allows_result_sizing():
    assert offences(ast.parse("import pickle\npickle.dumps(1)\n")) == []
