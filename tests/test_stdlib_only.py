"""The runtime package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import covgraph


def test_every_absolute_import_is_stdlib():
    sources = sorted(Path(covgraph.__file__).parent.glob("*.py"))
    assert [path.stem for path in sources] == [
        "__init__", "cli", "closure", "gaussian", "graphs", "separation", "smallgraphs", "verify"]
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
