#!/usr/bin/env python3
"""Doc-snippet checker for the docs CI job (stdlib only, runs nothing).

For every fenced ```` ```python ```` block in the given markdown files:

* the block must compile (a syntax error fails the check);
* every name imported ``from repro…`` must resolve — an attribute of the
  imported module or a submodule of it — and every ``import repro…``
  module must exist.

The blocks themselves are never executed: they may run long simulations.
Imports are resolved against the ``repro`` package on ``sys.path``, so run
it with ``src`` on the path.  Exit status 1 if any block fails.

Usage::

    PYTHONPATH=src python tools/check_doc_snippets.py README.md docs/*.md
"""

from __future__ import annotations

import argparse
import ast
import importlib
import re
import sys
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

#: A fenced python block: the opening fence line, the body, the closing fence.
_PYTHON_BLOCK = re.compile(r"^```python[ \t]*\n(.*?)^```[ \t]*$",
                           re.MULTILINE | re.DOTALL)


def python_blocks(markdown: str) -> Iterator[Tuple[int, str]]:
    """``(first body line number, body)`` of every ```python block."""
    for match in _PYTHON_BLOCK.finditer(markdown):
        yield markdown.count("\n", 0, match.start(1)) + 1, match.group(1)


def _is_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def _resolves(module: str, name: str) -> bool:
    """True when ``from module import name`` would succeed."""
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return False
    if hasattr(imported, name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def check_block(source: str, path: Path, first_line: int) -> List[str]:
    """Problems found in one block, each as ``path:line: message``."""
    def at(lineno: int) -> str:
        return f"{path}:{first_line + lineno - 1}"

    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [f"{at(exc.lineno or 1)}: does not compile: {exc.msg}"]
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and _is_repro(node.module):
            for alias in node.names:
                if alias.name != "*" and not _resolves(node.module, alias.name):
                    problems.append(f"{at(node.lineno)}: cannot import "
                                    f"{alias.name!r} from {node.module!r}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_repro(alias.name):
                    try:
                        importlib.import_module(alias.name)
                    except ImportError:
                        problems.append(f"{at(node.lineno)}: no module "
                                        f"{alias.name!r}")
    return problems


def check_file(path: Path) -> Tuple[int, List[str]]:
    """``(blocks checked, problems)`` of one markdown file."""
    blocks = list(python_blocks(path.read_text(encoding="utf-8")))
    problems = []
    for line, source in blocks:
        problems += check_block(source, path, line)
    return len(blocks), problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path, help="markdown files")
    args = parser.parse_args(argv)
    total, problems = 0, []
    for path in args.files:
        blocks, found = check_file(path)
        total += blocks
        problems += found
    for problem in problems:
        print(problem)
    print(f"{total} python block(s) in {len(args.files)} file(s): "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
