#!/usr/bin/env python3
"""Doc-snippet checker for the docs CI job (stdlib only, runs nothing).

For every fenced ```` ```python ```` block in the given markdown files:

* the block must compile (a syntax error fails the check);
* every name imported ``from repro…`` must resolve — an attribute of the
  imported module or a submodule of it — and every ``import repro…``
  module must exist.

Dotted references must resolve too: every dotted ``repro.x.Name`` in single
backticks in the markdown files, and every Sphinx role target naming ``repro.…``
(``:class:``, ``:func:``, ``:meth:``, ``:mod:``, ``:attr:``, ``:data:``,
``:exc:``) in the ``repro`` package's own sources.

Presets named in the markdown files must exist: every
``build_named_scenario("NAME"`` and every ``python -m repro run NAME`` names
a key of :data:`repro.experiments.scenarios.SCENARIOS`.

The blocks themselves are never executed: they may run long simulations.
Imports are resolved against the ``repro`` package on ``sys.path``, so run
it with ``src`` on the path.  Exit status 1 if anything fails.

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


#: A dotted name in single backticks in markdown, e.g. ``repro.experiments.Scenario``.
_MARKDOWN_REFERENCE = re.compile(r"`(repro(?:\.\w+)+)`")
#: A Sphinx role target in a docstring: ``:class:`~repro.topology.Topology```.
_ROLE_REFERENCE = re.compile(
    r":(?:class|func|meth|mod|attr|data|exc):`~?(repro(?:\.\w+)+)(?:\(\))?`")
#: A preset named in markdown: ``build_named_scenario("NAME"`` or
#: ``python -m repro run NAME`` (an option after ``run`` is not a name).
_PRESET_REFERENCE = re.compile(
    r"""build_named_scenario\(\s*["']([^"']+)["']"""
    r"""|python3? -m repro run[ \t]+([^\s`'"\\-][^\s`'"\\]*)""")


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


def _resolves_dotted(target: str) -> bool:
    """True when ``target`` names a module, or an attribute (or dataclass
    field) reached from the longest importable module prefix."""
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            if name in getattr(found, "__dataclass_fields__", {}):
                found = None  # a field without a class-level default
            elif hasattr(found, name):
                found = getattr(found, name)
            else:
                return False
        return True
    return False


def check_references(text: str, path: Path, pattern: re.Pattern) -> List[str]:
    """Unresolved dotted references ``pattern`` finds in ``text``."""
    problems = []
    for match in pattern.finditer(text):
        if not _resolves_dotted(match.group(1)):
            line = text.count("\n", 0, match.start()) + 1
            problems.append(f"{path}:{line}: unresolved reference "
                            f"{match.group(1)!r}")
    return problems


def check_presets(text: str, path: Path) -> List[str]:
    """Preset names in ``text`` that are not keys of ``SCENARIOS``."""
    from repro.experiments.scenarios import SCENARIOS

    problems = []
    for match in _PRESET_REFERENCE.finditer(text):
        name = match.group(1) or match.group(2)
        if name not in SCENARIOS:
            line = text.count("\n", 0, match.start()) + 1
            problems.append(f"{path}:{line}: unknown preset {name!r}")
    return problems


def check_sources(root: Path) -> List[str]:
    """Unresolved role targets in the docstrings of every module under ``root``."""
    problems = []
    for source in sorted(root.rglob("*.py")):
        problems += check_references(source.read_text(encoding="utf-8"), source,
                                     _ROLE_REFERENCE)
    return problems


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
    markdown = path.read_text(encoding="utf-8")
    blocks = list(python_blocks(markdown))
    problems = []
    for line, source in blocks:
        problems += check_block(source, path, line)
    problems += check_references(markdown, path, _MARKDOWN_REFERENCE)
    return len(blocks), problems + check_presets(markdown, path)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path, help="markdown files")
    args = parser.parse_args(argv)
    total, problems = 0, []
    for path in args.files:
        blocks, found = check_file(path)
        total += blocks
        problems += found
    import repro

    problems += check_sources(Path(repro.__file__).parent)
    for problem in problems:
        print(problem)
    print(f"{total} python block(s) in {len(args.files)} file(s) and the "
          f"repro sources' role targets: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
