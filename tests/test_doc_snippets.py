"""The python blocks of README.md and docs/ compile and import what exists."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_doc_snippets", ROOT / "tools" / "check_doc_snippets.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_readme_and_docs_snippets_are_current():
    checker = load_checker()
    for path in [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]:
        _, problems = checker.check_file(path)
        assert problems == []


def test_source_role_targets_resolve():
    assert load_checker().check_sources(ROOT / "src" / "repro") == []


def test_stale_dotted_references_are_reported(tmp_path):
    checker = load_checker()
    page = tmp_path / "page.md"
    page.write_text("`repro.topology.Topology` and `repro.core.registry`\n"
                    "then `repro.topology.base.NoSuchName`\n")
    assert checker.check_file(page) == (0, [
        f"{page}:2: unresolved reference 'repro.topology.base.NoSuchName'"])
    module = tmp_path / "module.py"
    module.write_text('"""See :class:`~repro.topology.Topology`,\n'
                      ':attr:`repro.experiments.workload.FlowSpec.source` and\n'
                      ':func:`repro.no_such_module.run`."""\n')
    assert checker.check_sources(tmp_path) == [
        f"{module}:3: unresolved reference 'repro.no_such_module.run'"]


def test_stale_imports_and_syntax_errors_are_reported(tmp_path):
    checker = load_checker()
    page = tmp_path / "page.md"
    page.write_text(
        "text\n"
        "```python\n"
        "from repro import Scenario, NoSuchName\n"
        "import repro.no_such_module\n"
        "```\n"
        "```bash\n"
        "from repro import NotPython\n"
        "```\n"
        "```python\n"
        "def broken(:\n"
        "```\n")
    blocks, problems = checker.check_file(page)
    assert blocks == 2
    assert problems[:2] == [
        f"{page}:3: cannot import 'NoSuchName' from 'repro'",
        f"{page}:4: no module 'repro.no_such_module'",
    ]
    # The syntax error's wording varies across Python versions.
    assert len(problems) == 3
    assert problems[2].startswith(f"{page}:10: does not compile: ")


def test_unknown_preset_names_are_reported(tmp_path):
    checker = load_checker()
    page = tmp_path / "page.md"
    page.write_text(
        "```python\n"
        'build_named_scenario("grid-newreno-2mbps", seed=3)\n'
        'build_named_scenario("grid-newreno-11mbps")\n'
        "```\n"
        "    python -m repro run chain7-vegas-2mbps --packets 30\n"
        "    python -m repro run --packets 30\n"
        "    python -m repro run chain7-paced-udp-2mbps\n")
    assert checker.check_file(page) == (1, [
        f"{page}:3: unknown preset 'grid-newreno-11mbps'",
        f"{page}:7: unknown preset 'chain7-paced-udp-2mbps'"])
