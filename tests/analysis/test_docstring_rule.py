"""REP006: the repository's docstring-coverage gate."""

import ast
import textwrap

from tools.reprolint import DOCSTRING_COVERAGE_THRESHOLD, lint_paths
from tools.reprolint.rules import iter_public_objects


def write_module(tmp_path, name, source):
    package = tmp_path / "repro"
    package.mkdir(exist_ok=True)
    init = package / "__init__.py"
    if not init.exists():
        init.write_text('"""Fixture package."""\n', encoding="utf-8")
    (package / name).write_text(textwrap.dedent(source), encoding="utf-8")
    return package


def test_rep006_fires_below_threshold(tmp_path):
    package = write_module(tmp_path, "bare.py", '''
    """Fixture module whose functions are undocumented."""


    def alpha():
        return 1


    def beta():
        return 2


    def gamma():
        return 3
    ''')
    result = lint_paths([package])
    rep006 = [f for f in result.findings if f.rule == "REP006"]
    assert rep006, result.findings
    assert result.docstring_coverage["percent"] < DOCSTRING_COVERAGE_THRESHOLD
    assert any("alpha" in finding.message for finding in rep006)


def test_rep006_quiet_at_full_coverage(tmp_path):
    package = write_module(tmp_path, "documented.py", '''
    """Fixture module with a fully documented surface."""


    def alpha():
        """Return one."""
        return 1
    ''')
    result = lint_paths([package])
    assert [f for f in result.findings if f.rule == "REP006"] == []
    assert result.docstring_coverage["percent"] == 100.0


def test_rep006_cannot_be_suppressed_by_pragma(tmp_path):
    package = write_module(tmp_path, "bare.py", '''
    """Fixture: a pragma must not excuse the aggregate coverage gate."""

    # reprolint: allow[REP006] reason=trying to dodge the aggregate gate


    def alpha():
        return 1


    def beta():
        return 2


    def gamma():
        return 3
    ''')
    result = lint_paths([package])
    assert any(f.rule == "REP006" for f in result.findings)


def test_rep006_holds_on_src(repo_root):
    """The real tree meets the gate, and every module carries a docstring."""
    src = repo_root / "src" / "repro"
    result = lint_paths([src])
    assert result.docstring_coverage["total"] > 0
    assert [f for f in result.findings if f.rule == "REP006"] == []
    undocumented_modules = [
        str(path) for path in sorted(src.rglob("*.py"))
        if not next(iter_public_objects(
            ast.parse(path.read_text(encoding="utf-8")), str(path)))[1]]
    assert undocumented_modules == []


def test_scenario_modules_are_fully_documented(repo_root):
    scenarios = repo_root / "src" / "repro" / "simulation" / "scenarios"
    coverage = lint_paths([scenarios]).docstring_coverage
    assert coverage["total"] > 0
    assert coverage["documented"] == coverage["total"], coverage


def test_ci_runs_reprolint_as_the_only_docstring_gate(repo_root):
    workflow = (repo_root / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8")
    assert "python -m tools.reprolint src" in workflow
    assert "check_docstrings" not in workflow
