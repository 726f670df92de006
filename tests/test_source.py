"""Checks on the source text: what ``src/`` may hold, and that the CI
workflow runs commands only, so that every check it makes is a test here."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# the comment that keeps an import that only bench/tracing.py reads
TRACER_PIN = "# unused here; bench/tracing.py rebinds this name"


def parsed(path):
    text = path.read_text(encoding="utf-8")
    return text, ast.parse(text, str(path))


def test_the_sources_are_found():
    assert ROOT / "src" / "braidsigma" / "cli.py" in SOURCES


def test_no_assert_statements_under_src():
    # python -O strips assert, so every invariant must be an explicit check
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(parsed(path)[1])
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def unused_imports(text, tree):
    """The top-level imported names that the module never reads, that are
    not in its ``__all__`` and whose line does not carry the tracer pin."""
    lines = text.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    used |= {
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }
    return [
        f"{alias.lineno} {name}"
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (name := (alias.asname or alias.name).split(".")[0]) not in used
        and TRACER_PIN not in lines[alias.lineno - 1]
    ]


def test_no_unused_imports_under_src():
    # a top-level imported name must be read in its module, be in __all__,
    # or carry the comment that pins it for the tracer
    found = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in SOURCES
        for line in unused_imports(*parsed(path))
    ]
    assert found == []


def test_unused_imports_are_found():
    text = "import os, sys\nfrom a import b, c as d\nfrom e import f  " + TRACER_PIN + "\n"
    text += "__all__ = ['b']\nprint(sys)\n"
    assert unused_imports(text, ast.parse(text)) == ["1 os", "2 d"]


# a Python program given in the workflow itself: ``python -`` reading a
# heredoc or a pipe, ``python -c`` with any flags before it, or a heredoc
INLINE_PYTHON = re.compile(r"\bpython[\d.]*(?:\s+-\S+)*?\s+-(?:[A-Za-z]*c)?(?=\s|$)|<<")


def inline_python(text):
    """The lines of a workflow, comments aside, that hold inline code."""
    return [
        f"{k}: {line.strip()}"
        for k, line in enumerate(text.splitlines(), 1)
        if not line.lstrip().startswith("#") and INLINE_PYTHON.search(line)
    ]


def test_the_workflow_runs_no_inline_python():
    # a check written into a CI step runs nowhere else; it belongs in a test
    assert inline_python(WORKFLOW.read_text(encoding="utf-8")) == []


def test_inline_python_is_found():
    for line in [
        "python - <<'EOF'",
        'python - "$2" > lemma.json',
        "python -c 'import json'",
        "python -O -c 'import sys'",
        "python3 -Oc pass",
        "cat > readback.py <<EOF",
    ]:
        assert inline_python(f"      run: |\n        {line}\n") == [f"2: {line}"], line
    for line in [
        "# python -c in a comment",
        "python -m pytest -q --continue-on-collection-errors",
        "PYTHONOPTIMIZE=1 python -m pytest -q",
        "python -m braidsigma.cli classify --in - < chi.json",
        "python bench/run.py --workload scaling --seed 1 --seconds 1 --trace 1",
        "python -X warn_default_encoding -m braidsigma.cli verify",
    ]:
        assert inline_python(line) == [], line
