"""Every name puffercal exports has a caller, and README's Library example runs.

Each of the verifier's modules compiles below calibrate.py's memory peak.
"""

import ast
import tracemalloc
from pathlib import Path

import puffercal

ROOT = Path(__file__).resolve().parents[1]


def _library_example() -> str:
    """The ```python block of README's Library section."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def _names_used(tree: ast.AST) -> set[str]:
    """Every name the tree loads, bare or as a module attribute."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def _package_uses() -> set[str]:
    """Names the package's modules use, each outside its own definition; __init__ excluded."""
    used = set()
    for path in (ROOT / "src" / "puffercal").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _names_used(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.discard(node.name)
            used |= names
    return used


def _bench_imports() -> set[str]:
    """Names the benchmark harness imports from puffercal."""
    names = set()
    for path in (ROOT / "bench").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("puffercal"):
                names |= {alias.name for alias in node.names}
    return names


def test_every_exported_name_has_a_caller():
    for name in puffercal.__all__:
        getattr(puffercal, name)
    callers = _package_uses() | _bench_imports() | _names_used(ast.parse(_library_example()))
    assert sorted(set(puffercal.__all__) - callers) == []


def test_readme_library_example_runs(capsys):
    exec(compile(_library_example(), "README.md", "exec"), {})
    assert capsys.readouterr().out


def _compile_peak(path: Path) -> int:
    """Peak bytes of Python allocations while compiling the file's source."""
    source = path.read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verifier_modules_compile_below_the_calibrator():
    # Without bytecode files (PYTHONDONTWRITEBYTECODE=1) every CLI process
    # compiles the package, and the largest module's compile sets the
    # import's memory high-water mark. Each verifier module stays below
    # calibrate.py's peak on the same interpreter, so none of them sets it.
    package = ROOT / "src" / "puffercal"
    ceiling = _compile_peak(package / "calibrate.py")
    peaks = {
        name: _compile_peak(package / f"{name}.py")
        for name in ("certify", "quadrature", "breach", "verify")
    }
    assert max(peaks.values()) < ceiling, (ceiling, peaks)
