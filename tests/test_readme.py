"""The package root is exactly the README's library surface, its example runs, and
every other library name it lists imports from the module it names."""

import importlib
import re
from pathlib import Path

import factorcast
from factorcast.backtest import BacktestResult

from _support import FIXTURES

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section() -> str:
    """README's "Library" section, up to the next heading."""
    return README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def library_block() -> str:
    """The Python code block of README's "Library" section."""
    return re.search(r"```python\n(.*?)```", library_section(), re.DOTALL).group(1)


def test_root_exports_exactly_the_readme_names():
    used = set(re.findall(r"\bfc\.(\w+)", library_block()))
    assert sorted(factorcast.__all__) == sorted({"__version__", *used})


def test_readme_library_example_runs_on_the_worked_example(capsys):
    code = library_block()
    assert code.count('"series.csv"') == 1
    namespace = {}
    exec(code.replace('"series.csv"', repr(str(FIXTURES / "worked_example.csv"))), namespace)
    # The selected line is 9: criticals 2001 and 2003 give the envelope [5, 6],
    # which also takes in 2006 (5.5).
    assert capsys.readouterr().out == "2 1 0.6666666666666666\n"
    assert isinstance(namespace["backtest"], BacktestResult)


def test_readme_library_bullets_name_importable_names():
    bullets = re.findall(r"^- (.*(?:\n  .*)*)", library_section(), re.MULTILINE)
    assert len(bullets) == 5
    for bullet in bullets:
        quoted = re.findall(r"`([^`]+)`", bullet)
        modules = [importlib.import_module(q) for q in quoted if q.startswith("factorcast.")]
        names = [q for q in quoted if not q.startswith("factorcast.")]
        assert modules and names, bullet
        for name in names:
            assert any(hasattr(module, name) for module in modules), (name, bullet)
