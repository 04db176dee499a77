"""The README's library quick tour runs, and names exactly what ``import qtimeloop`` exports."""

import re
from pathlib import Path

import qtimeloop

README = Path(__file__).resolve().parent.parent / "README.md"
# the errors the README names next to the tour, which the tour itself never raises
README_ERRORS = {"SingularDenominatorError", "NotConvergedError"}


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_tour_runs():
    exec(compile(quick_tour(), str(README), "exec"), {})


def test_package_exports_exactly_the_quick_tour_names():
    used = set(re.findall(r"\bq\.(\w+)", quick_tour()))
    assert set(qtimeloop.__all__) == used | README_ERRORS
    assert len(qtimeloop.__all__) == len(set(qtimeloop.__all__))
    for name in qtimeloop.__all__:
        assert getattr(qtimeloop, name).__module__.startswith("qtimeloop.")
    text = README.read_text(encoding="utf-8")
    assert all(f"`{name}`" in text for name in README_ERRORS)
