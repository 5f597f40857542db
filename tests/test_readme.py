"""README's code examples run against the package in ``src``."""

from __future__ import annotations

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs_and_its_polynomial_comment_holds():
    """A name README still shows but the package dropped fails here."""
    tour = README.read_text("utf-8").split("## Library quick tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    (line,) = [line for line in block.splitlines() if '# "[1,6,15,14]"' in line]
    assert eval(line.split("#", 1)[0], namespace) == "[1,6,15,14]"
