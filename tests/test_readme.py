"""README's code and command-line examples run against the package in ``src``."""

from __future__ import annotations

import shlex
from pathlib import Path

from visipoly import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs_and_its_polynomial_comment_holds():
    """A name README still shows but the package dropped fails here."""
    tour = README.read_text("utf-8").split("## Library quick tour", 1)[1]
    block = tour.split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    (line,) = [line for line in block.splitlines() if '# "[1,6,15,14]"' in line]
    assert eval(line.split("#", 1)[0], namespace) == "[1,6,15,14]"


def command_line_examples() -> list:
    """The ``visipoly ...`` lines of the Command line section's examples block."""
    section = README.read_text("utf-8").split("## Command line", 1)[1]
    block = section.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("visipoly ")]


def test_command_line_examples_parse_and_their_polynomial_comments_hold(capsys):
    """A subcommand or flag README still shows but the CLI dropped fails here."""
    lines = command_line_examples()
    assert len(lines) >= 4
    parser = cli.build_parser()
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)[1:]
        parser.parse_args(argv)  # an unknown subcommand or flag exits 2
        if comment.strip().startswith("["):
            assert cli.main(argv) == 0, line
            assert f"polynomial: {comment.strip()}\n" in capsys.readouterr().out, line
