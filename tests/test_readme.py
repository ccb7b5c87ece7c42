"""The README runs as written: its library tour and its command lines.

The tour is executed and the claims in its comments are checked; each
``ifslab ...`` line of the command block (``\\`` continuations joined) runs
through ``cli.main`` and must exit 0.  The package's ``__all__`` holds every
name the tour uses."""

import contextlib
import io
import re
import shlex
import types
from pathlib import Path

import pytest

import ifslab
from ifslab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, fence: str) -> str:
    """The first block fenced by ``fence`` after the line ``heading``."""
    section = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"^{re.escape(fence)}\n(.*?)^```$", section, re.M | re.S).group(1)


def _command_lines() -> list[str]:
    lines = _block("## Command line", "```").replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("ifslab ")]


def test_library_tour_runs_and_its_comments_hold():
    tour = _block("## Library tour", "```python")
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(tour, "README.md", "exec"), namespace)
    verdict, shared, margin = printed.getvalue().splitlines()
    assert verdict == "accessible_M"
    assert shared == "True"
    assert float(margin) > 0
    geo = namespace["geo"]
    assert geo.all_exist and geo.all_connected and geo.all_disjoint
    probes = [line.split("#") for line in tour.splitlines() if line.startswith("L.membership(")]
    assert [comment.strip() for _, comment in probes] == ["survived", "escaped(1)"]
    for expression, comment in probes:
        # str() reads "<set>:depth<depth>:<state>"
        assert str(eval(expression, namespace)).endswith(":" + comment.strip())


def test_all_is_the_public_surface_and_holds_the_tour():
    exported = ifslab.__all__
    for name in exported:
        getattr(ifslab, name)
    tour = _block("## Library tour", "```python")
    assert set(re.findall(r"\bL\.(\w+)", tour)) <= set(exported)
    # one entry per name, and every public name the package binds, its
    # submodules aside, is listed
    bound = {name for name, value in vars(ifslab).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(exported)) == len(exported)
    assert set(exported) == bound


# each id is the line's whole argument list, so adding a line renames no test
@pytest.mark.parametrize("line", _command_lines(),
                         ids=lambda line: " ".join(shlex.split(line)[1:]))
def test_command_line_runs(tmp_path, monkeypatch, capsys, line):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0


def test_command_block_is_found():
    assert [line.split()[1] for line in _command_lines()] == [
        "render", "render", "attractor", "attractor", "certify", "certify", "landmarks",
    ]
