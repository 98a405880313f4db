"""README's "Library use" block runs as written, and names exactly what the
package exports; its Quick start commands parse, and every flag it names
is an option of some subcommand."""

import argparse
import ast
import re
import shlex
from pathlib import Path

import codevec
from codevec.cli import build_parser

from conftest import toy_minij_corpus

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_block_runs(tmp_path, monkeypatch, capsys):
    code = library_use_block()
    (tmp_path / "corpus.mj").write_text("\n".join(toy_minij_corpus()),
                                        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("P=")
    imported = [alias.name for node in ast.walk(ast.parse(code))
                if isinstance(node, ast.ImportFrom) and node.module == "codevec"
                for alias in node.names]
    assert sorted(codevec.__all__) == sorted(imported)


def section(title: str) -> str:
    """README's text from the `## title` heading to the next heading."""
    text = README.read_text(encoding="utf-8").split(f"## {title}", 1)[1]
    return text.split("\n## ", 1)[0]


def quick_start_commands() -> list[list[str]]:
    """The arguments of each `codevec` command in the Quick start blocks,
    continuation lines joined and comments dropped."""
    blocks = re.findall(r"```sh\n(.*?)```", section("Quick start (CLI)"), re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("codevec ")]


def test_quick_start_commands_parse():
    commands = quick_start_commands()
    assert {argv[0] for argv in commands} == {
        "extract", "train", "predict", "eval", "nearest", "combine", "analogy"}
    for argv in commands:
        build_parser().parse_args(argv)  # a usage error exits


def test_every_named_flag_is_an_option():
    parser = build_parser()
    subcommands = next(action for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction)).choices
    options = {flag for sub in subcommands.values() for flag in sub._option_string_actions}
    text = README.read_text(encoding="utf-8").replace(section("Install"), "")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    assert named and named - options == set()
