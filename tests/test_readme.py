"""README's "Library use" block runs as written, and names exactly what the
package exports."""

import ast
import re
from pathlib import Path

import codevec

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
