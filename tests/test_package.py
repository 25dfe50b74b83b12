import ast
import re
from pathlib import Path

import entropybench

README = Path(__file__).resolve().parent.parent / "README.md"

# The package's public names: those the README's Library section imports
# from `entropybench`.  Every other name is reached through its module.
PUBLIC = [
    "random_density",
    "exact_entropies",
    "encode_density",
    "approx_pos_power",
    "apply_poly",
    "estimate",
    "plan",
    "run",
]


def _library_block() -> str:
    """The first python code block of the README's Library section."""
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_public_names_are_pinned_and_resolve():
    assert entropybench.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(entropybench, name) is not None, name


def test_the_readme_library_block_runs_and_imports_exactly_the_exports(capsys):
    code = _library_block()
    imported = [
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "entropybench" and node.level == 0
        for alias in node.names
    ]
    assert sorted(imported) == sorted(entropybench.__all__)
    exec(compile(code, str(README), "exec"), {"__name__": "readme_library"})
    assert len(capsys.readouterr().out.splitlines()) == 3
