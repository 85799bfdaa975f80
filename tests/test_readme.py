import ast
import json
import re
import shlex
from pathlib import Path

from toricbases.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_example_runs():
    # the README's one Python block runs as written, and each of its three
    # closing expressions gives the result its comment states
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    tree = ast.parse(block)
    namespace: dict = {}
    results = []
    for node in tree.body:
        if isinstance(node, ast.Expr):
            results.append(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    graver, reduced, normal_form = results
    assert len(graver) == 10
    assert {(b.head, b.tail) for b in reduced} == {
        ((0, 1, 0, 1), (0, 0, 2, 0)),
        ((1, 0, 0, 1), (0, 1, 1, 0)),
        ((1, 0, 1, 0), (0, 2, 0, 0)),
    }
    assert len(reduced) == 3
    assert normal_form == (0, 2, 0, 0)


def test_readme_command_line_block_runs(capsys, monkeypatch, tmp_path):
    # every toricbases line of the README's command-line block exits 0, run
    # in a directory holding the files the block writes with printf, and the
    # program.json it reads but does not define
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL) if "printf" in b]
    monkeypatch.chdir(tmp_path)
    program = {"A": [[1, 1, 1]], "b": [2], "c": [1, 2, 3], "upper": [2, 2, 2], "hint": [1, 1, 0]}
    (tmp_path / "program.json").write_text(json.dumps(program))
    commands = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("printf "):
            text, path = re.fullmatch(r"printf '(.*)' > (\S+)", line).groups()
            (tmp_path / path).write_text(text.replace("\\n", "\n"))
        elif line:
            commands.append(shlex.split(line))
    assert len(commands) == 17 and all(argv[0] == "toricbases" for argv in commands)
    for argv in commands:
        code = main(argv[1:])
        capsys.readouterr()
        assert code == 0, argv
