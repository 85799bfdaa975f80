import ast
import re
from pathlib import Path

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
