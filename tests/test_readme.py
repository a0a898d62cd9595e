"""README's Quick tour runs and gives the results its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_gives_the_stated_results():
    tour = README.read_text(encoding="utf-8").split("## Quick tour", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", tour, re.S)
    namespace = {}
    got, stated = [], []
    # the blocks share one session; each ends on an expression whose
    # comment states its value
    for block in blocks:
        *body, last = block.rstrip("\n").splitlines()
        expr, _, comment = last.partition("#")
        exec("\n".join(body), namespace)
        got.append(eval(expr, namespace))
        stated.append(ast.literal_eval(comment.strip()))
    assert stated == [(43, 1), (True, 1)]
    assert got == stated
