"""README's API paragraph names the package's signatures as they are.

The paragraph that opens with ``**API.**`` lists calls as ``name(args)``.
Each name must be a ``divbatch`` export whose ``inspect.signature`` has
those parameters in that order, with a default exactly where the README
writes ``name=value``, and that value.
"""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import divbatch

README = Path(__file__).resolve().parents[1] / "README.md"
# a call in backticks; a dotted one such as ``fn.evaluate_many(xs)`` is a
# contract on objects the caller passes, not a package signature
CALL = re.compile(r"`([A-Za-z_]\w*)\(([^`]*)\)`")


def api_paragraph(text: str) -> str:
    start = text.index("**API.**")
    end = text.find("\n\n", start)
    return text[start:] if end < 0 else text[start:end]


def listed_calls(paragraph: str) -> list[tuple[str, str]]:
    return CALL.findall(paragraph)


def signature_problems(paragraph: str) -> list[str]:
    """One line per listed call that does not match the package."""
    problems = []
    for name, args in listed_calls(paragraph):
        if name not in divbatch.__all__:
            problems.append(f"{name}: not exported by divbatch")
            continue
        call = ast.parse(f"f({args})", mode="eval").body
        listed = [(arg.id, inspect.Parameter.empty) for arg in call.args]
        listed += [(kw.arg, ast.literal_eval(kw.value)) for kw in call.keywords]
        parameters = inspect.signature(getattr(divbatch, name)).parameters.values()
        actual = [(p.name, p.default) for p in parameters]
        if listed != actual:
            shown = ", ".join(
                n if d is inspect.Parameter.empty else f"{n}={d!r}" for n, d in actual
            )
            problems.append(f"{name}({args}): the package has {name}({shown})")
    return problems


def test_every_listed_signature_is_the_package_signature():
    paragraph = api_paragraph(README.read_text())
    names = {name for name, _ in listed_calls(paragraph)}
    assert {"init_cma", "ask_clear", "ask", "ask_one", "tell", "run_ds"} <= names
    assert signature_problems(paragraph) == []


def test_a_wrong_signature_is_reported():
    paragraph = (
        "**API.** `ask(state, box, n)`, `ask_one(state)`, `run_random(fn, budget, seed=1)`,\n"
        "`run_cma_single(fn, budget, seed)`, `no_such_call(x)` and `fn.evaluate_many(xs)`."
    )
    problems = signature_problems(paragraph)
    assert [p.split("(")[0].split(":")[0] for p in problems] == [
        "ask",
        "run_random",
        "run_cma_single",
        "no_such_call",
    ]
    assert "the package has ask(state, n)" in problems[0]
    assert "the package has run_random(fn, budget, seed=0)" in problems[1]
