"""List the lines of the ``lle`` package that the output-comparison plan never runs.

    PYTHONPATH=src python3 tools/linecov.py

Makes every ``compare_outputs.emit`` call for seeds 3 and 4, the seeds CI's
determinism steps compare, into a temporary directory, under a
``sys.settrace`` line collector limited to the package's files. It prints one line per function, ``file: name: ran k of n`` (module and
class bodies are ``<module>`` and the class; a comprehension or lambda counts
with its function), under it each executable line outside a docstring that
never ran, and last the total. ``lle`` is imported inside the collector, so its
import-time lines count.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
import tempfile
import types

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def executable_lines(source: str, path: str) -> dict:
    """line -> its function's qualified name, for each line of code outside a docstring."""
    tree = ast.parse(source)
    docs = {line for node in ast.walk(tree) if isinstance(node, DOCUMENTED)
            and ast.get_docstring(node, clean=False) is not None
            for line in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
    owners = {}

    def walk(code, owner):
        if not code.co_name.startswith("<") or code.co_name == "<module>":
            owner = getattr(code, "co_qualname", code.co_name)  # Python 3.10 has no qualname
        for _, _, line in code.co_lines():
            if line and line not in docs:
                owners.setdefault(line, owner)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, owner)

    walk(compile(tree, path, "exec"), None)
    return owners


def report(target) -> str:
    """Run target() under the line collector; the per-function report of the lines never run."""
    package = importlib.util.find_spec("lle").submodule_search_locations[0]
    ran = set()

    def trace(frame, event, arg):
        if not frame.f_code.co_filename.startswith(package):
            return None
        if event == "line":  # a call event reports the def line, which <module> owns
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        target()
    finally:
        sys.settrace(previous)
    out, missed, total = [], 0, 0
    for name in sorted(n for n in os.listdir(package) if n.endswith(".py")):
        path = os.path.join(package, name)
        with open(path) as f:
            source = f.read()
        text, functions = source.splitlines(), {}
        for line, owner in sorted(executable_lines(source, path).items()):
            functions.setdefault(owner, []).append(line)
        for owner, lines in functions.items():
            never = [line for line in lines if (path, line) not in ran]
            out.append(f"{name}: {owner}: ran {len(lines) - len(never)} of {len(lines)}")
            out += [f"    {line}: {text[line - 1].strip()}" for line in never]
            missed, total = missed + len(never), total + len(lines)
    return "\n".join(out + [f"{missed} of {total} executable lines never ran"])


def main() -> int:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import compare_outputs  # noqa: E402  (it imports no lle module until emit runs)

    with tempfile.TemporaryDirectory(prefix="linecov-") as work:
        print(report(lambda: compare_outputs.emit(work, [3, 4])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
