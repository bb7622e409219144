"""Print the statements of each library module that no run of
outputs.py's run set executes.

    python tests/golden/traffic.py

The runs are those of outputs.py (its record_all(), into a temporary
directory). They are traced with sys.settrace from before the
library is imported, so module-level statements count too. A statement
is a line that starts a statement of the module's syntax tree and
carries bytecode, so a docstring is none. Each block of unexecuted
statements, with no executed statement between them, prints as
`module.py:first-last` and the text of its first line.

The run set is ordinary input, so error paths show up too. The list
answers whether a path carries traffic or is only reachable in
principle. The tracer follows library frames only: the run set takes
about 6 s on 2 cores under it, against 5 s for outputs.py.
"""

import ast
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PKG = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src",
                   "vortexpair")


def statements(path):
    """The statement lines of the module at path, sorted, and its lines."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    starts, todo = set(), [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        starts.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    stmts = {node.lineno for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.stmt)}
    return sorted(stmts & starts), source.splitlines()


def executed_lines():
    """{path: executed lines} of the library modules over the run set."""
    executed = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PKG + os.sep):
            return None
        executed.setdefault(path, set())
        return local(frame, event, arg)

    sys.path.insert(0, HERE)
    sys.settrace(tracer)
    try:
        import outputs
        with tempfile.TemporaryDirectory() as tmp:
            for _ in outputs.record_all(tmp):
                pass
    finally:
        sys.settrace(None)
    return executed


def main():
    executed = executed_lines()
    for fname in sorted(os.listdir(PKG)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(PKG, fname)
        seen = executed.get(path, set())
        stmts, text = statements(path)
        blocks, block = [], None
        for line in stmts:
            if line in seen:
                block = None
            elif block is not None:
                block[1] = line
            else:
                block = [line, line]
                blocks.append(block)
        for first, last in blocks:
            span = str(first) if first == last else "%d-%d" % (first, last)
            print("%s:%s  %s" % (fname, span, text[first - 1].strip()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
