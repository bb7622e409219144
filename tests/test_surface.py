"""The library is what the CLI, the solver and the benchmark run.

Every public top-level function and class of src/vortexpair, and every
public method of its classes, must be referenced somewhere else in the
package or in perfbench/ (by name, by attribute or by import), or be
exported through vortexpair.__all__. Code that only tests call belongs
in tests/oracles.py.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vortexpair"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree, skip=None):
    """Names a tree refers to, leaving out the subtree skip."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        stack.extend(ast.iter_child_nodes(node))
    return found


def _exported():
    for node in _parse(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _public_definitions(tree):
    """(qualified name, node) of the public top-level functions and
    classes of a module and the public methods of its classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for meth in node.body:
                if (isinstance(meth, ast.FunctionDef)
                        and not meth.name.startswith("_")):
                    yield "%s.%s" % (node.name, meth.name), meth


def test_every_public_definition_has_a_library_caller():
    modules = {p: _parse(p) for p in sorted(PACKAGE.glob("*.py"))}
    refs = {p: _references(tree) for p, tree in modules.items()}
    bench = set().union(*(_references(_parse(p)) for p in
                          sorted((ROOT / "perfbench").glob("*.py"))))
    exported = _exported()
    unused = []
    for path, tree in modules.items():
        elsewhere = bench.union(*(r for p, r in refs.items() if p != path))
        for qualname, node in _public_definitions(tree):
            if (node.name in exported or node.name in elsewhere
                    or node.name in _references(tree, skip=node)):
                continue
            unused.append("%s.%s" % (path.stem, qualname))
    assert not unused, ("only tests call these library definitions; move "
                        "them to tests/oracles.py: %s" % ", ".join(unused))


def test_no_module_reads_a_backend_kind():
    # a backend is its grid size: its base's constants and choices are
    # class attributes and methods, so no module, geometry.py included,
    # branches on a base's name
    found = ["%s:%d" % (path.name, node.lineno)
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Attribute) and node.attr == "kind"]
    assert not found, "reads of .kind: %s" % found


def _package_imports(tree):
    """The package modules a module imports, by their last name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.rsplit(".", 1)[-1] for a in node.names
                         if a.name.split(".")[0] == "vortexpair")
        elif isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "vortexpair"):
            if node.module in (None, "vortexpair"):
                found.update(a.name for a in node.names)
            else:
                found.add(node.module.rsplit(".", 1)[-1])
    return found


def test_fiber_algebra_is_one_import_chain():
    # fiber imports the runtime algebra from _kernels, and every other
    # package module takes it from fiber; the reference kernels of
    # _fiber_np are for the tests and perfbench, so no package module
    # imports them, and neither they nor _kernels import anything from
    # the package
    imports = {path.stem: _package_imports(_parse(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    found = sorted(m for m, names in imports.items() if "_fiber_np" in names)
    assert not found, "modules importing _fiber_np: %s" % found
    found = sorted(m for m, names in imports.items() if "_kernels" in names)
    assert found == ["fiber"], "modules importing _kernels: %s" % found
    assert imports["_fiber_np"] == set() and imports["_kernels"] == set()


def test_benchmark_tracer_patch_sites_exist(monkeypatch):
    # the traced benchmark patches names at their import sites (such as
    # apply_one in higgs); a library edit that drops one breaks --trace 1
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer
    tr = Tracer()
    try:
        tr.install()
    finally:
        tr.uninstall()


def _traced_quick_solve(monkeypatch, name):
    """Report and tracer summary of a quick-grid solve of an instance
    without full diagnostics."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer
    from vortexpair import continuation, instances
    p = instances.make(name, n=instances.quick_grid(name))
    cfg = continuation.ContinuationConfig(eps_min=1e-2,
                                          full_diagnostics=False)
    tr = Tracer()
    tr.install()
    try:
        rep = continuation.run_continuation(p, cfg).report
    finally:
        tr.uninstall()
    return rep, tr.summary()


def test_benchmark_tracer_counts_match_the_run(monkeypatch):
    # the tracer wraps continuation.gmres with a counting operator built
    # from amat.matvec, amat.shape and amat.dtype; with right
    # preconditioning each Krylov step is one matvec and one
    # preconditioner application, and a quick solve needs no partial
    # linear solve
    rep, got = _traced_quick_solve(monkeypatch, "rank2-extension")
    matvecs = got["continuation.gmres.matvecs"]
    assert matvecs > 0
    assert matvecs == got["continuation.linearization.calls"]
    assert got["continuation.precond.calls"] == matvecs
    assert got["continuation.gmres.partial"] == 0
    assert got["continuation.newton.iters"] == rep.newton_total
    # the tracer counts a line-search acceptance where Newton evaluates
    # the accepted state again at the top of its next iteration; a
    # Newton without that repeat reads zero acceptances here
    accepted = (got["continuation.linesearch.accept_ratio"]
                * got["continuation.linesearch.trials"])
    assert round(accepted) == got["continuation.newton.iters"] > 0
    # the tracer patches TorusBackend._deriv on the class; a backend
    # whose d and dbar bypass it would read zero here
    assert got["geometry.fft_deriv.calls"] > 0


def test_benchmark_tracer_counts_stencil_derivatives(monkeypatch):
    # the same for HopfBackend._d1
    _, got = _traced_quick_solve(monkeypatch, "hopf-stable")
    assert got["geometry.stencil_deriv.calls"] > 0
