"""Two checks on the surface of ``src/finfree``.

Every public top-level name has a use beyond its own tests.  A name counts
as used when it is referenced, as a Name, an Attribute or an import alias, in
its own module outside its definition, in another finfree module (re-exports
in ``__init__`` do not count), in ``perfbench/`` or in the acceptance suite.
A public name that nothing else needs is dead surface.

mpmath's internal representation, the raw mpf and mpc tuples and
``mpmath.libmp``, is read in ``scalars`` alone, the one scalar layer.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# public names kept without such a use, with the reason
EXEMPT = {
    "phi_alpha": "the root-power map Phi_alpha",
}


def _refs(stmts) -> set:
    out = set()
    for node in (sub for stmt in stmts for sub in ast.walk(stmt)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def _defined(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _body(path: Path) -> list:
    return ast.parse(path.read_text(encoding="utf-8")).body


def test_every_public_name_is_used():
    modules = {p.stem: _body(p) for p in sorted((ROOT / "src" / "finfree").glob("*.py"))
               if p.stem != "__init__"}
    outside = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    external = _refs(stmt for p in outside for stmt in _body(p))
    refs = {stem: [_refs([stmt]) for stmt in body] for stem, body in modules.items()}
    defined, unused = set(), []
    for stem, body in modules.items():
        others = set().union(*(r for other, rs in refs.items() if other != stem for r in rs))
        for i, stmt in enumerate(body):
            own = set().union(*refs[stem][:i], *refs[stem][i + 1:])
            for name in _defined(stmt):
                defined.add(name)
                if not (name.startswith("_") or name in EXEMPT or name in own | others | external):
                    unused.append(f"{stem}.{name}")
    assert not unused, f"public names with no use outside their tests: {unused}"
    assert set(EXEMPT) <= defined, f"stale exemptions: {set(EXEMPT) - defined}"


# mpmath's internal representation: the raw tuples and the low-level library
MPMATH_INTERNALS = {"_mpf_", "_mpc_", "libmp"}


def test_mpmath_internals_stay_in_scalars():
    """Only ``scalars`` reads mpf and mpc values as tuples or calls
    ``mpmath.libmp``: every other module goes through the one scalar layer."""
    found = []
    for path in sorted((ROOT / "src" / "finfree").glob("*.py")):
        if path.name == "scalars.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = (node.module or "").split(".")
            elif isinstance(node, ast.alias):
                names = node.name.split(".")
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Constant):
                names = [node.value]  # getattr(x, "_mpf_")
            else:
                continue
            for name in MPMATH_INTERNALS.intersection(names):
                found.append(f"{path.stem}:{node.lineno}: {name}")
    assert not found, f"mpmath internals outside scalars: {found}"
