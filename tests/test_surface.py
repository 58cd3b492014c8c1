"""Checks on the surface of ``src/finfree``.

Every public top-level name, and every public method or property of a
class, has a use beyond its own tests.  A name counts as used when it is
referenced, as a Name, an Attribute or an import alias, in its own module
outside its definition, in another finfree module (re-exports in
``__init__`` do not count), in ``perfbench/`` or in the acceptance suite.
Underscored names, dunders among them, are exempt.  A public name that
nothing else needs is dead surface.

mpmath's internal representation, the raw mpf and mpc tuples, their
public accessor ``man_exp`` and ``mpmath.libmp``, is read in ``scalars``
alone, the one scalar layer, which alone names ``nstr``, behind its one
decimal printer; and no module names ``fsum`` or ``fdot``: ``scalars.dot``
is the one sum kernel.
``partitions`` names no scalar kind and no ``dot``: the kind decision of its
literal sums lives in ``scalars``.  ``series`` names no ``dot``: every
series coefficient goes through the one series kernel,
``scalars.recurrence``.  Outside ``scalars`` and ``polycalc`` no module
names ``kind_of`` or a kind constant: a caller reads a value list's kind
through ``scalars.one_kind`` and opens its precision scope by digits alone.
``experiments`` opens that scope once, in ``run_experiment``.
Outside ``partitions``, ``block_sum`` is referenced only by the labelled
literal routes, and it and ``s_bruteforce`` sum by block-size profile, not
over the partitions themselves.  No module imports a private
(underscored) name from another.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# public names kept without such a use, with the reason; a method or a
# property is named as Class.name
EXEMPT: dict = {}


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

    def check(key, qualified, used):
        defined.add(key)
        if not (key.rsplit(".", 1)[-1].startswith("_") or key in EXEMPT or used):
            unused.append(qualified)

    for stem, body in modules.items():
        others = set().union(*(r for other, rs in refs.items() if other != stem for r in rs))
        for i, stmt in enumerate(body):
            seen = set().union(*refs[stem][:i], *refs[stem][i + 1:], others, external)
            for name in _defined(stmt):
                check(name, f"{stem}.{name}", name in seen)
            if isinstance(stmt, ast.ClassDef):
                # a method or property: used outside its own definition
                members = [_refs([m]) for m in stmt.body]
                for j, m in enumerate(stmt.body):
                    if isinstance(m, ast.FunctionDef):
                        key = f"{stmt.name}.{m.name}"
                        check(key, f"{stem}.{key}",
                              m.name in seen.union(*members[:j], *members[j + 1:]))
    assert not unused, f"public names with no use outside their tests: {unused}"
    assert set(EXEMPT) <= defined, f"stale exemptions: {set(EXEMPT) - defined}"


# mpmath's internal representation: the raw tuples, the accessor that reads
# an mpf as mantissa and exponent, and the low-level library; and its decimal
# printer, which ``scalars.format_scalar`` stands in front of
MPMATH_INTERNALS = {"_mpf_", "_mpc_", "man_exp", "libmp", "nstr"}


def _names(path: Path):
    """(line, name) for every name a module uses: as a Name, an Attribute, an
    import or a string constant, such as getattr(x, "_mpf_")."""
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
            names = [node.value]
        else:
            continue
        for name in names:
            yield getattr(node, "lineno", 0), name


def test_mpmath_internals_stay_in_scalars():
    """Only ``scalars`` reads mpf and mpc values as tuples or as mantissa
    and exponent, calls ``mpmath.libmp`` or names ``nstr``: every other
    module goes through the one scalar layer, and prints through
    ``format_scalar``."""
    found = [f"{path.stem}:{line}: {name}"
             for path in sorted((ROOT / "src" / "finfree").glob("*.py")) if path.name != "scalars.py"
             for line, name in _names(path) if name in MPMATH_INTERNALS]
    assert not found, f"mpmath internals outside scalars: {found}"


def test_no_module_names_fsum_or_fdot():
    """Every sum, of products or of terms, is one ``scalars.dot``, whose mp
    sums are exact and rounded once: no module names ``fsum`` or ``fdot``.
    mpmath's drop a term more than 2 * prec bits below the running sum."""
    found = [f"{path.stem}:{line}: {name}"
             for path in sorted((ROOT / "src" / "finfree").glob("*.py"))
             for line, name in _names(path) if name in ("fsum", "fdot")]
    assert not found, f"fsum or fdot named in src: {found}"


def test_partitions_leave_the_kind_to_scalars():
    """``block_sum`` and ``join_sum`` run one int loop each on the weights of
    ``scalars.integer_weights``, which takes the total back to their kind:
    ``partitions`` names no kind, no ``dot`` and no per-tuple product walk."""
    banned = {"EXACT", "MPF", "FLOAT64", "dot", "product", "chain"}
    found = [f"partitions:{line}: {name}"
             for line, name in _names(ROOT / "src" / "finfree" / "partitions.py") if name in banned]
    assert not found, f"kind decisions or tuple walks in partitions: {found}"


def test_series_coefficients_go_through_the_scalars_kernel():
    """``PowerSeries.exp`` and ``log`` hand their coefficients to
    ``scalars.recurrence``, which runs real mpf series on ints and every
    other kind through ``dot``: ``series`` names no ``dot``."""
    path = ROOT / "src" / "finfree" / "series.py"
    found = [f"series:{line}: {name}" for line, name in _names(path) if name == "dot"]
    assert not found, f"sums outside the series kernel: {found}"


def test_kinds_are_named_in_scalars_and_polycalc_alone():
    """Only ``scalars`` and ``polycalc`` (the root expansion, ``dilate`` and
    the Newton-Maclaurin tolerances) branch on a kind; every other module
    reads a value list's kind once through ``one_kind`` or ``common_kind``."""
    banned = {"kind_of", "EXACT", "MPF", "FLOAT64"}
    found = [f"{path.stem}:{line}: {name}"
             for path in sorted((ROOT / "src" / "finfree").glob("*.py"))
             if path.stem not in ("scalars", "polycalc")
             for line, name in _names(path) if name in banned]
    assert not found, f"kind decisions outside scalars and polycalc: {found}"


def test_experiments_open_one_precision_scope():
    """``run_experiment`` opens the run's one ``mp.workdps``; the point
    generators compute inside it and name no ``workdps`` of their own."""
    path = ROOT / "src" / "finfree" / "experiments.py"
    (run,) = [fn for name, fn in _functions(_body(path), "experiments")
              if name == "experiments.run_experiment"]
    found = sorted(line for line, name in _names(path) if name == "workdps")
    assert found and all(run.lineno <= line <= run.end_lineno for line in found), (
        f"workdps outside run_experiment at lines {found}")


def test_no_module_imports_a_private_name_of_another():
    """A leading underscore keeps a name inside its module: no finfree module
    imports one from another, so the walks behind ``partition_masks`` and
    ``noncrossing_masks`` stay private to ``partitions``."""
    found = [f"{path.stem}:{node.lineno}: {alias.name}"
             for path in sorted((ROOT / "src" / "finfree").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").split(".")[0] == "finfree")
             for alias in node.names if alias.name.startswith("_")]
    assert not found, f"private names imported across modules: {found}"


def _functions(body: list, prefix: str):
    """(qualified name, node) of the module-level functions and class methods."""
    for stmt in body:
        if isinstance(stmt, ast.FunctionDef):
            yield f"{prefix}.{stmt.name}", stmt
        elif isinstance(stmt, ast.ClassDef):
            yield from _functions(stmt.body, f"{prefix}.{stmt.name}")


def test_block_sum_only_in_the_literal_routes():
    """``partitions.block_sum`` sums over P(n) by block-size profile: outside
    ``partitions`` only the literal cross-checks call it, the
    ``grouped=False`` cumulant transform and ``faa_di_bruno_exp``.  Every
    other route is a series exp or log."""
    found = {name for path in sorted((ROOT / "src" / "finfree").glob("*.py"))
             if path.stem != "partitions"
             for name, fn in _functions(_body(path), path.stem) if "block_sum" in _refs([fn])}
    assert found == {"cumulants.cumulants_from_atilde", "identities.faa_di_bruno_exp"}, found


def test_literal_sums_go_by_block_profile():
    """``block_sum`` and ``s_bruteforce`` sum one term per block-size profile
    of ``partitions.block_profiles``, not one per partition: neither names
    ``partition_masks``."""
    found = {name: _refs([fn]) for stem in ("partitions", "identities")
             for name, fn in _functions(_body(ROOT / "src" / "finfree" / f"{stem}.py"), stem)
             if name in ("partitions.block_sum", "identities.s_bruteforce")}
    assert set(found) == {"partitions.block_sum", "identities.s_bruteforce"}, found
    for name, refs in found.items():
        assert "block_profiles" in refs and "partition_masks" not in refs, name
