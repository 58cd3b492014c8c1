"""Generated argv through ``cli.main``, in-process.

Whatever the input, the CLI ends in a documented exit code (0 success,
2 invalid input, 3 cap or precision, 4 non-convergence), never in a
traceback, and output with exit code 0 parses in its ``--format``.
"""

import contextlib
import csv
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from finfree import cli
from finfree.experiments import KINDS

# JSON scalars: small and huge ints, finite, huge and non-finite floats,
# bools, null, and strings that do and do not parse as rationals
SCALARS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([10 ** 400, -(10 ** 20), 0.5, -1.5, 1e300, -1e308, 1e-320,
                     float("nan"), float("inf"), float("-inf"), True, False, None,
                     "1/2", "-3/4", "1/0", "1e400", "1e-400", "nan", "x", ""]),
)
# wrong types and non-finite values, for fields that are sizes
WRONG = st.sampled_from([True, False, None, 2.0, "3", "x", "", "1/0", float("nan"), float("inf")])
SMALL = st.one_of(st.integers(-3, 3), st.sampled_from(["1/2", "-3/4", 0.5, -1.5, 2.25]))
FIELDS = ("coeffs", "roots", "angles", "degree", "cumulants", "bogus")
DEGREES = st.sampled_from([0, 1, 2, 3, -1, True, 2.0, "2", None, 10 ** 400])


def well_formed(d):
    """A coeffs, roots or angles literal of degree d."""
    return st.one_of(
        st.lists(SMALL, min_size=d, max_size=d).map(lambda cs: {"coeffs": [1, *cs]}),
        st.lists(SMALL, min_size=d, max_size=d).map(lambda rs: {"roots": rs}),
        st.lists(st.floats(-4, 4), min_size=d, max_size=d).map(lambda xs: {"angles": xs}),
    )


WELL_FORMED = st.integers(0, 4).flatmap(well_formed)
LITERALS = st.one_of(
    WELL_FORMED,
    st.tuples(WELL_FORMED, DEGREES).map(lambda pd: {**pd[0], "degree": pd[1]}),
    st.dictionaries(st.sampled_from(FIELDS), st.one_of(SCALARS, st.lists(SCALARS, max_size=4)),
                    max_size=3),
    st.one_of(SCALARS, st.lists(SCALARS, max_size=3)),
)
MALFORMED = st.sampled_from(['{', '[1,', '{"coeffs": [1, 2}', '{"coeffs": [1, 2]} extra',
                             '{"coeffs": [1, 2],}', "{'coeffs': [1]}", '[', 'no-such-file.json'])


def json_arg(values):
    return st.one_of(values.map(json.dumps), values.map(json.dumps), MALFORMED)


INTS = st.one_of(st.integers(-2, 6), st.sampled_from([10 ** 7, 10 ** 30]))
TOKENS = st.sampled_from(["1", "2", "3", "0", "-1", " 2", "1_0", "+1", "x", "", "1.5"])
INT_LISTS = st.lists(TOKENS, max_size=3).map(",".join)
FS = st.lists(st.lists(st.sampled_from(["0", "1", "-2", "1/2", "1/0", "1e400", "nan", "zz", ""]),
                       min_size=1, max_size=3).map(",".join),
              min_size=1, max_size=3).map(";".join)


def flag(name, values, required=False):
    """``[name, value]``, or nothing when the flag is optional."""
    given_ = values.map(lambda v: [name, str(v)])
    return given_ if required else st.one_of(st.just([]), given_)


def switch(name):
    return st.sampled_from([[], [name]])


def command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [a for p in ps for a in p])


GRID = st.lists(st.integers(3, 6), min_size=1, max_size=2)
# m and t grids take huge entries too: every power is taken in mpf, at
# log10(m) more working digits, so they run; only an sy ratio m / d past the
# binary64 range exits 3, because the row's t column is m / d in binary64
M_GRID = st.lists(st.one_of(st.integers(3, 6), st.sampled_from([10 ** 9, 10 ** 400])),
                  min_size=1, max_size=2)
T_GRID = st.lists(st.sampled_from([0, "1/2", 1, 1.5, 3, 1e9, 1e300]), min_size=1, max_size=2)
# precision 1000 puts the working digits over their bound of 1000, 15 under it
PRECISION = st.sampled_from([15, 1000])
BAD_GRID = st.one_of(st.integers(-1, 5), WRONG, st.lists(st.one_of(st.integers(-1, 5), WRONG),
                                                          max_size=2))
CONFIGS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("sy"), "d": GRID, "m": M_GRID,
                           "n_max": st.integers(1, 3), "regime": st.sampled_from(["t", "zero"]),
                           "precision": PRECISION},
                          optional={"poly": WELL_FORMED}),
    st.fixed_dictionaries({"kind": st.sampled_from(["multclt", "uclt", "lln"]), "m": M_GRID},
                          optional={"sigma": SMALL, "poly": WELL_FORMED}),
    st.fixed_dictionaries({"kind": st.sampled_from(["fms", "hermite", "laguerre"]), "d": GRID,
                           "t": T_GRID, "n_max": st.integers(1, 3), "precision": PRECISION}),
    st.fixed_dictionaries(
        {"kind": st.sampled_from(KINDS + ("bogus",))},
        optional={"d": BAD_GRID, "m": BAD_GRID, "t": st.lists(st.one_of(SMALL, WRONG), max_size=2),
                  "n_max": st.one_of(st.integers(0, 4), WRONG),
                  "precision": st.sampled_from([15, 14, 0, True, 15.0, "20"]),
                  "sigma": st.one_of(SMALL, SCALARS), "regime": st.sampled_from(["auto", None, 1]),
                  "poly": LITERALS, "bogus": SCALARS}),
)

ARGV = st.tuples(
    flag("--precision", st.sampled_from([15, 30, 50])),
    st.sampled_from(["csv", "json"]),
    flag("--cap", st.integers(0, 3)),
    st.one_of(
        command("partitions", flag("--n", INTS, True), switch("--noncrossing"),
                switch("--count-only")),
        command("identity", flag("--fs", FS, True), flag("--n", INTS, True),
                switch("--closed-form")),
        command("count", st.sampled_from([["R"], ["S"], ["T"], ["joinfull"]]),
                flag("--sizes", INT_LISTS, True), flag("--n", INTS), flag("--lengths", INT_LISTS),
                flag("--method", st.sampled_from(["brute", "formula", "closed"]))),
        command("conv", st.sampled_from([["boxplus"], ["boxtimes"]]),
                st.integers(1, 3).flatmap(lambda d: st.tuples(well_formed(d), well_formed(d)))
                .map(lambda pq: ["--p", json.dumps(pq[0]), "--q", json.dumps(pq[1])])),
        command("conv", st.sampled_from([["boxplus"], ["boxtimes"], ["pow"]]),
                flag("--p", json_arg(LITERALS), True), flag("--q", json_arg(LITERALS)),
                flag("--m", st.integers(-1, 4))),
        command("cumulants", flag("--p", json_arg(LITERALS), True)),
        command("cumulants", st.just(["--invert"]), flag("--p", json_arg(st.one_of(
            st.fixed_dictionaries({"degree": DEGREES,
                                   "cumulants": st.lists(st.one_of(SMALL, SCALARS), max_size=4)}),
            LITERALS)), True)),
        command("limit", flag("--config", json_arg(CONFIGS), True)),
    ),
).map(lambda a: [*a[0], "--format", a[1], *a[2], *a[3]])


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses its own usage errors with 2
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(ARGV)
def test_every_input_ends_in_a_documented_exit_code(argv):
    code, out, err = run(argv)
    assert code in (0, 2, 3, 4), (code, err)
    if code:
        assert out == "" and err
        return
    # conv and cumulants --invert print a polynomial literal in either format
    if argv[argv.index("--format") + 1] == "json" or "conv" in argv or "--invert" in argv:
        json.loads(out)
    else:
        list(csv.reader(io.StringIO(out), strict=True))
