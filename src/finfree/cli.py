"""Command-line interface.

Subcommands mirror the library surface: partition streams, identity
evaluation, tuple-family counts, convolutions, cumulant transforms, and the
limit-theorem experiment harness.  Exit codes: 0 success, 2 invalid input,
3 cap or precision infeasibility (a binary64 overflow among them), 4 numerical
non-convergence.  A reader that closes stdout early (``| head``) ends the
output quietly, with 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from contextlib import nullcontext
from itertools import islice

from .cumulants import CumulantVector, coeffs_from_cumulants, finite_cumulants
from .errors import CapExceededError, PrecisionBudgetError, RootConvergenceError
from .experiments import ExperimentConfig, run_experiment
from .identities import ZeroConstPoly, s_closed_form, s_mobius_route
from .partitions import (
    DEFAULT_PARTITION_CAP,
    DEFAULT_TUPLE_CAP,
    count_R,
    count_S,
    count_T,
    count_T_closed,
    count_join_full,
    count_join_full_closed,
    mask_elements,
    noncrossing_masks,
    partition_count,
    partition_masks,
)
from .polycalc import (boxplus, boxtimes, boxtimes_pow, parse_scalar, poly_from_json,
                       poly_to_json, positive_int)
from .scalars import format_scalar


def _parse_fs(text: str) -> list[ZeroConstPoly]:
    """Semicolon-separated polynomials, each a comma list of x^1..x^m coefficients."""
    polys = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coeffs = [parse_scalar(tok.strip()) for tok in chunk.split(",")]
        polys.append(ZeroConstPoly(coeffs))
    if not polys:
        raise ValueError("no polynomials given")
    return polys


def _parse_int_list(name: str, text: str) -> list[int]:
    """Comma-separated plain decimal integers; ``int`` alone would also take
    ``1_0`` or non-ASCII digits."""
    toks = [tok.strip() for tok in text.split(",") if tok.strip()]
    for tok in toks:
        if not re.fullmatch(r"-?[0-9]+", tok):
            raise ValueError(f"{name}: not a plain decimal integer: {tok!r}")
    return [int(tok) for tok in toks]


def _load_json_arg(text: str):
    """Inline JSON if it looks like an object or an array, else a file path."""
    text = text.strip()
    if text.startswith(("{", "[")):
        return json.loads(text)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(text, out: str | None) -> None:
    """Write ``text``, a str or an iterable of str chunks, to ``out`` or
    stdout, newline-terminated, without a copy.

    A write into a closed pipe (the reader stopped, as ``| head`` does) ends
    the output quietly: the chunks are not drawn further, and the file
    descriptor is pointed at os.devnull, so no later flush raises.
    """
    chunks = (text,) if isinstance(text, str) else text
    with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as fh:
        try:
            tail = ""
            for chunk in chunks:
                fh.write(chunk)
                tail = chunk or tail
            if not tail.endswith("\n"):
                fh.write("\n")
            fh.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fh.fileno())
            os.close(devnull)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``main``: parsing
    leaves it unchanged, and the handlers are looked up by ``main``."""
    ap = argparse.ArgumentParser(
        prog="finfree",
        description="finite free convolution toolkit and limit-theorem harness",
    )
    ap.add_argument("--precision", type=int, default=50, metavar="DIGITS",
                    help="working decimal digits for float paths (default 50)")
    ap.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="output format (default csv); conv and cumulants --invert print "
                         "a JSON polynomial literal in either, the input format of the "
                         "other commands")
    ap.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    ap.add_argument("--cap", type=int, default=None, metavar="N",
                    help="override brute-force enumeration caps")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", help="stream set partitions of [n]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--noncrossing", action="store_true")
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("identity", help="evaluate the partition-sum identity")
    p.add_argument("--fs", required=True,
                   help="polynomials as 'c1,c2,..;c1,..' (coefficients of x^1..x^m)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--closed-form", action="store_true")

    p = sub.add_parser("count", help="tuple-family counts")
    p.add_argument("family", choices=("R", "S", "T", "joinfull"))
    p.add_argument("--sizes", required=True, help="comma list m1,m2,...")
    p.add_argument("--n", type=int)
    p.add_argument("--lengths", help="comma list l1,l2,... (family T)")
    p.add_argument("--method", choices=("brute", "formula", "closed"), default=None)

    p = sub.add_parser("conv", help="finite free convolutions")
    p.add_argument("op", choices=("boxplus", "boxtimes", "pow"))
    p.add_argument("--p", required=True, help="polynomial literal (JSON or path)")
    p.add_argument("--q", help="second polynomial (boxplus/boxtimes)")
    p.add_argument("--m", type=int, help="power (pow)")

    p = sub.add_parser("cumulants", help="finite free cumulant transform")
    p.add_argument("--p", required=True,
                   help="polynomial literal, or {degree, cumulants} with --invert")
    p.add_argument("--invert", action="store_true")

    p = sub.add_parser("limit", help="run a limit-theorem experiment")
    p.add_argument("--config", required=True, help="ExperimentConfig JSON (inline or path)")
    return ap


# rows joined per chunk of the partitions stream
_ROWS_PER_CHUNK = 1024


def _cmd_partitions(args):
    cap = DEFAULT_PARTITION_CAP if args.cap is None else args.cap
    if args.count_only:
        count = partition_count(args.n, cap, args.noncrossing)
        try:
            return str(count)
        except ValueError:  # past Python's int-to-str digit limit
            digits = int(count.bit_length() * math.log10(2))  # the digit count or one less
            digits += count >= 10 ** digits
            limit = sys.get_int_max_str_digits()
            raise OverflowError(f"the count has {digits} decimal digits, past Python's "
                                f"limit of {limit} for printing an int") from None
    walk = (noncrossing_masks if args.noncrossing else partition_masks)(args.n, cap)
    return _partition_rows(walk, args.format == "json")


def _partition_rows(walk, as_json: bool):
    """The text of the partitions in ``walk``, a stream of block-mask tuples,
    in chunks of ``_ROWS_PER_CHUNK`` rows: one row per line in csv, and in
    json what json.dumps of the list of block lists writes.  Each distinct
    block is formatted once, on first use, and every row is joined from the
    block texts."""
    wrap = "[{}]".format if as_json else str
    elem_sep, block_sep, row_sep = (", ", ", ", ", ") if as_json else (",", "|", "\n")

    class BlockTexts(dict):  # block mask -> its text
        def __missing__(self, mask):
            text = self[mask] = wrap(elem_sep.join(map(str, mask_elements(mask))))
            return text

    block = BlockTexts().__getitem__
    sep = "[" if as_json else ""
    for batch in iter(lambda: list(islice(walk, _ROWS_PER_CHUNK)), []):
        yield sep + row_sep.join([wrap(block_sep.join(map(block, p))) for p in batch])
        sep = row_sep
    if as_json:
        yield "]"  # a walk yields at least one partition


def _cmd_identity(args) -> str:
    fs = _parse_fs(args.fs)
    if args.closed_form:
        val = s_closed_form(fs, args.n)
        out = "no-closed-form" if val is None else format_scalar(val)
    else:
        out = format_scalar(s_mobius_route(fs, args.n))
    if args.format == "json":
        return json.dumps({"n": args.n, "value": out})
    return out


# family -> counting methods, the default first
_COUNT_METHODS = {
    "R": ("formula", "brute"),
    "S": ("brute",),
    "T": ("closed", "brute"),
    "joinfull": ("closed", "brute"),
}


def _cmd_count(args) -> str:
    sizes = _parse_int_list("sizes", args.sizes)
    cap = DEFAULT_TUPLE_CAP if args.cap is None else args.cap
    fam = args.family
    methods = _COUNT_METHODS[fam]
    method = args.method or methods[0]
    if method not in methods:
        raise ValueError(f"family {fam} has methods {'|'.join(methods)}")
    if fam in ("R", "S") and args.n is None:
        raise ValueError(f"family {fam} needs --n")
    if fam == "R":
        val = count_R(args.n, sizes, cap=cap, method=method)
    elif fam == "S":
        val = count_S(args.n, sizes, cap=cap)
    elif fam == "T":
        if not args.lengths:
            raise ValueError("family T needs --lengths")
        lengths = _parse_int_list("lengths", args.lengths)
        val = (
            count_T(sizes, lengths, cap=cap)
            if method == "brute"
            else count_T_closed(sizes, lengths)
        )
    else:
        val = (
            count_join_full(sizes, cap=cap)
            if method == "brute"
            else count_join_full_closed(sizes)
        )
    if args.format == "json":
        return json.dumps({"family": fam, "sizes": sizes, "count": val})
    return str(val)


def _cmd_conv(args) -> str:
    p = poly_from_json(_load_json_arg(args.p), digits=args.precision)
    if args.op == "pow":
        if args.m is None:
            raise ValueError("conv pow needs --m")
        out = boxtimes_pow(p, args.m, digits=args.precision)
    else:
        if not args.q:
            raise ValueError(f"conv {args.op} needs --q")
        q = poly_from_json(_load_json_arg(args.q), digits=args.precision)
        op = boxplus if args.op == "boxplus" else boxtimes
        out = op(p, q, digits=args.precision)
    return json.dumps(poly_to_json(out))


def _cmd_cumulants(args) -> str:
    obj = _load_json_arg(args.p)
    if args.invert:
        if not isinstance(obj, dict) or "cumulants" not in obj or "degree" not in obj:
            raise ValueError("--invert expects {\"degree\": d, \"cumulants\": [...]}")
        d = positive_int("degree", obj["degree"])
        if not isinstance(obj["cumulants"], list):
            raise ValueError("cumulants must be a JSON array")
        try:
            vals = tuple(parse_scalar(v) for v in obj["cumulants"])
        except ValueError as exc:
            raise ValueError(f"cumulants: {exc}") from None
        kv = CumulantVector(d, vals)
        return json.dumps(poly_to_json(coeffs_from_cumulants(kv, digits=args.precision)))
    p = poly_from_json(obj, digits=args.precision)
    kv = finite_cumulants(p, digits=args.precision)
    values = [format_scalar(v, args.precision) for v in kv.values]
    if args.format == "json":
        return json.dumps({"degree": kv.d, "cumulants": values})
    return "\n".join(f"kappa_{i},{v}" for i, v in enumerate(values, start=1))


def _cmd_limit(args) -> str:
    obj = _load_json_arg(args.config)
    if isinstance(obj, dict):
        obj.setdefault("precision", args.precision)
    table = run_experiment(ExperimentConfig.from_json(obj))
    if args.format == "json":
        return json.dumps(table.to_json(), indent=2)
    return table.to_csv()


def main(argv: list[str] | None = None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "partitions": _cmd_partitions,
        "identity": _cmd_identity,
        "count": _cmd_count,
        "conv": _cmd_conv,
        "cumulants": _cmd_cumulants,
        "limit": _cmd_limit,
    }
    try:
        positive_int("--precision", args.precision)
        _emit(handlers[args.command](args), args.out)
    except (CapExceededError, PrecisionBudgetError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RootConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
