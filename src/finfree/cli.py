"""Command-line interface.

Subcommands mirror the library surface: partition streams, identity
evaluation, tuple-family counts, convolutions, cumulant transforms, and the
limit-theorem experiment harness.  Exit codes: 0 success, 2 invalid input,
3 cap or precision infeasibility, 4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .cumulants import CumulantVector, coeffs_from_cumulants, finite_cumulants
from .errors import CapExceededError, PrecisionBudgetError, RootConvergenceError
from .experiments import KINDS, ExperimentConfig, run_experiment
from .identities import (
    NO_CLOSED_FORM,
    ZeroConstPoly,
    s_bruteforce,
    s_closed_form,
)
from .partitions import (
    DEFAULT_PARTITION_CAP,
    DEFAULT_TUPLE_CAP,
    count_R,
    count_S,
    count_T,
    count_T_closed,
    count_join_full,
    count_join_full_closed,
    enumerate_noncrossing,
    enumerate_partitions,
)
from .polycalc import boxplus, boxtimes, boxtimes_pow, poly_from_json, poly_to_json
from .scalars import format_scalar


def _parse_fs(text: str) -> list[ZeroConstPoly]:
    """Semicolon-separated polynomials, each a comma list of x^1..x^m coefficients."""
    polys = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        coeffs = [Fraction(tok.strip()) for tok in chunk.split(",")]
        polys.append(ZeroConstPoly(coeffs))
    if not polys:
        raise ValueError("no polynomials given")
    return polys


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _load_json_arg(text: str):
    """Inline JSON if it looks like an object, else a file path."""
    text = text.strip()
    if text.startswith("{"):
        return json.loads(text)
    with open(text, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="finfree",
        description="finite free convolution toolkit and limit-theorem harness",
    )
    ap.add_argument("--precision", type=int, default=50, metavar="DIGITS",
                    help="working decimal digits for float paths (default 50)")
    ap.add_argument("--format", choices=("csv", "json"), default="csv")
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
    p.add_argument("--kind", choices=KINDS)
    p.add_argument("--config", required=True, help="ExperimentConfig JSON (inline or path)")
    return ap


def _cmd_partitions(args) -> str:
    cap = args.cap or DEFAULT_PARTITION_CAP
    stream = (
        enumerate_noncrossing(args.n, cap=cap)
        if args.noncrossing
        else enumerate_partitions(args.n, cap=cap)
    )
    if args.count_only:
        return str(sum(1 for _ in stream))
    if args.format == "json":
        return json.dumps([[list(b) for b in p.blocks] for p in stream])
    lines = [
        "|".join(",".join(str(x) for x in b) for b in p.blocks) for p in stream
    ]
    return "\n".join(lines)


def _cmd_identity(args) -> str:
    fs = _parse_fs(args.fs)
    cap = args.cap or DEFAULT_PARTITION_CAP
    if args.closed_form:
        val = s_closed_form(fs, args.n)
        if val is NO_CLOSED_FORM:
            out = "no-closed-form"
        else:
            out = format_scalar(val)
    else:
        out = format_scalar(s_bruteforce(fs, args.n, cap=cap))
    if args.format == "json":
        return json.dumps({"n": args.n, "value": out})
    return out


def _cmd_count(args) -> str:
    sizes = _parse_int_list(args.sizes)
    cap = args.cap or DEFAULT_TUPLE_CAP
    fam = args.family
    if fam == "R":
        if args.n is None:
            raise ValueError("family R needs --n")
        method = args.method or "formula"
        if method == "closed":
            raise ValueError("family R has methods brute|formula")
        val = count_R(args.n, sizes, cap=cap, method=method)
    elif fam == "S":
        if args.n is None:
            raise ValueError("family S needs --n")
        if args.method not in (None, "brute"):
            raise ValueError("family S is brute-force only")
        val = count_S(args.n, sizes, cap=cap)
    elif fam == "T":
        if not args.lengths:
            raise ValueError("family T needs --lengths")
        lengths = _parse_int_list(args.lengths)
        method = args.method or "closed"
        val = (
            count_T(sizes, lengths, cap=cap)
            if method == "brute"
            else count_T_closed(sizes, lengths)
        )
    else:
        method = args.method or "closed"
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
        vals = [Fraction(v) if isinstance(v, str) else v for v in obj["cumulants"]]
        kv = CumulantVector(int(obj["degree"]), tuple(vals))
        return json.dumps(poly_to_json(coeffs_from_cumulants(kv, digits=args.precision)))
    p = poly_from_json(obj, digits=args.precision)
    kv = finite_cumulants(p, digits=args.precision)
    values = [format_scalar(v, args.precision) for v in kv.values]
    if args.format == "json":
        return json.dumps({"degree": kv.d, "cumulants": values})
    return "\n".join(f"kappa_{i},{v}" for i, v in enumerate(values, start=1))


def _cmd_limit(args) -> str:
    obj = _load_json_arg(args.config)
    if args.kind is not None:
        obj.setdefault("kind", args.kind)
        if obj["kind"] != args.kind:
            raise ValueError("--kind conflicts with the config file")
    if "precision" not in obj:
        obj["precision"] = args.precision
    cfg = ExperimentConfig.from_json(obj)
    if args.format != "csv":
        cfg.format = args.format
    table = run_experiment(cfg)
    if cfg.format == "json":
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
        text = handlers[args.command](args)
    except (CapExceededError, PrecisionBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RootConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, TypeError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
