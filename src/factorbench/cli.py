"""Command-line front end.

Bulk tables go out as CSV, scalar results and reports as strict JSON (a
non-finite float is null); everything is written to stdout unless --out is
given.  Exit codes: 0 on success, 1 when verify finds a failing check, 2 on
a user error.  User errors are bad arguments (argparse's usage message), bad
values, files that cannot be read or written and limits over budget; the
last three print one line, "factorbench: error: <message>", on stderr.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys

from . import counting, verify, zeta
from .dirichlet import ArithFn, ComplexPoint, convolve, dirichlet_inverse, series_eval
from .factorizations import (
    PartitionMultiset,
    build_factorisation_tables,
    d_lambda,
    d_lambda_bound,
)
from .reproduce import reproduce_report
from .sieve import build_sieve, factorize
from .zfamily import beta_for_z, build_context


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None) -> None:
    _emit(json.dumps(_jsonable(obj), indent=2, allow_nan=False) + "\n", out)


def _jsonable(v):
    """v with each complex as {"re": .., "im": ..} and each non-finite float as None."""
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, complex):
        return {"re": _jsonable(v.real), "im": _jsonable(v.imag)}
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _rows_to_csv(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _parse_z(text: str) -> complex:
    """z from RE or RE,IM; a malformed or non-finite z is a user error."""
    try:
        z = complex(*map(float, text.split(",")))
    except (TypeError, ValueError):
        raise ValueError(f"z must be RE or RE,IM, got {text!r}") from None
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {text!r}")
    return z


def _z_context(args):
    """The F_z context of --z and --limit; a non-finite Ft_z(n) is a user
    error that names the first such n."""
    ctx = build_context(_parse_z(args.z), args.limit, build_sieve(args.limit))
    if not isinstance(ctx.z, int):  # an int z gives exact ints
        for n, v in enumerate(ctx.fz_tilde.values):
            if not cmath.isfinite(v):
                raise ValueError(f"Ft_z({n}) = {v!r} is not finite: the powers "
                                 f"of z = {ctx.z!r} overflow a double")
    return ctx


def _z_joined(argv: list[str]) -> list[str]:
    """argv with each "--z VALUE" written "--z=VALUE", so that argparse takes
    a value that starts with "-", such as -0.7,1.1 or -inf, for the value of
    --z and not for an option."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] == "--z":
            out[-1] = f"--z={token}"
        else:
            out.append(token)
    return out


def cmd_sieve(args) -> int:
    tables = build_sieve(args.limit)
    key = args.emit
    col = {"mu": tables.mu, "omega": tables.big_omega, "spf": tables.spf}[key]
    lo = 2 if key == "spf" else 1
    rows = [(n, int(col[n])) for n in range(lo, args.limit + 1)]
    if args.format == "csv":
        _emit(_rows_to_csv(["n", key], rows), args.out)
    else:
        _emit_json({key: dict(rows)}, args.out)
    return 0


def cmd_factorisatio(args) -> int:
    if args.k is not None and args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")
    ft = build_factorisation_tables(args.limit)
    if args.emit == "fk":
        ks = range(1, (args.k or ft.k_max) + 1)  # f_k = 0 for k > k_max
        header = ["n"] + [f"f{k}" for k in ks]
        rows = [(n, *(ft.fk[k][n] if k <= ft.k_max else 0 for k in ks))
                for n in range(1, args.limit + 1)]
    else:
        table = {"f": ft.f, "feven": ft.f_even, "fodd": ft.f_odd}[args.emit]
        header = ["n", args.emit]
        rows = [(n, table[n]) for n in range(1, args.limit + 1)]
    _emit(_rows_to_csv(header, rows), args.out)
    return 0


def cmd_dlambda(args) -> int:
    parts = [int(p) for p in args.lam.split(",")]
    lam = PartitionMultiset.from_parts(parts)
    tables = build_sieve(max(args.n, 2))
    fi = factorize(args.n, tables)
    _emit_json(
        {
            "n": args.n,
            "lambda": list(lam.parts),
            "d_lambda": d_lambda(fi, lam),
            "bound": d_lambda_bound(lam),
        },
        args.out,
    )
    return 0


def cmd_invert(args) -> int:
    if args.identity:
        if args.limit is None:
            raise ValueError("--identity needs --limit")
        F = ArithFn.unit(args.limit)
    elif args.input:
        F = ArithFn.from_csv(args.input)
        if args.limit is not None and args.limit != F.limit:
            raise ValueError(f"input covers 1..{F.limit}, not 1..{args.limit}")
    else:
        raise ValueError("need --input FILE or --identity")
    _emit(dirichlet_inverse(F).csv_text(), args.out)
    return 0


def cmd_convolve(args) -> int:
    F = ArithFn.from_csv(args.a)
    G = ArithFn.from_csv(args.b)
    _emit(convolve(F, G).csv_text(), args.out)
    return 0


def cmd_hr_count(args) -> int:
    tables = build_sieve(int(args.x))
    profile = counting.profile_N_kappa(args.x, args.kappa, tables)
    rows = sorted(profile.per_ell.items())
    if args.format == "csv":
        _emit(_rows_to_csv(["ell", "count"], rows), args.out)
    else:
        _emit_json({"x": args.x, "kappa": args.kappa, "per_ell": dict(rows)}, args.out)
    return 0


def cmd_psi(args) -> int:
    tables = build_sieve(max(args.n, 2))
    tup, j = counting.psi_tuple(args.n, args.kappa, tables)
    _emit(",".join(str(i) for i in tup) + f"\nJ={j}\n", args.out)
    return 0


def cmd_coffeeshop(args) -> int:
    x = int(args.x)
    tables = build_sieve(x)
    ftables = build_factorisation_tables(x, tables)
    c = int(args.c) if float(args.c).is_integer() else float(args.c)
    total = counting.coffeeshop_sum(x, c, args.kappa, ftables, tables)
    _emit_json({"x": x, "C": c, "kappa": args.kappa, "sum": total}, args.out)
    return 0


def cmd_dz(args) -> int:
    ctx = _z_context(args)
    fn = {"fz": ctx.fz, "fztilde": ctx.fz_tilde, "gz": ctx.gz}[args.emit]
    _emit(fn.csv_text(), args.out)
    return 0


def cmd_dz_eval(args) -> int:
    ctx = _z_context(args)
    s = ComplexPoint(args.sigma, args.t)
    val = series_eval(ctx.fz_tilde, s)
    _emit_json(
        {
            "z": ctx.z,
            "sigma": args.sigma,
            "t": args.t,
            "limit": args.limit,
            "reciprocal_series": val,
            "beta_z": ctx.beta_z,
        },
        args.out,
    )
    return 0


def cmd_beta_z(args) -> int:
    z = _parse_z(args.z)
    _emit_json({"z": z, "beta_z": beta_for_z(z)}, args.out)
    return 0


def cmd_zeta(args) -> int:
    z = zeta.zeta_real(args.sigma)
    obj = {"sigma": args.sigma, "value": z.value, "error_bound": z.error_bound,
           "method": z.method}
    if args.prime:
        obj.update(derivative=z.derivative, derivative_bound=z.derivative_bound)
    _emit_json(obj, args.out)
    return 0


def cmd_kalmar(args) -> int:
    x = int(args.x)
    ftables = build_factorisation_tables(x)
    beta = zeta.kalmar_beta()
    _emit_json(
        {
            "x": x,
            "beta": beta,
            "leading_constant": zeta.kalmar_constant(),
            "ratio": zeta.kalmar_ratio(x, ftables),
        },
        args.out,
    )
    return 0


def cmd_sarnak(args) -> int:
    x = int(args.x)
    tables = build_sieve(x)
    ftables = build_factorisation_tables(x, tables)
    rep = zeta.sarnak_correlation(x, args.xi, ftables, tables)
    _emit_json(
        {
            "x": x,
            "xi": args.xi,
            "numerator": rep.numerator,
            "denominator": rep.denominator,
            "ratio": rep.ratio,
        },
        args.out,
    )
    return 0


def cmd_verify(args) -> int:
    results = verify.run_suite(args.suite, args.limit, args.seed)
    failed = 0
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failed += not ok
    return 1 if failed else 0


def cmd_reproduce(args) -> int:
    _emit_json(reproduce_report(args.limit, args.seed), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorbench",
        description="Ordered factorizations, Dirichlet inversion, kappa-free counting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write output to this file instead of stdout")
        return p

    p = add("sieve", cmd_sieve, help="emit mu/Omega/spf tables")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--emit", choices=["mu", "omega", "spf"], default="mu")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = add("factorisatio", cmd_factorisatio, help="emit f/f_k/f_even/f_odd tables")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--emit", choices=["f", "fk", "feven", "fodd"], default="f")

    p = add("dlambda", cmd_dlambda, help="d_lambda(n) and its factorial bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True, help="parts, e.g. 1,2,3")

    p = add("invert", cmd_invert, help="Dirichlet inverse of a CSV function")
    p.add_argument("--input")
    p.add_argument("--limit", type=int, help="table length; required with --identity")
    p.add_argument("--identity", action="store_true", help="invert the unit I")

    p = add("convolve", cmd_convolve, help="Dirichlet convolution of two CSV functions")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = add("hr-count", cmd_hr_count, help="counts by Omega restricted to kappa-free")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--kappa", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = add("psi", cmd_psi, help="minimal-index-sum representation of kappa-free n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kappa", type=int, required=True)

    p = add("coffeeshop", cmd_coffeeshop, help="power-weighted kappa-free sum of f")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--kappa", type=int, required=True)

    p = add("dz", cmd_dz, help="emit F_z / its inverse / G_z truncations")
    p.add_argument("--z", required=True, help="RE or RE,IM")
    p.add_argument("--limit", type=int, required=True)
    p.add_argument("--emit", choices=["fz", "fztilde", "gz"], default="fztilde")

    p = add("dz-eval", cmd_dz_eval, help="truncated reciprocal series at s")
    p.add_argument("--z", required=True, help="RE or RE,IM")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--limit", type=int, default=5000)

    p = add("beta-z", cmd_beta_z, help="convergence abscissa for z")
    p.add_argument("--z", required=True, help="RE or RE,IM")

    p = add("zeta", cmd_zeta, help="real-axis zeta with certified error")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--prime", action="store_true", help="include the derivative")

    p = add("kalmar", cmd_kalmar, help="growth-constant ratio for sum of f")
    p.add_argument("--x", type=float, required=True)

    p = add("sarnak", cmd_sarnak, help="mu-correlation sums")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--xi", choices=["f", "fmu2"], default="f")

    p = add("verify", cmd_verify, help="run invariant suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--limit", type=int, default=5000)
    p.add_argument("--seed", type=int, default=12345)

    p = add("reproduce", cmd_reproduce, help="full reproduction report")
    p.add_argument("--limit", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=12345)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(_z_joined(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:  # CapacityError is a ValueError
        print(f"factorbench: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":
    sys.exit(main())
