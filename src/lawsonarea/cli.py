"""Command-line front end.

Subcommands: ``expand`` (area/Willmore series), ``omega`` (one word
integral), ``mpl`` (one polylogarithm) and ``verify`` (identity suites).
Only ``expand --cache-dir DIR`` reads or writes a file of tables; every
other run builds its tables in process.  All numeric output is rendered
from the arbitrary-precision values directly; nothing passes through a
machine float, and ``mpl`` prints each part at the digits that ``li``'s
absolute error bound holds (``_held_text``).  ``expand`` at pi/4 prints
from the recursion's integers and imports no mpmath; the other
subcommands, and ``expand --order 1`` at another phi, print ``mpmath``
values.  Exit codes: 0 success, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import SUITE_NAMES, engine, omega
from .precision import PrecisionConfig, guard_digits_for_order
from .words import format_word, parse_word

_FORMATS = ("table", "json", "csv")


def _cfg(args) -> PrecisionConfig:
    return PrecisionConfig(target_digits=args.precision)


def _nstr(value, cfg: PrecisionConfig) -> str:
    return cfg.context.nstr(value, cfg.target_digits, strip_zeros=False)


def _usage_error(message) -> int:
    """Print one error line and return the usage-error exit code."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def _complex_texts(value, cfg: PrecisionConfig) -> tuple:
    """The (re, im) texts of a complex value at the target digits."""
    v = cfg.context.mpc(value)
    return _nstr(v.real, cfg), _nstr(v.imag, cfg)


def _held_text(part, cfg: PrecisionConfig) -> str:
    """A real part of an ``mpl.li`` value at the significant digits that
    ``li``'s absolute error bound holds, the target's at most.

    ``li`` is accurate to an absolute 2^-W, W = ``cfg.working_bits``: by
    ``mpl``'s rounding budget the kernel's own rounding stays below 2^-3.8
    of that unit, and the value is rounded once more, to 2^-P, 2^-32 of it.
    Printed at D significant digits, its leading digit at 10^e, the part is
    also off by half a unit of 10^(e-D+1), so every printed digit holds to
    one unit in the last place once 2^-W <= 10^(e-D+1)/2, which D =
    floor(log10(|part| 2^(W-1))) meets since |part| < 10^(e+1).  (Where D
    is below the target, |part| < 10^-9 and its rounding to the working
    bits, as ``_cmd_mpl`` reads it, adds under 10^-9 units.)  A part of
    modulus >= 10^-guard keeps all target digits, as (W - 1) log10(2) >
    working digits + 0.5; one of no held digit prints as 0.0.
    """
    shift = part.exp + cfg.working_bits - 1
    whole = abs(part.man) << shift if shift >= 0 else abs(part.man) >> -shift
    digits = min(cfg.target_digits, len(str(whole)) - 1)
    return cfg.context.nstr(part, digits, strip_zeros=False) if digits > 0 else "0.0"


def _print_complex(texts, fmt: str, label: str) -> None:
    """Print a complex value given as the texts of its (re, im) parts."""
    re, im = texts
    if fmt == "json":
        print(json.dumps({"version": 1, "label": label, "re": re, "im": im}))
    elif fmt == "csv":
        print("label,re,im")
        print(f"{label},{re},{im}")
    else:
        print(f"{label} = {re} + {im}*i")


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def _cmd_expand(args) -> int:
    cfg = PrecisionConfig(args.precision, guard_digits_for_order(args.order))
    phi = args.phi.strip()
    try:
        is_pi4 = omega.is_pi_over_4(omega.parse_phi(phi, cfg), cfg)
    except ValueError as exc:
        return _usage_error(exc)
    if args.order >= 2 and not is_pi4:
        return _usage_error("general-phi engine limited to order 1 "
                            "(the order recursion requires phi = pi/4)")

    if args.order == 1 and not is_pi4:
        first = engine.first_order_general_phi(phi, cfg)
        payload = {
            "version": 1, "phi": phi, "precision": cfg.target_digits, "order": 1,
            "first_order": {name: _nstr(getattr(first, name), cfg)
                            for name in first.FIELDS},
        }
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        elif args.format == "csv":
            print("name,value")
            for name, value in payload["first_order"].items():
                print(f"{name},{value}")
        else:
            print(f"first-order closed forms at phi = {phi}:")
            for name, value in payload["first_order"].items():
                print(f"  {name:22s} = {value}")
        _write_artifact(args, payload)
        return 0

    # every spelling of pi/4 runs the recursion at the constant engine.PHI
    table = omega.cached_table("1", engine.PHI, args.order + 1, cfg, args.cache_dir or None)
    state = engine.run(args.order, cfg, table=table)
    result = engine.area_series(state)
    payload = result.to_jsonable()
    payload["derivatives"] = state.derivatives_jsonable()
    state_note = f"Area = 8*pi*(1 - sum alpha_k t^k), t = 1/(2g+2), phi = {engine.PHI}"
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        print("order,re,im")
        for k, a in enumerate(result.alpha_texts(strip_zeros=False), 1):
            print(f"{k},{a},0.0")
    else:
        print(state_note)
        for k, a in enumerate(result.alpha_texts(strip_zeros=False), 1):
            print(f"  alpha_{k} = {a}")
        print("derivative polynomials (coefficient * lam^degree):")
        for row in payload["derivatives"]:
            k = row["order"]
            for name in ("a", "b", "c"):
                print(f"  {name}^({k}) = {_poly_text(row[name])}")
            print(f"  r^({k}) = {row['r']}")
    _write_artifact(args, payload)
    return 0


def _poly_text(terms) -> str:
    if not terms:
        return "0"
    return " + ".join(f"({item['re']})*lam^{item['deg']}" for item in terms)


def _write_artifact(args, payload) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(json.dumps(payload, indent=2))
        print(f"wrote {args.output}", file=sys.stderr)


# ---------------------------------------------------------------------------
# omega
# ---------------------------------------------------------------------------

def _cmd_omega(args) -> int:
    cfg = _cfg(args)
    try:
        word = parse_word(args.word)
        omega.parse_phi(args.phi, cfg)
    except ValueError as exc:
        return _usage_error(exc)
    if not word:
        _print_complex(_complex_texts(1, cfg), args.format, "omega()")
        return 0
    value = omega.entry_value(omega.word_entry(args.endpoint, args.phi, word, cfg), cfg)
    label = f"omega({format_word(word)})@{args.endpoint},phi={args.phi}"
    _print_complex(_complex_texts(value, cfg), args.format, label)
    return 0


# ---------------------------------------------------------------------------
# mpl
# ---------------------------------------------------------------------------

def _parse_mpl_arg(token: str, ctx):
    """One polylogarithm argument: 1, -1, i, -i, u:p/q (e^{i pi p/q}), or a
    complex literal such as 0.5 or 0.3+0.2j."""
    t = token.strip()
    low = t.lower()
    if low in ("1", "+1"):
        return ctx.mpc(1)
    if low == "-1":
        return ctx.mpc(-1)
    if low in ("i", "+i", "j", "1j"):
        return ctx.mpc(0, 1)
    if low in ("-i", "-j", "-1j"):
        return ctx.mpc(0, -1)
    if low.startswith("u:"):
        num, _, den = low[2:].partition("/")
        n, d = omega.parse_ratio(num, den, f"polylogarithm argument {token!r}", "u:n/d")
        return ctx.expjpi(ctx.mpf(n) / d)
    try:
        if low.endswith("j"):
            body = t[:-1]
            for pos in range(len(body) - 1, 0, -1):
                if body[pos] in "+-" and body[pos - 1].lower() not in "e+-":
                    re_part, im_part = body[:pos], body[pos:]
                    break
            else:
                re_part, im_part = "0", body
            if im_part in ("", "+", "-"):
                im_part += "1"
            return ctx.mpc(ctx.mpf(re_part), ctx.mpf(im_part))
        return ctx.mpc(ctx.mpf(t))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse polylogarithm argument {token!r}")


def _cmd_mpl(args) -> int:
    from . import mpl
    cfg = _cfg(args)
    ctx = cfg.context
    try:
        indices = [int(tok) for tok in args.indices.split(",") if tok.strip()]
    except ValueError:
        return _usage_error(f"malformed index list {args.indices!r}")
    if not indices:
        return _usage_error(f"empty index list {args.indices!r}: a polylogarithm "
                            "has at least one index")
    tokens = [tok for tok in args.args.split(",") if tok.strip()]
    if len(tokens) != len(indices):
        return _usage_error("indices and args must have the same depth")
    try:
        zs = [_parse_mpl_arg(tok, ctx) for tok in tokens]
        value = mpl.li(mpl.mpl_spec(indices, zs, cfg), cfg)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        return _usage_error(exc)
    label = f"Li_{{{args.indices}}}({args.args})"
    value = ctx.mpc(value)
    _print_complex((_held_text(value.real, cfg), _held_text(value.imag, cfg)), args.format,
                   label)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    from . import verify
    cfg = _cfg(args)
    names = args.suite or list(SUITE_NAMES)
    reports = verify.run_suites(names, cfg, seed=args.seed, stretch=args.stretch)
    if args.format == "json":
        print(verify.reports_to_json(reports))
    else:
        for rep in reports:
            print(rep.render())
    return 0 if all(rep.passed for rep in reports) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``, else a usage error."""
    def integer(text: str) -> int:
        if int(text) < low:     # a ValueError is argparse's "invalid integer value"
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lawsonarea",
        description="Area expansion of Lawson-type minimal surfaces via "
                    "iterated integrals and multiple polylogarithms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, phi_default="pi/4", formats=_FORMATS):
        p.add_argument("--precision", type=_int_at_least(10), default=40,
                       help="target decimal digits, at least 10 (default 40)")
        p.add_argument("--format", choices=formats, default="table")
        if phi_default is not None:
            p.add_argument("--phi", default=phi_default,
                           help="opening angle: 'pi/4', 'pi/6' or a decimal "
                                f"string (default {phi_default})")

    p = sub.add_parser("expand", help="compute the area/Willmore series")
    common(p)
    p.add_argument("--order", type=_int_at_least(1), required=True, help="expansion order N >= 1")
    p.add_argument("--output", default=None, help="write a JSON artifact here")
    p.add_argument("--cache-dir", default=None,
                   help="keep the signed table in this directory and reuse it "
                        "(default: build it in process, write nothing)")
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("omega", help="evaluate one word integral")
    common(p)
    p.add_argument("--word", required=True,
                   help="comma-separated letters over {1,2,3}; '' for the empty word")
    p.add_argument("--endpoint", choices=("1", "i"), default="1")
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("mpl", help="evaluate one multiple polylogarithm")
    common(p, phi_default=None)
    p.add_argument("--indices", required=True, help="e.g. 1,1")
    p.add_argument("--args", required=True,
                   help="comma-separated arguments: 1, -1, i, -i, u:3/4 "
                        "(meaning e^{i pi 3/4}) or complex literals")
    p.set_defaults(func=_cmd_mpl)

    p = sub.add_parser("verify", help="run identity suites")
    common(p, phi_default=None, formats=("table", "json"))
    p.set_defaults(precision=45)
    p.add_argument("--suite", action="append", choices=SUITE_NAMES,
                   help="suite to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for sampled checks (default 0)")
    p.add_argument("--stretch", action="store_true",
                   help="include the order-7 conjecture comparison")
    p.set_defaults(func=_cmd_verify)
    return parser


def _join_dash_values(argv):
    """Merge '--args -1,i' into '--args=-1,i' so leading dashes survive."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--args", "--word", "--indices", "--phi") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_dash_values(list(argv)))
    try:
        return args.func(args)
    except (ValueError, KeyError, engine.EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
