"""Command-line front end: genus, class tables, counts, verification suites."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional, Sequence

from .core import (
    DEFAULT_MAX_ELEMENTS,
    FeasibilityError,
    PreconditionError,
    decoder,
    format_mat,
    identity,
    make_ctx,
    mat_pow,
    neg,
    num_to_json,
    sigma,
    tau,
    upper_u,
)
from .groups import (
    ConjClassRef,
    conj_class_size_formula,
    enumerate_group,
    partition_into_classes,
    u_power_ref,
)
from .subgroups import parse_subgroup_spec
from .genus import count_in_subgroup, genus_report
from .sequences import BOUND_KINDS, bound_sequence

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: the reader of stdout went away, as a shell reports it


class UsageError(Exception):
    """An argument or spec on the command line that does not parse."""


def _parsed(fn, *args, **kwargs):
    """fn(*args, **kwargs), for a function that reads command-line input: a
    ValueError or KeyError it raises is a usage error, and so is a
    RecursionError (a subgroup spec nested too deeply).  The same exceptions
    raised later, inside a computation, are internal errors."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, KeyError, RecursionError) as e:
        raise UsageError(e) from e


def _parse_class(text: str, ctx) -> ConjClassRef:
    if text == "sigma":
        return ConjClassRef(ctx, "sigma")
    if text == "tau":
        return ConjClassRef(ctx, "tau")
    if text.startswith("u^p^"):
        return u_power_ref(ctx, int(text[4:]))
    if text == "u":
        return u_power_ref(ctx, 0)
    raise ValueError("unknown class %r (use sigma, tau, u, u^p^r)" % text)


def _emit(args, payload: dict, text_lines: List[str]) -> None:
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _subgroup(args):
    return _parsed(parse_subgroup_spec, args.subgroup, args.p, args.n, seed=args.seed, cap=args.max_elements)


def _cmd_genus(args) -> int:
    h = _subgroup(args)
    rep = genus_report(h)
    payload = rep.to_json_dict()
    payload["subgroup"] = args.subgroup
    payload["order"] = num_to_json(h.order)
    lines = [
        "subgroup %s in SL2(Z/%d^%dZ): order %d, index %d" % (args.subgroup, args.p, args.n, h.order, rep.index),
        "  #H n Conj(sigma) = %d, #H n Conj(tau) = %d" % (rep.count_sigma, rep.count_tau),
        "  fix_sigma = %d, fix_tau = %d, cusp ratio = %s" % (rep.fix_sigma, rep.fix_tau, rep.cusp_ratio),
        "  delta = %s" % (rep.delta,),
    ]
    if rep.genus is None:
        lines.append("  genus: undefined (-1 not in H); delta reported above")
    else:
        lines.append("  genus = %d" % rep.genus)
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_class_table(args) -> int:
    ctx = _parsed(make_ctx, args.p, args.n)
    g = enumerate_group(ctx, args.max_elements)
    classes = partition_into_classes(g)
    exps = [ctx.p**r for r in range(ctx.n)] + [2]
    powers = [("u" if e == 1 else "u^%d" % e, mat_pow(upper_u(ctx), e, ctx)) for e in exps]
    named = {}  # the first name of x wins: modulo 2, x = -x, and u^2 is u^(p^r) at p = 2
    for name, x in [("1", identity(ctx)), ("sigma", sigma(ctx)), ("tau", tau(ctx))] + powers:
        named.setdefault(x, name)
        named.setdefault(neg(x, ctx), "-" + name)
    dec = decoder(ctx)
    rows = []
    for cls in classes:
        rep_code = min(cls.codes)
        label = ""
        for m, name in named.items():
            if m in cls:
                label = name
                break
        rows.append((label, format_mat(dec(rep_code)), len(cls)))
    rows.sort(key=lambda r: (-r[2], r[0], r[1]))
    payload = {
        "p": num_to_json(args.p),
        "n": num_to_json(args.n),
        "group_order": num_to_json(ctx.order),
        "classes": [{"label": a, "representative": b, "size": num_to_json(c)} for a, b, c in rows],
    }
    lines = ["SL2(Z/%d^%dZ): %d elements, %d conjugacy classes" % (args.p, args.n, ctx.order, len(rows))]
    for label, rep, size in rows:
        lines.append("  %-8s rep %-16s size %d" % (label or "-", rep, size))
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_count(args) -> int:
    ctx = _parsed(make_ctx, args.p, args.n)
    h = _subgroup(args)
    ref = _parsed(_parse_class, args.cls, ctx)
    cnt, size = count_in_subgroup(h, ref), conj_class_size_formula(ref)
    payload = {
        "subgroup": args.subgroup,
        "class": args.cls,
        "count": num_to_json(cnt),
        "class_size": num_to_json(size),
        "subgroup_order": num_to_json(h.order),
    }
    _emit(args, payload, ["#(H n Conj(%s)) = %d (class size %d, #H = %d)" % (args.cls, cnt, size, h.order)])
    return EXIT_OK


def _cmd_bounds(args) -> int:
    v = bound_sequence(args.kind, args.p, args.n)
    payload = {"kind": args.kind, "p": num_to_json(args.p), "n": num_to_json(args.n), "value": num_to_json(v)}
    _emit(args, payload, ["%s(p=%d, n=%d) = %d" % (args.kind, args.p, args.n, v)])
    return EXIT_OK


def _cmd_verify(args) -> int:
    from . import bounds, suites

    t0 = time.monotonic()
    if args.suite in ("section7", "main-theorem-desk"):
        if args.suite == "section7":
            if args.case:
                _parsed(bounds.section7_case, args.case)
            cases = [bounds.verify_section7(args.case)] if args.case else bounds.section7_all()
            ok = suites.section7_ok(cases)
            lines = [
                "%-10s %-22s printed %s recomputed %s%s"
                % (
                    r.case_id,
                    r.verdict,
                    r.printed_value,
                    r.recomputed_value,
                    ("  [%s]" % r.notes) if r.verdict != "match" else "",
                )
                for r in cases
            ]
        else:
            parts = [_parsed(int, args.case)] if args.case else suites.DESK_DEFAULT_PARTS
            cases = suites.desk_results(parts, args.seed)
            ok = suites.desk_ok(cases)
            lines = [
                "part %d %-28s %-8s checked %-5d min delta %s  %s"
                % (r.part, r.label, r.status, r.checked, r.min_delta, r.notes)
                for r in cases
            ]
        payload = {"suite": args.suite, "ok": ok, "cases": [r.to_json_dict() for r in cases]}
        lines.append("%s: %s" % (args.suite, "PASS" if ok else "FAIL"))
        _emit(args, payload, lines)
        return EXIT_OK if ok else EXIT_VERIFY_FAIL
    if args.suite != "all" and args.suite not in suites.SUITES:
        print("unknown suite %r; available: %s" % (args.suite, ", ".join(suites.suite_names())), file=sys.stderr)
        return EXIT_USAGE
    if args.case is not None:
        raise UsageError("--case selects a case of the section7 or main-theorem-desk suite only")
    names = suites.suite_names() if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        okay, detail = suites.SUITES[name](seed=args.seed)
        results.append((name, okay, detail))
    ok = all(r[1] for r in results)
    payload = {
        "suite": args.suite,
        "ok": ok,
        "results": [{"name": n, "ok": o, "detail": d} for n, o, d in results],
        "seed": num_to_json(args.seed),
    }
    lines = ["%-20s %s%s" % (n, "pass" if o else "FAIL", (" (%s)" % d) if d else "") for n, o, d in results]
    lines.append("%s: %s (%.1fs)" % (args.suite, "PASS" if ok else "FAIL", time.monotonic() - t0))
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def _cap(text: str) -> int:
    """--max-elements, or its SL2_MAX_ELEMENTS default (argparse parses both): a positive integer."""
    if not text.strip().isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError("needs a positive integer (the flag or SL2_MAX_ELEMENTS), got %r" % text)
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sl2genus",
        description="Genus and slim-subgroup bound computations for subgroups of SL2(Z/p^nZ).",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(sp, needs_pn=True, seed=False, cap=False):
        """The shared flags, each only on the subcommands that read it."""
        if needs_pn:
            sp.add_argument("--p", type=int, required=True, help="prime p")
            sp.add_argument("--n", type=int, default=1, help="level exponent n >= 1")
        sp.add_argument("--output", choices=("text", "json"), default="text")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if cap:
            sp.add_argument(
                "--max-elements",
                type=_cap,
                default=os.environ.get("SL2_MAX_ELEMENTS", DEFAULT_MAX_ELEMENTS),
                help="materialization cap (env SL2_MAX_ELEMENTS)",
            )

    sp = sub.add_parser("genus", help="genus report for a subgroup")
    common(sp, seed=True, cap=True)
    sp.add_argument("--subgroup", required=True, help="B|C|D|E:A4|F|A1|full|gens:...|preimage:S@m")
    sp.set_defaults(func=_cmd_genus)

    sp = sub.add_parser("class-table", help="conjugacy classes of SL2(Z/p^nZ)")
    common(sp, cap=True)
    sp.set_defaults(func=_cmd_class_table)

    sp = sub.add_parser("count", help="#(H n Conj(alpha))")
    common(sp, seed=True, cap=True)
    sp.add_argument("--subgroup", required=True)
    sp.add_argument("--class", dest="cls", required=True, help="sigma|tau|u|u^p^r")
    sp.set_defaults(func=_cmd_count)

    sp = sub.add_parser("bounds", help="closed-form bound sequences")
    common(sp)
    sp.add_argument("--kind", choices=BOUND_KINDS, required=True)
    sp.set_defaults(func=_cmd_bounds)

    sp = sub.add_parser("verify", help="verification suites")
    common(sp, needs_pn=False, seed=True)
    sp.add_argument("--suite", required=True, help="suite name or 'all'")
    sp.add_argument("--case", help="single case id (section7) or part number (main-theorem-desk)")
    sp.set_defaults(func=_cmd_verify)
    return ap


def run(argv: Optional[Sequence[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # the bounds are exact integers of any length; print them whole
        sys.set_int_max_str_digits(0)
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe may only show at the last write
        return code
    except BrokenPipeError:  # e.g. | head: stop quietly, and give shutdown a stdout it can flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (UsageError, FeasibilityError, PreconditionError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # a bug, not the input: ConsistencyError and anything unmapped
        print("internal error: %s" % e, file=sys.stderr)
        sys.__excepthook__(type(e), e, e.__traceback__)  # the traceback, on stderr, to find the bug by
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
