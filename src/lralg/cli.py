"""Command line front end.

Subcommands:

    check        validate an LR-structure given as an algebra file
    series       print characteristic series dimensions of a Lie algebra
    catalog      list, verify, or dump the built-in structure families
    construct    build named algebras and products, print as algebra files
    constraints  emit the polynomial system for products on a Lie algebra
    solve        certify a polynomial system file
    iso          compare two LR-structures up to isomorphism

Exit codes: 0 on success, 1 when a mathematical check fails (axiom
violations, verification failures, impossible constructions), 2 on
usage, parse, or input errors.  Every subcommand accepts --json for
machine-readable output on stdout.  No network access, no environment
variables; all state comes from the command line and input files.
"""

import argparse
import json
import sys
from fractions import Fraction

from .catalog import (
    ParamOutOfDomain,
    UnknownName,
    catalog_entry,
    catalog_get,
    catalog_list,
    catalog_verify,
)
from .constructions import (
    FiliformSpec,
    NotTwoStepNilpotent,
    SpecViolation,
    filiform_lr,
    free3_dimension,
    free3_lr,
    free4_two_gen_lr,
    halved_adjoint_lr,
)
from .constraints import (
    buchberger_certify,
    generate_lr_system,
    structural_reduce,
    iso_search,
)
from .extensions import (
    ExtensionError,
    HypothesisFailed,
    extension_lie_algebra,
    invertible_generator_lift,
    LiftConditionsFailed,
)
from .fileformat import (
    MAX_SYSTEM_DIM,
    MissingSection,
    ParseError,
    format_algebra,
    format_system,
    parse_algebra_file,
    parse_extension_file,
    parse_system_file,
)
from .lie import (
    LieError,
    derived_series,
    is_two_step_solvable,
    lower_central_series,
    upper_central_series,
)
from .lr import LRError, lemma_suite, verify_axioms


class _Failure(Exception):
    """Mathematical failure: report and exit 1."""


def _emit_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2, default=str))


def _violations_payload(report):
    return [
        {
            "check": v.check,
            "where": list(v.where),
            "residual": [str(c) for c in v.residual],
        }
        for v in report.violations
    ]


def _counts_line(counts) -> str:
    return ", ".join(f"{k} {counts[k]}" for k in sorted(counts))


def _cmd_check(args) -> int:
    f = parse_algebra_file(args.file)
    try:
        a = f.to_lr(validate=False)
    except LieError as exc:
        if args.json:
            _emit_json({"name": f.name, "ok": False, "error": str(exc)})
        else:
            print(f"invalid Lie algebra: {exc}")
        return 1
    report = verify_axioms(a)
    lemmas = None
    if report.ok and args.lemmas:
        lemmas = lemma_suite(a)
    ok = report.ok and (lemmas is None or lemmas.ok)
    if args.json:
        payload = {
            "name": f.name,
            "dim": a.dim,
            "ok": ok,
            "complete": a.complete,
            "axioms": {
                "ok": report.ok,
                "counts": report.counts,
                "violations": _violations_payload(report),
            },
        }
        if lemmas is not None:
            payload["lemmas"] = {
                "ok": lemmas.ok,
                "counts": lemmas.counts,
                "violations": _violations_payload(lemmas),
            }
        _emit_json(payload)
        return 0 if ok else 1
    print(f"algebra {f.name}: dim {a.dim}")
    if report.ok:
        print(f"axioms: ok ({_counts_line(report.counts)})")
    else:
        print(f"axioms: {len(report.violations)} violation(s)")
        for v in report.violations[:10]:
            where = ", ".join(str(w + 1) if isinstance(w, int) else str(w) for w in v.where)
            print(f"  {v.check} at ({where})")
        if len(report.violations) > 10:
            print(f"  ... and {len(report.violations) - 10} more")
    if lemmas is not None:
        if lemmas.ok:
            print(f"lemmas: ok ({_counts_line(lemmas.counts)})")
        else:
            print(f"lemmas: {len(lemmas.violations)} violation(s)")
            for v in lemmas.violations[:10]:
                print(f"  {v.check} at {v.where}")
    print(f"complete: {'yes' if a.complete else 'no'}")
    return 0 if ok else 1


def _cmd_series(args) -> int:
    f = parse_algebra_file(args.file)
    g = f.to_lie()
    gamma = lower_central_series(g).dims()
    der = derived_series(g).dims()
    upper = upper_central_series(g).dims()
    two = is_two_step_solvable(g)
    if args.json:
        _emit_json(
            {
                "name": f.name,
                "dim": g.dim,
                "gamma": list(gamma),
                "derived": list(der),
                "upper": list(upper),
                "two_step_solvable": two,
            }
        )
        return 0
    print(
        "gamma: {}; derived: {}; upper: {}; two-step solvable: {}".format(
            " ".join(map(str, gamma)),
            " ".join(map(str, der)),
            " ".join(map(str, upper)),
            "yes" if two else "no",
        )
    )
    return 0


def _cmd_catalog(args) -> int:
    if args.action == "list":
        if args.json:
            _emit_json(
                {
                    "families": [
                        {
                            "key": key,
                            "complete": catalog_entry(key).complete,
                            "params": [
                                {"name": p.name, "domain": p.domain}
                                for p in catalog_entry(key).params
                            ],
                        }
                        for key in catalog_list()
                    ],
                    "counterexamples": ["g13"],
                }
            )
            return 0
        for key in catalog_list():
            e = catalog_entry(key)
            params = ", ".join(f"{p.name}: {p.domain}" for p in e.params)
            suffix = f" ({params})" if params else ""
            marker = "complete" if e.complete else "incomplete"
            print(f"{key}{suffix} [{marker}]")
        print("g13 [admits no LR-structure]")
        return 0
    if args.action == "verify":
        keys = args.keys or None
        results = catalog_verify(keys)
        ok = all(r["ok"] for r in results.values())
        if args.json:
            _emit_json(
                {
                    "ok": ok,
                    "results": {
                        k: {"instances": r["instances"], "ok": r["ok"]}
                        for k, r in results.items()
                    },
                }
            )
            return 0 if ok else 1
        for k, r in results.items():
            status = "ok" if r["ok"] else "FAILED"
            print(f"{k}: {r['instances']} instance(s) {status}")
            for params, reason in r["failures"]:
                print(f"  at {params}: {reason}")
        return 0 if ok else 1
    # dump
    params = {}
    for spec in args.param or []:
        if "=" not in spec:
            raise _Failure(f"--param needs name=value, got {spec!r}")
        name, _, value = spec.partition("=")
        key = name.strip()
        if key in params:
            raise _Failure(f"--param {key} given more than once")
        try:
            params[key] = Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            raise _Failure(f"bad rational for parameter {name!r}: {value!r}")
    if args.key == "g13":
        from .catalog import counterexample_g13

        if params:
            extra = ", ".join(sorted(params))
            raise ParamOutOfDomain(f"g13: unexpected parameter(s) {extra}")
        text = format_algebra("g13", counterexample_g13())
        if args.json:
            _emit_json({"key": "g13", "complete": None, "text": text})
        else:
            print(text, end="")
        return 0
    a = catalog_get(args.key, params)
    name = args.key.replace("/", "_")
    text = format_algebra(name, a.g, a)
    if args.json:
        _emit_json({"key": args.key, "complete": a.complete, "text": text})
    else:
        print(text, end="")
    return 0


def _parse_rational_list(spec: str) -> list[Fraction]:
    if not spec.strip():
        return []
    out = []
    for piece in spec.split(","):
        try:
            out.append(Fraction(piece.strip()))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {piece.strip()!r}") from None
    return out


def _check_dim(dim: int) -> None:
    """Refuse, before building, an algebra that no reader would accept."""
    if dim > MAX_SYSTEM_DIM:
        raise ValueError(f"dimension {dim} is above the cap of {MAX_SYSTEM_DIM}")


def _cmd_construct(args) -> int:
    if args.what == "filiform":
        n = args.n
        _check_dim(n)
        free = _parse_rational_list(args.coeffs or "")
        spec = FiliformSpec.from_free_row(n, free)
        a = filiform_lr(spec)
        name = f"filiform{n}"
    elif args.what == "halfad":
        f = parse_algebra_file(args.file)
        g = f.to_lie()
        a = halved_adjoint_lr(g)
        name = f"{f.name}_halfad"
    elif args.what == "free3":
        _check_dim(free3_dimension(args.n))
        a = free3_lr(args.n)
        name = f"free_two_solvable_{args.n}gen"
    elif args.what == "free4-2gen":
        a = free4_two_gen_lr()
        name = "free_nilpotent_4step_2gen"
    else:  # extension
        ext_name, data = parse_extension_file(args.file)
        _check_dim(data.a_dim + data.b.dim)
        if args.lift:
            e = tuple(_parse_rational_list(args.lift))
            if len(e) != data.b.dim:
                raise _Failure(
                    f"--lift needs {data.b.dim} coordinates, got {len(e)}"
                )
            a = invertible_generator_lift(data, e)
            name = f"{ext_name}_lift"
        else:
            g = extension_lie_algebra(data)
            text = format_algebra(ext_name, g)
            if args.json:
                _emit_json({"name": ext_name, "dim": g.dim, "text": text})
            else:
                print(text, end="")
            return 0
    text = format_algebra(name, a.g, a)
    if args.json:
        _emit_json(
            {"name": name, "dim": a.dim, "complete": a.complete, "text": text}
        )
    else:
        print(text, end="")
    return 0


def _cmd_constraints(args) -> int:
    f = parse_algebra_file(args.file)
    g = f.to_lie()
    system = generate_lr_system(g)
    header = [
        f"# product constraints for {f.name}",
        f"# {system.nvars} variables, {len(system.polys)} generated constraints",
    ]
    payload = {
        "name": f.name,
        "dim": g.dim,
        "variables": system.nvars,
        "generated": len(system.polys),
    }
    polys = system.polys
    if args.reduce:
        red = structural_reduce(system)
        header.append(
            "# reduced: {} variables eliminated, {} residual constraints".format(
                red.eliminated_count, len(red.residual)
            )
        )
        if red.contradiction:
            header.append("# linear layer is contradictory")
        payload["eliminated"] = red.eliminated_count
        payload["contradiction"] = red.contradiction
        polys = red.residual
    # the header and the body are written one after the other, and the
    # body's lines listed only for --json, so the raw g13 body (19 MB)
    # is held once
    head, body = "\n".join(header) + "\n", format_system(g.dim, polys)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(head)
            fh.write(body)
    elif not args.json:
        print(head, body, sep="", end="")
    if args.json:
        payload["polys"] = body.splitlines()[1:]
        _emit_json(payload)
    elif args.output:
        print(f"wrote {args.output}")
    return 0


def _cmd_solve(args) -> int:
    sf = parse_system_file(args.file)
    cert = buchberger_certify(
        sf.polys,
        max_basis_size=args.max_basis,
        max_degree=args.max_degree,
        time_budget=args.time_budget,
    )
    if args.json:
        _emit_json(
            {
                "status": cert.status,
                "basis_size": len(cert.groebner.basis),
                "pairs_processed": cert.groebner.stats.get("pairs_processed", 0),
                "trace_length": len(cert.trace),
            }
        )
        return 0
    print(cert.status)
    if cert.status == "inconsistent":
        print(f"certificate: {len(cert.trace)} recorded step(s) ending in a nonzero constant")
    return 0


def _cmd_iso(args) -> int:
    a1 = parse_algebra_file(args.file1).to_lr()
    a2 = parse_algebra_file(args.file2).to_lr()
    res = iso_search(a1, a2)
    if args.json:
        _emit_json(
            {
                "status": res.status,
                "invariant": res.invariant,
                "detail": res.detail,
                "transform": [
                    [str(c) for c in row] for row in res.transform.entries
                ]
                if res.transform is not None
                else None,
            }
        )
        return 0
    if res.status == "found":
        print("found")
        for row in res.transform.entries:
            print("  [" + ", ".join(str(c) for c in row) + "]")
    elif res.status == "distinguished":
        print(f"distinguished: {res.invariant}")
        if res.detail:
            print(f"  {res.detail}")
    else:
        print(f"undecided: {res.detail}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lralg",
        description="Exact tools for LR-structures on Lie algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine readable output")

    p = sub.add_parser("check", help="validate an LR-structure file")
    p.add_argument("file")
    p.add_argument("--lemmas", action="store_true", help="also run the identity suite")
    add_json(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("series", help="characteristic series of a Lie algebra")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("catalog", help="built-in structure families")
    cat = p.add_subparsers(dest="action", required=True)
    pl = cat.add_parser("list", help="list family keys")
    add_json(pl)
    pl.set_defaults(func=_cmd_catalog, action="list")
    pv = cat.add_parser("verify", help="verify families at sample parameters")
    pv.add_argument("keys", nargs="*", help="family keys, default all")
    add_json(pv)
    pv.set_defaults(func=_cmd_catalog, action="verify")
    pd = cat.add_parser("dump", help="print one family instance as an algebra file")
    pd.add_argument("key")
    pd.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE",
        help="parameter value, repeatable",
    )
    add_json(pd)
    pd.set_defaults(func=_cmd_catalog, action="dump")

    p = sub.add_parser("construct", help="build named algebras and products")
    con = p.add_subparsers(dest="what", required=True)
    pf = con.add_parser("filiform", help="filiform algebra with its product")
    pf.add_argument("n", type=int)
    pf.add_argument(
        "--coeffs",
        help="comma separated free coefficients of the defining row",
    )
    add_json(pf)
    pf.set_defaults(func=_cmd_construct, what="filiform")
    ph = con.add_parser("halfad", help="half-bracket product on a file algebra")
    ph.add_argument("file")
    add_json(ph)
    ph.set_defaults(func=_cmd_construct, what="halfad")
    p3 = con.add_parser("free3", help="free two-step solvable LR-algebra")
    p3.add_argument("n", type=int, help="number of generators")
    add_json(p3)
    p3.set_defaults(func=_cmd_construct, what="free3")
    p4 = con.add_parser("free4-2gen", help="free three-step example on two generators")
    add_json(p4)
    p4.set_defaults(func=_cmd_construct, what="free4-2gen")
    pe = con.add_parser("extension", help="extension algebra from a datum file")
    pe.add_argument("file")
    pe.add_argument(
        "--lift",
        metavar="COORDS",
        help="lift the product through a generator with these base coordinates",
    )
    add_json(pe)
    pe.set_defaults(func=_cmd_construct, what="extension")

    p = sub.add_parser("constraints", help="emit the product constraint system")
    p.add_argument("file")
    p.add_argument("--reduce", action="store_true", help="apply structural reduction")
    p.add_argument("-o", "--output", help="write to a file instead of stdout")
    add_json(p)
    p.set_defaults(func=_cmd_constraints)

    p = sub.add_parser("solve", help="certify a polynomial system file")
    p.add_argument("file")
    p.add_argument("--time-budget", type=float, default=600.0)
    p.add_argument("--max-basis", type=int, default=2000)
    p.add_argument("--max-degree", type=int, default=None)
    add_json(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("iso", help="compare two LR-structure files")
    p.add_argument("file1")
    p.add_argument("file2")
    add_json(p)
    p.set_defaults(func=_cmd_iso)

    return parser


_MATH_ERRORS = (
    UnknownName,
    ParamOutOfDomain,
    MissingSection,
    LieError,
    LRError,
    SpecViolation,
    NotTwoStepNilpotent,
    ExtensionError,
    HypothesisFailed,
    LiftConditionsFailed,
    _Failure,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"{getattr(args, 'file', '<input>')}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except _MATH_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
