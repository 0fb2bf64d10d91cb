"""Command-line front end.

One invocation, one computation, deterministic output.  Exit codes: 0 ok,
2 usage error (argparse), 3 domain precondition violation, 4 desk-scale
guard exceeded, 5 a result failed its certificate (a defect in the program,
reported with or without python -O).  With --format json every result (or
error) is a single machine-readable JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import DomainError, GuardError, VerificationError
from .gf import element_str, parse_element, parse_field, split_list

if TYPE_CHECKING:
    from .linalg import Matrix
    from .skewpoly import OreRing

# Each command imports the modules it needs when it runs, so a process loads
# only its own subcommand's part of the package; the names are looked up at
# call time, so a replaced module attribute is seen.

# the typed errors' exit codes; argparse exits 2 on a usage error
EXIT_CODES = {DomainError: 3, ZeroDivisionError: 3, GuardError: 4, VerificationError: 5}


def _ring(args) -> OreRing:
    from .skewpoly import OreRing

    field = parse_field(args.field)
    w = parse_element(field, args.delta_w) if getattr(args, "delta_w", None) else None
    return OreRing(field, args.sigma, w)


def _matrix_payload(m: Matrix):
    return [[element_str(v) for v in row] for row in m.rows]


def _poly_payload(g):
    """Text plus the JSON form: coefficient strings, low degree first."""
    from .skewpoly import poly_str

    return {"text": poly_str(g), "coeffs": [element_str(c) for c in g.coeffs]}


def _emit(args, payload: dict, text_lines):
    if args.format == "json":
        print(json.dumps({"result": payload}, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
    return 0


def _add_common(p, with_ring=True):
    p.add_argument("--format", choices=["text", "json"], default="text")
    if with_ring:
        p.add_argument("--field", required=True, help="field literal, e.g. GF(4)")
        p.add_argument("--sigma", type=int, default=0, help="sigma = phi^l (Frobenius power)")
        p.add_argument("--delta-w", dest="delta_w", default=None, help="inner element w of delta")


# -- field ---------------------------------------------------------------------

def cmd_field_info(args):
    field = parse_field(args.literal)
    payload = {
        "q": field.q,
        "k": field.k,
        "size": field.size,
        "modulus": list(field.modulus),
        "generator": element_str(field.gen),
        "elements": [element_str(z) for z in field.elements()],
    }
    lines = [
        f"GF({field.size}) = GF({field.q}^{field.k})",
        f"modulus coefficients (low first): {field.modulus}",
        f"elements: {{{', '.join(payload['elements'])}}}",
    ]
    return _emit(args, payload, lines)


# -- poly -----------------------------------------------------------------------

def cmd_poly(args):
    from .skewpoly import (bound_polynomial, factor_irreducible, gcrd_bezout, lclm, operator_eval, poly_str,
                           right_eval, similarity_test, two_sided_test)

    ring = _ring(args)
    P = ring.parse
    op = args.op
    if op == "mul":
        out = P(args.a) * P(args.b)
        return _emit(args, {"product": _poly_payload(out)}, [poly_str(out)])
    if op == "divmod":
        g, d = P(args.a), P(args.b)
        q, r = g.right_divmod(d) if args.side == "right" else g.left_divmod(d)
        payload = {"quotient": _poly_payload(q), "remainder": _poly_payload(r)}
        return _emit(args, payload, [f"q = {poly_str(q)}", f"r = {poly_str(r)}"])
    if op == "gcrd":
        d, u, v = gcrd_bezout(P(args.a), P(args.b))
        payload = {"gcrd": _poly_payload(d), "u": _poly_payload(u), "v": _poly_payload(v)}
        return _emit(args, payload, [f"gcrd = {poly_str(d)}", f"u = {poly_str(u)}", f"v = {poly_str(v)}"])
    if op == "lclm":
        m = lclm(P(args.a), P(args.b))
        return _emit(args, {"lclm": _poly_payload(m)}, [poly_str(m)])
    if op == "eval":
        g = P(args.g)
        z = parse_element(ring.field, args.at)
        val = right_eval(g, z) if args.mode == "right" else operator_eval(g, z)
        return _emit(args, {"value": element_str(val)}, [element_str(val)])
    if op == "factor":
        factors = factor_irreducible(P(args.g))
        payload = {"factors": [_poly_payload(f) for f in factors]}
        return _emit(args, payload, [" * ".join(f"({poly_str(f)})" for f in factors)])
    if op == "bound":
        fstar = bound_polynomial(P(args.g))
        return _emit(args, {"bound": _poly_payload(fstar)}, [poly_str(fstar)])
    if op == "twosided":
        res = two_sided_test(P(args.g))
        payload = {"two_sided": res.is_two_sided}
        lines = [f"two-sided: {res.is_two_sided}"]
        if res.is_two_sided:
            payload.update(c=element_str(res.c), t=res.t, h=poly_str(res.h))
            lines.append(f"g = c * x^t * h with c = {element_str(res.c)}, t = {res.t}, h = {poly_str(res.h)}")
        return _emit(args, payload, lines)
    if op == "similar":
        ok, B = similarity_test(P(args.g), P(args.h))
        payload = {"similar": ok}
        lines = [f"similar: {ok}"]
        if ok:
            payload["B"] = _matrix_payload(B)
            lines.extend(" ".join(r) for r in _matrix_payload(B))
        return _emit(args, payload, lines)
    raise DomainError(f"unknown poly op {op!r}")  # pragma: no cover


# -- algset ---------------------------------------------------------------------

def cmd_algset(args):
    from . import algset
    from .skewpoly import poly_str

    ring = _ring(args)
    if args.op == "vanish":
        pts = algset.vanishing_set(ring.parse(args.g))
        s = algset.points_str(pts)
        return _emit(args, {"vanishing_set": s.split(",") if s else []}, [f"{{{s}}}"])
    if args.op == "minpoly":
        pts = algset.parse_points(ring.field, args.points)
        m = algset.minimal_polynomial(ring, pts)
        return _emit(args, {"minimal_polynomial": poly_str(m)}, [poly_str(m)])
    if args.op == "rank":
        pts = algset.parse_points(ring.field, args.points)
        r = algset.rank_of_set(ring, pts)
        return _emit(args, {"rank": r}, [str(r)])
    if args.op == "wpoly":
        ok = algset.is_w_polynomial(ring.parse(args.g))
        return _emit(args, {"w_polynomial": ok}, [str(ok)])
    raise DomainError(f"unknown algset op {args.op!r}")  # pragma: no cover


# -- codes ----------------------------------------------------------------------

def cmd_codes(args):
    from . import codes
    from .skewpoly import poly_str

    ring = _ring(args)
    P = ring.parse
    if args.op == "build":
        f, g = P(args.modulus), P(args.divisor)
        code = codes.SkewCyclicCode(ring, f, g)
        lin = code.to_linear()
        want = [w.strip() for w in args.emit.split(",")]
        payload, lines = {"n": code.n, "dim": code.dim}, [f"n = {code.n}, dim = {code.dim}"]
        if "G" in want:
            payload["G"] = _matrix_payload(lin.G)
            lines.append("G:")
            lines.extend("  " + " ".join(r) for r in payload["G"])
        if "H" in want:
            payload["H"] = _matrix_payload(lin.parity_check())
            lines.append("H:")
            lines.extend("  " + " ".join(r) for r in payload["H"])
        if "dual" in want:
            dual = codes.dual_skew_cyclic(code)
            payload["dual_divisor"] = poly_str(dual.g)
            lines.append(f"dual divisor: {poly_str(dual.g)}")
        return _emit(args, payload, lines)
    if args.op == "rightmult":
        M = codes.right_mult_matrix(ring, P(args.g), args.n)
        payload = {"M": _matrix_payload(M)}
        return _emit(args, payload, [" ".join(r) for r in payload["M"]])
    if args.op == "theta":
        t = codes.theta(ring, P(args.g), args.n)
        return _emit(args, {"theta": poly_str(t)}, [poly_str(t)])
    if args.op == "idempotent":
        g = codes.idempotent_to_generator(ring, P(args.e), args.n)
        return _emit(args, {"generator": poly_str(g)}, [poly_str(g)])
    if args.op == "bezout":
        e = codes.bezout_idempotent(ring, P(args.g), P(args.h), args.n)
        return _emit(args, {"idempotent": poly_str(e)}, [poly_str(e)])
    raise DomainError(f"unknown codes op {args.op!r}")  # pragma: no cover


# -- evalcodes --------------------------------------------------------------------

def _support(ring, text):
    return tuple(parse_element(ring.field, t) for t in split_list(text))


def cmd_evalcodes(args):
    from . import evalcodes

    ring = _ring(args)
    Z = _support(ring, args.support)
    build = evalcodes.remainder_code if args.code == "remainder" else evalcodes.operator_code
    code = build(ring, Z, args.k)
    if args.op == "build":
        payload = {"n": code.n, "dim": code.dim, "G": _matrix_payload(code.G)}
        return _emit(args, payload, [" ".join(r) for r in payload["G"]])
    if args.op == "distance":
        d = evalcodes.min_distance(code, args.metric, ring)
        return _emit(args, {"distance": d, "metric": args.metric}, [str(d)])
    if args.op == "certify":
        cert = evalcodes.certify(code, args.kind, ring)
        payload = {
            "kind": cert.kind,
            "holds": cert.holds,
            "distance": cert.distance,
            "singleton_bound": cert.bound,
            "cross_checked": cert.cross_checked,
        }
        lines = [
            f"{cert.kind}: {cert.holds} (d = {cert.distance}, bound = {cert.bound},"
            f" cross-checked = {cert.cross_checked})"
        ]
        return _emit(args, payload, lines)
    raise DomainError(f"unknown evalcodes op {args.op!r}")  # pragma: no cover


# -- linearized -------------------------------------------------------------------

def _parse_linearized(field, text):
    """Sums of c*y^(q^i), e.g. y^2 over GF(4) or y^4+y: a polynomial in the
    commutative ring F[y] whose exponents must all be powers of q."""
    from . import linearized
    from .skewpoly import OreRing

    g = OreRing(field).parse(text, var="y")
    powers = [field.q ** i for i in range(max(g.degree, 1).bit_length())]
    bad = [e for e, c in enumerate(g.coeffs) if c and e not in powers]
    if bad:
        literal = "".join(text.split())
        raise DomainError(f"bad linearized literal {literal!r}: exponent {bad[0]} is not a power of q = {field.q}")
    return linearized.LinearizedPoly(field, [g[e] for e in powers])


def cmd_linearized(args):
    from . import linearized
    from .skewpoly import OreRing

    field = parse_field(args.field)
    if args.op == "map":
        ring = OreRing(field, 1)
        g = linearized.to_linearized(ring.parse(args.poly))
        return _emit(args, {"linearized": repr(g)}, [repr(g)])
    if args.op == "moore":
        X = [parse_element(field, t) for t in split_list(args.basis)]
        M = linearized.moore_matrix(field, X)
        payload = {"moore": _matrix_payload(M), "invertible": M.is_invertible()}
        return _emit(args, payload, [" ".join(r) for r in payload["moore"]])
    if args.op == "dickson":
        g = _parse_linearized(field, args.poly)
        D = linearized.dickson_matrix(g)
        payload = {
            "dickson": _matrix_payload(D),
            "conjugation_identity": linearized.dickson_identity_holds(g),
        }
        return _emit(args, payload, [" ".join(r) for r in payload["dickson"]])
    if args.op == "algebra-check":
        report = linearized.matrix_algebra_check(field)
        return _emit(args, report, [f"{k}: {v}" for k, v in sorted(report.items())])
    raise DomainError(f"unknown linearized op {args.op!r}")  # pragma: no cover


# -- spbw -----------------------------------------------------------------------

def _pres(args):
    from . import spbw

    return spbw.load_presentation(args.presentation)


def cmd_spbw(args):
    from . import spbw

    A = _pres(args)
    if args.op == "mul":
        out = A.parse(args.a) * A.parse(args.b)
        return _emit(args, {"product": spbw.pbw_str(out)}, [spbw.pbw_str(out)])
    if args.op == "divide":
        f = A.parse(args.f)
        divisors = [A.parse(t) for t in split_list(args.by)]
        res = spbw.divide(f, divisors)
        payload = {
            "quotients": [spbw.pbw_str(q) for q in res.quotients],
            "remainder": spbw.pbw_str(res.remainder),
        }
        lines = [f"q{i + 1} = {s}" for i, s in enumerate(payload["quotients"])]
        lines.append(f"h = {payload['remainder']}")
        return _emit(args, payload, lines)
    if args.op == "reduce":
        f = A.parse(args.f)
        divisors = [A.parse(t) for t in split_list(args.by)]
        h = spbw.reduce_full(f, divisors)
        return _emit(args, {"normal_form": spbw.pbw_str(h)}, [spbw.pbw_str(h)])
    if args.op == "groebner":
        gens = [A.parse(t) for t in split_list(args.gens)]
        res = spbw.groebner_left(gens)
        payload = {
            "basis": [spbw.pbw_str(g) for g in res.basis],
            "complete": res.complete,
        }
        return _emit(args, payload, payload["basis"] + [f"complete: {res.complete}"])
    if args.op == "closure":
        gens = [A.parse(t) for t in split_list(args.gens)]
        G = spbw.two_sided_closure(gens)
        payload = {"basis": [spbw.pbw_str(g) for g in G]}
        return _emit(args, payload, payload["basis"])
    raise DomainError(f"unknown spbw op {args.op!r}")  # pragma: no cover


# -- spbwsets ----------------------------------------------------------------------

def _parse_point(A, text):
    parts = split_list(text)
    if len(parts) != A.n:
        raise DomainError(f"point needs {A.n} coordinates")
    return tuple(A.domain.parse(t) for t in parts)


def cmd_spbwsets(args):
    from . import spbw, spbwsets

    A = _pres(args)
    if args.op == "roots":
        ok = spbwsets.root_test(A.parse(args.f), _parse_point(A, args.point))
        return _emit(args, {"is_root": ok}, [str(ok)])
    if args.op == "variety":
        gens = [A.parse(t) for t in split_list(args.gens)]
        if args.domain == "full":
            pts = spbwsets.vanishing_set(gens)
        else:
            pts = spbwsets.vanishing_set(
                gens, [_parse_point(A, p) for p in split_list(args.domain, ";")]
            )
        payload = {"points": [[A.domain.to_str(c) for c in Z] for Z in pts]}
        return _emit(args, payload, [",".join(r) for r in payload["points"]])
    if args.op == "normal":
        res = spbwsets.normality_test(A.parse(args.f))
        payload = {"normal": res.is_normal}
        if res.is_normal and res.left_movers is not None:
            payload["left_movers"] = [spbw.pbw_str(u) for u in res.left_movers]
            payload["right_movers"] = [spbw.pbw_str(v) for v in res.right_movers]
        return _emit(args, payload, [str(res.is_normal)])
    if args.op == "center":
        monos = spbwsets.center_basis(A, args.degree)
        payload = {"monomials": [spbw.pbw_str(m) for m in monos]}
        return _emit(args, payload, payload["monomials"])
    if args.op == "nullstellensatz":
        gens = [A.parse(t) for t in split_list(args.gens)]
        report = spbwsets.nullstellensatz_check(
            gens, degree=args.degree, sample_budget=args.samples, seed=args.seed
        )
        lines = [f"holds: {report['holds']}"]
        lines.extend(f"exercised: {s}" for s in report["exercised"])
        lines.extend(f"not exercised: {s}" for s in report["not_exercised"])
        return _emit(args, report, lines)
    raise DomainError(f"unknown spbwsets op {args.op!r}")  # pragma: no cover


# -- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="orecodes")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="finite field info")
    ps = p.add_subparsers(dest="op", required=True)
    info = ps.add_parser("info")
    info.add_argument("literal")
    _add_common(info, with_ring=False)
    info.set_defaults(func=cmd_field_info)

    p = sub.add_parser("poly", help="skew polynomial arithmetic")
    ps = p.add_subparsers(dest="op", required=True)
    for op, flags in [
        ("mul", ["a", "b"]),
        ("divmod", ["a", "b", "side"]),
        ("gcrd", ["a", "b"]),
        ("lclm", ["a", "b"]),
        ("eval", ["g", "at", "mode"]),
        ("factor", ["g"]),
        ("bound", ["g"]),
        ("twosided", ["g"]),
        ("similar", ["g", "h"]),
    ]:
        q = ps.add_parser(op)
        _add_common(q)
        for fl in flags:
            if fl == "side":
                q.add_argument("--side", choices=["right", "left"], default="right")
            elif fl == "mode":
                q.add_argument("--mode", choices=["right", "operator"], default="right")
            else:
                q.add_argument(f"--{fl}", required=True)
        q.set_defaults(func=cmd_poly)

    p = sub.add_parser("algset", help="single-variable algebraic sets")
    ps = p.add_subparsers(dest="op", required=True)
    for op, flags in [("vanish", ["g"]), ("minpoly", ["points"]), ("rank", ["points"]), ("wpoly", ["g"])]:
        q = ps.add_parser(op)
        _add_common(q)
        for fl in flags:
            q.add_argument(f"--{fl}", required=True)
        q.set_defaults(func=cmd_algset)

    p = sub.add_parser("codes", help="skew cyclic codes")
    ps = p.add_subparsers(dest="op", required=True)
    build = ps.add_parser("build")
    _add_common(build)
    build.add_argument("--modulus", required=True)
    build.add_argument("--divisor", required=True)
    build.add_argument("--emit", default="G")
    build.set_defaults(func=cmd_codes)
    for op, flags in [("rightmult", ["g"]), ("theta", ["g"]), ("idempotent", ["e"]), ("bezout", ["g", "h"])]:
        q = ps.add_parser(op)
        _add_common(q)
        for fl in flags:
            q.add_argument(f"--{fl}", required=True)
        q.add_argument("--n", type=int, required=True)
        q.set_defaults(func=cmd_codes)

    p = sub.add_parser("evalcodes", help="evaluation codes and distances")
    ps = p.add_subparsers(dest="op", required=True)
    for op in ["build", "distance", "certify"]:
        q = ps.add_parser(op)
        _add_common(q)
        q.add_argument("--support", required=True)
        q.add_argument("--k", type=int, required=True)
        q.add_argument("--code", choices=["remainder", "operator"], default="remainder")
        if op == "distance":
            q.add_argument("--metric", choices=["hamming", "rank"], default="hamming")
        if op == "certify":
            q.add_argument("--kind", choices=["MDS", "MRD"], required=True)
        q.set_defaults(func=cmd_evalcodes)

    p = sub.add_parser("linearized", help="q-linearized polynomials")
    ps = p.add_subparsers(dest="op", required=True)
    for op, flags in [("map", ["poly"]), ("moore", ["basis"]), ("dickson", ["poly"]), ("algebra-check", [])]:
        q = ps.add_parser(op)
        _add_common(q, with_ring=False)
        q.add_argument("--field", required=True)
        for fl in flags:
            q.add_argument(f"--{fl}", required=True)
        q.set_defaults(func=cmd_linearized)

    p = sub.add_parser("spbw", help="skew PBW extensions")
    ps = p.add_subparsers(dest="op", required=True)
    for op, flags in [
        ("mul", ["a", "b"]),
        ("divide", ["f", "by"]),
        ("reduce", ["f", "by"]),
        ("groebner", ["gens"]),
        ("closure", ["gens"]),
    ]:
        q = ps.add_parser(op)
        _add_common(q, with_ring=False)
        q.add_argument("--presentation", required=True)
        for fl in flags:
            q.add_argument(f"--{fl}", required=True)
        q.set_defaults(func=cmd_spbw)

    p = sub.add_parser("spbwsets", help="PBW algebraic sets and ideals of points")
    ps = p.add_subparsers(dest="op", required=True)
    for op, flags in [
        ("roots", ["f", "point"]),
        ("variety", ["gens", "domain"]),
        ("normal", ["f"]),
        ("center", []),
        ("nullstellensatz", ["gens"]),
    ]:
        q = ps.add_parser(op)
        _add_common(q, with_ring=False)
        q.add_argument("--presentation", required=True)
        for fl in flags:
            q.add_argument(f"--{fl}", required=True)
        if op in ("center", "nullstellensatz"):
            q.add_argument("--degree", type=int, default=4)
        if op == "nullstellensatz":
            q.add_argument("--samples", type=int, default=50)
            q.add_argument("--seed", type=int, default=0)
        q.set_defaults(func=cmd_spbwsets)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code = next(c for kind, c in EXIT_CODES.items() if isinstance(exc, kind))
        _error(args, code, str(exc))
        return code


def _error(args, code, message):
    if getattr(args, "format", "text") == "json":
        print(json.dumps({"error": {"code": code, "message": message}}, sort_keys=True))
    else:
        print(f"error ({code}): {message}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
