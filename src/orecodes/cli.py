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
    w = parse_element(field, args.delta_w) if args.delta_w is not None else None
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
    if args.op == "mul":
        out = P(args.a) * P(args.b)
        return _emit(args, {"product": _poly_payload(out)}, [poly_str(out)])
    if args.op == "divmod":
        g, d = P(args.a), P(args.b)
        q, r = g.right_divmod(d) if args.side == "right" else g.left_divmod(d)
        payload = {"quotient": _poly_payload(q), "remainder": _poly_payload(r)}
        return _emit(args, payload, [f"q = {poly_str(q)}", f"r = {poly_str(r)}"])
    if args.op == "gcrd":
        d, u, v = gcrd_bezout(P(args.a), P(args.b))
        payload = {"gcrd": _poly_payload(d), "u": _poly_payload(u), "v": _poly_payload(v)}
        return _emit(args, payload, [f"gcrd = {poly_str(d)}", f"u = {poly_str(u)}", f"v = {poly_str(v)}"])
    if args.op == "lclm":
        m = lclm(P(args.a), P(args.b))
        return _emit(args, {"lclm": _poly_payload(m)}, [poly_str(m)])
    if args.op == "eval":
        g = P(args.g)
        z = parse_element(ring.field, args.at)
        val = right_eval(g, z) if args.mode == "right" else operator_eval(g, z)
        return _emit(args, {"value": element_str(val)}, [element_str(val)])
    if args.op == "factor":
        factors = factor_irreducible(P(args.g))
        payload = {"factors": [_poly_payload(f) for f in factors]}
        return _emit(args, payload, [" * ".join(f"({poly_str(f)})" for f in factors)])
    if args.op == "bound":
        fstar = bound_polynomial(P(args.g))
        return _emit(args, {"bound": _poly_payload(fstar)}, [poly_str(fstar)])
    if args.op == "twosided":
        res = two_sided_test(P(args.g))
        payload = {"two_sided": res.is_two_sided}
        lines = [f"two-sided: {res.is_two_sided}"]
        if res.is_two_sided:
            payload.update(c=element_str(res.c), t=res.t, h=poly_str(res.h))
            lines.append(f"g = c * x^t * h with c = {element_str(res.c)}, t = {res.t}, h = {poly_str(res.h)}")
        return _emit(args, payload, lines)
    ok, B = similarity_test(P(args.g), P(args.h))
    payload = {"similar": ok}
    lines = [f"similar: {ok}"]
    if ok:
        payload["B"] = _matrix_payload(B)
        lines.extend(" ".join(r) for r in _matrix_payload(B))
    return _emit(args, payload, lines)


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
    ok = algset.is_w_polynomial(ring.parse(args.g))
    return _emit(args, {"w_polynomial": ok}, [str(ok)])


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
        payload, lines = {"n": code.n, "dim": code.dim}, [f"n = {code.n}, dim = {code.dim}"]
        for key in ("G", "H"):
            if key in args.emit:
                payload[key] = _matrix_payload(lin.G if key == "G" else lin.parity_check())
                lines.append(f"{key}:")
                lines.extend("  " + " ".join(r) for r in payload[key])
        if "dual" in args.emit:
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
    e = codes.bezout_idempotent(ring, P(args.g), P(args.h), args.n)
    return _emit(args, {"idempotent": poly_str(e)}, [poly_str(e)])


# -- evalcodes --------------------------------------------------------------------

def cmd_evalcodes(args):
    from . import evalcodes

    ring = _ring(args)
    Z = tuple(parse_element(ring.field, t) for t in split_list(args.support))
    build = evalcodes.remainder_code if args.code == "remainder" else evalcodes.operator_code
    code = build(ring, Z, args.k)
    if args.op == "build":
        payload = {"n": code.n, "dim": code.dim, "G": _matrix_payload(code.G)}
        return _emit(args, payload, [" ".join(r) for r in payload["G"]])
    if args.op == "distance":
        d = evalcodes.min_distance(code, args.metric, ring)
        return _emit(args, {"distance": d, "metric": args.metric}, [str(d)])
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
    report = linearized.matrix_algebra_check(field)
    return _emit(args, report, [f"{k}: {v}" for k, v in sorted(report.items())])


# -- spbw -----------------------------------------------------------------------

def cmd_spbw(args):
    from . import spbw

    A = spbw.load_presentation(args.presentation)
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
    gens = [A.parse(t) for t in split_list(args.gens)]
    G = spbw.two_sided_closure(gens)
    payload = {"basis": [spbw.pbw_str(g) for g in G]}
    return _emit(args, payload, payload["basis"])


# -- spbwsets ----------------------------------------------------------------------

def _parse_point(A, text):
    parts = split_list(text)
    if len(parts) != A.n:
        raise DomainError(f"point needs {A.n} coordinates")
    return tuple(A.domain.parse(t) for t in parts)


def cmd_spbwsets(args):
    from . import spbw, spbwsets

    A = spbw.load_presentation(args.presentation)
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
    gens = [A.parse(t) for t in split_list(args.gens)]
    report = spbwsets.nullstellensatz_check(
        gens, degree=args.degree, sample_budget=args.samples, seed=args.seed
    )
    lines = [f"holds: {report['holds']}"]
    lines.extend(f"exercised: {s}" for s in report["exercised"])
    lines.extend(f"not exercised: {s}" for s in report["not_exercised"])
    return _emit(args, report, lines)


# -- parser ------------------------------------------------------------------------

def _emit_items(text):
    """--emit: comma-separated items, each one of G, H and dual."""
    items = [w.strip() for w in text.split(",")]
    bad = [w for w in items if w not in ("G", "H", "dual")]
    if bad:
        raise argparse.ArgumentTypeError(f"invalid choice: {bad[0]!r} (choose from 'G', 'H', 'dual')")
    return items


# argparse keywords of each flag; a flag not listed here is a required string
FLAGS = {
    "literal": {},
    "--format": {"choices": ["text", "json"], "default": "text"},
    "--field": {"required": True, "help": "field literal, e.g. GF(4)"},
    "--sigma": {"type": int, "default": 0, "help": "sigma = phi^l (Frobenius power)"},
    "--delta-w": {"help": "inner element w of delta"},
    "--side": {"choices": ["right", "left"], "default": "right"},
    "--mode": {"choices": ["right", "operator"], "default": "right"},
    "--emit": {"type": _emit_items, "default": "G"},
    "--n": {"type": int, "required": True},
    "--k": {"type": int, "required": True},
    "--code": {"choices": ["remainder", "operator"], "default": "remainder"},
    "--metric": {"choices": ["hamming", "rank"], "default": "hamming"},
    "--kind": {"choices": ["MDS", "MRD"], "required": True},
    "--degree": {"type": int, "default": 4},
    "--samples": {"type": int, "default": 50},
    "--seed": {"type": int, "default": 0},
}

RING = ("--field", "--sigma", "--delta-w")
EVAL = (*RING, "--support", "--k", "--code")

# command: (help, handler, {op: the op's flags after --format, in usage order})
COMMANDS = {
    "field": ("finite field info", cmd_field_info, {"info": ("literal",)}),
    "poly": ("skew polynomial arithmetic", cmd_poly, {
        "mul": (*RING, "--a", "--b"),
        "divmod": (*RING, "--a", "--b", "--side"),
        "gcrd": (*RING, "--a", "--b"),
        "lclm": (*RING, "--a", "--b"),
        "eval": (*RING, "--g", "--at", "--mode"),
        "factor": (*RING, "--g"),
        "bound": (*RING, "--g"),
        "twosided": (*RING, "--g"),
        "similar": (*RING, "--g", "--h"),
    }),
    "algset": ("single-variable algebraic sets", cmd_algset, {
        "vanish": (*RING, "--g"),
        "minpoly": (*RING, "--points"),
        "rank": (*RING, "--points"),
        "wpoly": (*RING, "--g"),
    }),
    "codes": ("skew cyclic codes", cmd_codes, {
        "build": (*RING, "--modulus", "--divisor", "--emit"),
        "rightmult": (*RING, "--g", "--n"),
        "theta": (*RING, "--g", "--n"),
        "idempotent": (*RING, "--e", "--n"),
        "bezout": (*RING, "--g", "--h", "--n"),
    }),
    "evalcodes": ("evaluation codes and distances", cmd_evalcodes, {
        "build": EVAL,
        "distance": (*EVAL, "--metric"),
        "certify": (*EVAL, "--kind"),
    }),
    "linearized": ("q-linearized polynomials", cmd_linearized, {
        "map": ("--field", "--poly"),
        "moore": ("--field", "--basis"),
        "dickson": ("--field", "--poly"),
        "algebra-check": ("--field",),
    }),
    "spbw": ("skew PBW extensions", cmd_spbw, {
        "mul": ("--presentation", "--a", "--b"),
        "divide": ("--presentation", "--f", "--by"),
        "reduce": ("--presentation", "--f", "--by"),
        "groebner": ("--presentation", "--gens"),
        "closure": ("--presentation", "--gens"),
    }),
    "spbwsets": ("PBW algebraic sets and ideals of points", cmd_spbwsets, {
        "roots": ("--presentation", "--f", "--point"),
        "variety": ("--presentation", "--gens", "--domain"),
        "normal": ("--presentation", "--f"),
        "center": ("--presentation", "--degree"),
        "nullstellensatz": ("--presentation", "--gens", "--degree", "--samples", "--seed"),
    }),
}


def build_parser(argv) -> argparse.ArgumentParser:
    """Every command, but op parsers only under the one argv[0] names: a
    process runs one command, and building the rest would cost it time."""
    top = argparse.ArgumentParser(prog="orecodes")
    sub = top.add_subparsers(dest="command", required=True)
    for command, (help_text, handler, ops) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(func=handler)
        if command not in argv[:1]:
            continue
        ps = p.add_subparsers(dest="op", required=True)
        for op, flags in ops.items():
            q = ps.add_parser(op)
            for flag in ("--format", *flags):
                q.add_argument(flag, **FLAGS.get(flag, {"required": True}))
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        code = next(c for kind, c in EXIT_CODES.items() if isinstance(exc, kind))
        if args.format == "json":
            print(json.dumps({"error": {"code": code, "message": str(exc)}}, sort_keys=True))
        else:
            print(f"error ({code}): {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
