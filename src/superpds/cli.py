"""Command-line front end.

Exit codes: 0 success / verified, 1 mathematical failure (a residual, a
failed verification, an unsolvable system) or an expression that does not
parse, 2 usage error (a bad argument or a malformed input file).  ``--json``
switches the output to a machine-readable document built from the same
payload as the text rendering.

Input files are JSON objects in UTF-8 with closed schemas.  A cochain file
has the key ``images`` (``{"images": {}}`` is the zero cochain) and may have
``block``; a deformation file has the key ``orders`` and may have
``engine``.  A missing ``images`` or ``orders``, or any other top-level
key, is a usage error naming the file and the key, so a misspelled key is
never read as the zero cochain or the undeformed map.  A UTF-8 byte-order
mark is not accepted: such a file is "not valid JSON", exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction

from . import d21, deform, quantize
from . import cohomology as coh
from .expr import ExprError, parse
from .scalars import PoleError
from .symbols import Symbol, random_monomial


class InputError(Exception):
    """A bad command-line argument or a malformed input file; reported on
    one line with exit code 2."""


def _engine(args, alpha=None):
    if getattr(args, "quantized", False):
        return coh.quantized_engine(alpha=alpha)
    return coh.poisson_engine(alpha=alpha)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("invalid rational %r: %s" % (text, exc))


def _type_name(value) -> str:
    return type(value).__name__


def _load_object(path: str, keys) -> dict:
    """The JSON object in ``path``; InputError unless its top-level keys
    are among ``keys``."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError("%s: not valid JSON: %s" % (path, exc))
        except UnicodeDecodeError as exc:
            raise InputError("%s: not UTF-8 text: %s" % (path, exc))
    if not isinstance(doc, dict):
        raise InputError("%s: expected a JSON object, got %s" % (path, _type_name(doc)))
    for key in doc:
        if key not in keys:
            raise InputError("%s: unknown key %r, expected %s" % (path, key, " or ".join(keys)))
    return doc


def _load_cochain(path: str):
    doc = _load_object(path, ("images", "block"))
    texts = doc.get("images", {})
    if not isinstance(texts, dict):
        raise InputError("%s: images must be an object, got %s" % (path, _type_name(texts)))
    images = {}
    for name, text in texts.items():
        if name not in d21.PARITY:
            raise InputError("%s: unknown basis name %r" % (path, name))
        if not isinstance(text, str):
            raise InputError("%s: image of %s must be an expression string, got %s"
                             % (path, name, _type_name(text)))
        try:
            images[name] = parse(text)
        except ValueError as exc:  # ExprError among them: exit code 1, as in ``main``
            raise ValueError("%s: image of %s: %s" % (path, name, exc)) from exc
    block = None
    if "block" in doc:
        b = doc["block"]
        if not isinstance(b, dict):
            raise InputError("%s: block must be an object, got %s" % (path, _type_name(b)))
        fields = {"k": int, "n": int, "target": str}
        for field in b:
            if field not in fields:
                raise InputError("%s: unknown block field %r" % (path, field))
        for field, kind in fields.items():
            if type(b.get(field)) is not kind:  # rejects true as an int, too
                got = _type_name(b[field]) if field in b else "nothing"
                raise InputError("%s: block field %r must be %s, got %s"
                                 % (path, field, kind.__name__, got))
        block = _block_spec(b["k"], b["n"], b["target"], "%s: " % path)
    if "images" not in doc:  # after the block, whose own errors say more
        raise InputError("%s: missing key 'images'" % path)
    return coh.Cochain1(images, block)


def _check_cochain(c, path: str, engine) -> None:
    """Raise InputError unless a cochain read from ``path`` fits its block and the engine."""
    if c.block is not None:
        try:
            engine.validate_cochain(c, c.block)
        except ValueError as exc:
            raise InputError("%s: %s" % (path, exc))
    _check_star(c, path, engine)


def _term_outside_p_plus(sym):
    """The first term of ``sym`` with tau < 0, which the star engine does
    not keep, or None."""
    for key, coeff in sym.terms.items():
        if not (term := Symbol({key: coeff})).in_subalgebra("P+"):
            return term
    return None


def _check_star(c, source: str, engine) -> None:
    """Raise InputError naming ``source`` and the term when the star engine
    gets a cochain with an image outside P+."""
    for name, sym in c.images.items() if engine.h_k_weight else ():
        if term := _term_outside_p_plus(sym):
            raise InputError("%s: %s image term %s has tau < 0; the star engine "
                             "computes in P+ only" % (source, name, term))


def _block_spec(k, n, target, prefix=""):
    try:
        return coh.BlockSpec(k, n, target)
    except ValueError as exc:
        raise InputError(prefix + str(exc))


def _emit(args, payload, lines):
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_bracket(args):
    a = parse(args.a)
    b = parse(args.b)
    if args.quantized:
        for operand, sym in (("a", a), ("b", b)):
            if term := _term_outside_p_plus(sym):
                raise InputError("operand %s term %s has tau < 0; the star product "
                                 "computes in P+ only" % (operand, term))
        result = quantize.h_bracket(a, b)
        op = "h-bracket"
    else:
        result = a.poisson(b)
        op = "poisson"
    payload = {"command": "bracket", "engine": op, "a": str(a), "b": str(b), "result": str(result)}
    _emit(args, payload, [str(result)])
    return 0


def cmd_basis(args):
    basis = quantize.gamma_h_basis() if args.quantized else d21.embedded_basis()
    if args.alpha is not None:
        value = _fraction(args.alpha)
        basis = {n: s.specialize(value) for n, s in basis.items()}
    payload = {
        "command": "basis",
        "quantized": bool(args.quantized),
        "alpha": args.alpha,
        "elements": {n: str(basis[n]) for n in d21.BASIS_NAMES},
    }
    _emit(args, payload, ["%s = %s" % (n, basis[n]) for n in d21.BASIS_NAMES])
    return 0


def _verify_embedding():
    basis = d21.embedded_basis()
    for name, sym in basis.items():
        if not sym.in_subalgebra("K4'"):
            return False, "%s leaves K4'" % name
        if sym.k_degree() != 2:
            return False, "%s not of k-degree 2" % name
        if sym.parity() != d21.PARITY[name]:
            return False, "%s has wrong parity" % name
    try:
        d21.structure_table()
    except ValueError as exc:
        return False, "bracket left the span: %s" % exc
    return True, "17 generators inside K'(4), closed under the bracket"


def _verify_jacobi():
    alg = d21.abstract_algebra(*d21.standard_sigma())
    bad = d21.jacobi_check_abstract(alg)
    if bad is not None:
        return False, "abstract triple %s fails" % (bad[0],)
    bad = d21.jacobi_check_embedded()
    if bad is not None:
        return False, "embedded triple %s fails" % (bad[0],)
    return True, "graded Jacobi holds (abstract table and Poisson realization)"


def _verify_virasoro():
    def L(n):
        return Symbol.monomial(t=n + 1, tau=-n + 1, coeff=Fraction(1, 2))

    for n in range(-6, 7):
        for m in range(-6, 7):
            if L(n).poisson(L(m)) != L(n + m) * Fraction(m - n):
                return False, "fails at (n, m) = (%d, %d)" % (n, m)
    return True, "[L_n, L_m] = (m - n) L_{n+m} for |n|, |m| <= 6"


def _verify_iso():
    bad = d21.verify_iso()
    if bad is None:
        return True, "abstract and realized brackets agree on all 17 x 17 pairs"
    pair, lhs, rhs = bad
    return False, "mismatch at %s: %s vs %s" % (pair, lhs, rhs)


def _verify_contraction():
    gb = quantize.gamma_h_basis()
    for x in d21.BASIS_NAMES:
        for y in d21.BASIS_NAMES:
            if not quantize.check_contraction(gb[x], gb[y]):
                return False, "basis pair (%s, %s)" % (x, y)
    rng = random.Random(20240)
    for _ in range(200):
        a = random_monomial(rng, span=3)
        b = random_monomial(rng, span=3)
        a = Symbol({(t, abs(u), m, be, h): c for (t, u, m, be, h), c in a.terms.items()})
        b = Symbol({(t, abs(u), m, be, h): c for (t, u, m, be, h), c in b.terms.items()})
        if not quantize.check_contraction(a, b):
            return False, "random pair (%s, %s)" % (a, b)
    return True, "h-bracket contracts to the Poisson bracket (basis and random pairs)"


def cmd_verify(args):
    checks = {
        "embedding": _verify_embedding,
        "iso": _verify_iso,
        "jacobi": _verify_jacobi,
        "virasoro": _verify_virasoro,
        "contraction": _verify_contraction,
    }
    ok, detail = checks[args.check]()
    payload = {
        "command": "verify",
        "check": args.check,
        "status": "pass" if ok else "fail",
        "detail": detail,
    }
    _emit(args, payload, ["%s: %s (%s)" % (args.check, payload["status"], detail)])
    return 0 if ok else 1


def cmd_h1(args):
    if args.quantized and args.target != "P+":
        # the star engine keeps no tau < 0 monomial, so any other target
        # would report a slice of the P+ computation under its own name
        raise InputError("h1 --quantized computes target P+ only, got %s" % args.target)
    alpha = _fraction(args.specialize) if args.specialize is not None else None
    engine = _engine(args, alpha=alpha)
    if args.k is not None or args.n is not None:
        if args.k is None or args.n is None:
            print("h1: --k and --n must be given together", file=sys.stderr)
            return 2
        if args.window is not None:
            print("h1: --window scans a window, not the block of --k and --n", file=sys.stderr)
            return 2
        block = _block_spec(args.k, args.n, args.target)
        reports = [coh.h1_block(block, engine, representatives=True)]
        scanned = 1
    else:
        w = args.window
        if w is None:
            text = os.environ.get("SUPERPDS_WINDOW", "6")
            try:
                w = int(text)
            except ValueError:
                print("h1: SUPERPDS_WINDOW must be an integer, got %r" % text, file=sys.stderr)
                return 2
        if w < 0:
            print("h1: window must be nonnegative, got %d" % w, file=sys.stderr)
            return 2
        win = range(-w, w + 1)
        reports = coh.h1_scan(win, win, args.target, engine)
        scanned = len(reports)
    nonzero = [r for r in reports if r.dim_h1]
    total = sum(r.dim_h1 for r in nonzero)
    payload = {
        "command": "h1",
        "target": args.target,
        "specialize": args.specialize,
        "quantized": bool(args.quantized),
        "blocks_scanned": scanned,
        "total_dim": total,
        "blocks": [r.to_payload() for r in (nonzero if scanned > 1 else reports)],
    }
    lines = [
        "target %s: %d block(s) scanned, total dim H^1 = %d"
        % (args.target, scanned, total)
    ]
    for r in nonzero if scanned > 1 else reports:
        lines.append(
            "  block (k=%d, n=%d): dim Z = %d, dim B = %d, dim H^1 = %d"
            % (r.block.k, r.block.n, r.dim_cocycles, r.dim_coboundaries, r.dim_h1)
        )
        for piv in r.pivot_polynomials:
            lines.append("    pivot: %s" % piv)
        for rep in r.representatives:
            lines.append("    representative:")
            for name, sym in sorted(rep.images.items()):
                lines.append("      %s -> %s" % (name, sym))
    _emit(args, payload, lines)
    return 0


def cmd_cocycle(args):
    if args.file:
        c = _load_cochain(args.file)
        source = args.file
    else:
        c = coh.named_cocycle(args.name)
        source = args.name
    engine = coh.quantized_engine() if (args.quantized or args.name == "thetabar1") else coh.poisson_engine()
    _check_star(c, source, engine)
    problems = []
    if c.block is not None:
        try:
            engine.validate_cochain(c, c.block)
        except ValueError as exc:
            problems.append(str(exc))
    closed = coh.pairmap_is_zero(coh.d1(c, engine))
    payload = {
        "command": "cocycle",
        "source": source,
        "block": c.block.to_payload() if c.block else None,
        "is_cocycle": closed,
        "block_violations": problems,
        "images": {n: str(s) for n, s in sorted(c.images.items())},
    }
    lines = ["%s: %s" % (source, "cocycle" if closed else "NOT a cocycle")]
    lines += ["  violation: %s" % p for p in problems]
    lines += ["  %s -> %s" % (n, s) for n, s in sorted(c.images.items())]
    _emit(args, payload, lines)
    return 0 if closed and not problems else 1


def cmd_cup(args):
    phi = _load_cochain(args.f)
    phi_prime = _load_cochain(args.g)
    engine = _engine(args)
    _check_cochain(phi, args.f, engine)
    _check_cochain(phi_prime, args.g, engine)
    pairs = coh.cup(phi, phi_prime, engine)
    nonzero = {"(%s,%s)" % p: str(v) for p, v in pairs.items() if v}
    payload = {
        "command": "cup",
        "zero": not nonzero,
        "pairs": nonzero,
    }
    lines = (
        ["cup product is identically zero"]
        if not nonzero
        else ["[[phi, phi']](%s) = %s" % kv for kv in sorted(nonzero.items())]
    )
    _emit(args, payload, lines)
    return 0


def cmd_solve_obstruction(args):
    if args.quantized and args.target not in (None, "P+"):
        # as for h1 --quantized: the star engine keeps no tau < 0 monomial
        raise InputError("solve-obstruction --quantized computes target P+ only, got %s"
                         % args.target)
    rho1 = _load_cochain(args.f)
    engine = _engine(args)
    _check_cochain(rho1, args.f, engine)
    target = args.target or ("P+" if args.quantized else rho1.block.target if rho1.block else "P")
    block = _block_spec(args.k, args.n, target)
    sol = coh.solve_obstruction(rho1, block, engine)
    solution = None if sol is None else {n: str(s) for n, s in sorted(sol.images.items())}
    payload = {
        "command": "solve-obstruction",
        "block": block.to_payload(),
        "solvable": sol is not None,
        "solution": solution,
    }
    if sol is None:
        lines = ["no solution in block (k=%d, n=%d, %s)" % (block.k, block.n, target)]
    else:
        lines = ["solution:"] + ["  %s -> %s" % kv for kv in sorted(solution.items())]
    _emit(args, payload, lines)
    return 0 if sol is not None else 1


def _load_deformation(path: str) -> deform.DeformedMap:
    doc = _load_object(path, ("engine", "orders"))
    if "orders" not in doc:
        raise InputError("%s: missing key 'orders'" % path)
    engine_name = doc.get("engine", "poisson")
    if engine_name in ("star", "hbracket", "quantized"):
        engine = coh.quantized_engine()
    elif engine_name == "poisson":
        engine = coh.poisson_engine()
    else:
        raise InputError("%s: unknown engine %r" % (path, engine_name))
    base = os.path.dirname(path)
    entries = doc["orders"]
    if not isinstance(entries, list):
        raise InputError("%s: orders must be a list, got %s" % (path, _type_name(entries)))
    orders = []
    for entry in entries:
        if not isinstance(entry, str):
            raise InputError("%s: orders must name cochain files, got %s"
                             % (path, _type_name(entry)))
        order_path = os.path.join(base, entry)
        order = _load_cochain(order_path)
        _check_cochain(order, order_path, engine)
        orders.append(order)
    return deform.DeformedMap(orders, engine)


def cmd_deform(args):
    if args.case == "cor42":
        dm = deform.cor42_map()
    elif args.case == "thm43":
        dm = deform.thm43_map()
    elif args.case == "thm45":
        dm = deform.thm45_map()
    else:
        dm = _load_deformation(args.file)
    failures = deform.verify_homomorphism(dm)
    payload = {
        "command": "deform-verify",
        "case": args.case or args.file,
        "status": "pass" if failures is None else "fail",
        "orders": len(dm.orders),
        "failures": [
            {"pair": list(pair), "beta_power": p, "residual": str(res)}
            for pair, p, res in (failures or [])
        ],
    }
    lines = ["%s: %s" % (payload["case"], payload["status"])]
    for f in payload["failures"]:
        lines.append(
            "  residual at %s, beta^%d: %s" % (tuple(f["pair"]), f["beta_power"], f["residual"])
        )
    _emit(args, payload, lines)
    return 0 if failures is None else 1


# ---------------------------------------------------------------------------


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")

    parser = argparse.ArgumentParser(
        prog="superpds",
        description="exact symbol-algebra computations for D(2,1;alpha)",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("bracket", parents=[common], help="bracket of two expressions")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--quantized", action="store_true", help="use the h-bracket")
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("basis", parents=[common], help="print the 17 generators")
    p.add_argument("--alpha", help="specialize alpha to a rational")
    p.add_argument("--quantized", action="store_true")
    p.set_defaults(fn=cmd_basis)

    p = sub.add_parser("verify", parents=[common], help="run a verification")
    p.add_argument(
        "check", choices=("embedding", "iso", "jacobi", "virasoro", "contraction")
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("h1", parents=[common], help="cohomology of blocks or windows")
    p.add_argument("--target", required=True, choices=coh.TARGETS)
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--specialize", help="rational value for alpha")
    p.add_argument("--quantized", action="store_true")
    p.set_defaults(fn=cmd_h1)

    p = sub.add_parser("cocycle", parents=[common], help="check a 1-cocycle")
    p.add_argument(
        "name", nargs="?", choices=("theta1", "theta2", "theta", "thetabar1")
    )
    p.add_argument("--file")
    p.add_argument("--quantized", action="store_true")
    p.set_defaults(fn=cmd_cocycle)

    p = sub.add_parser("cup", parents=[common], help="cup product of two cochain files")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--quantized", action="store_true")
    p.set_defaults(fn=cmd_cup)

    p = sub.add_parser(
        "solve-obstruction", parents=[common], help="solve d rho2 = -1/2 [[rho1, rho1]]"
    )
    p.add_argument("f", help="cochain file for rho1")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--target")
    p.add_argument("--quantized", action="store_true")
    p.set_defaults(fn=cmd_solve_obstruction)

    p = sub.add_parser("deform", parents=[common], help="verify a formal deformation")
    dsub = p.add_subparsers(dest="deform_cmd", required=True)
    pv = dsub.add_parser("verify", parents=[common])
    pv.add_argument("case", nargs="?", choices=("cor42", "thm43", "thm45"))
    pv.add_argument("--file")
    pv.set_defaults(fn=cmd_deform)

    return parser


# Options that take a rational.  argparse reads a value such as -1/2 as an
# option string, since only integers and decimals pass for negative numbers,
# so ``main`` joins it to its option first: --specialize=-1/2.
_RATIONAL_OPTIONS = ("--specialize", "--alpha")


def _join_negative_rationals(argv):
    out = []
    for arg in argv:
        if out and out[-1] in _RATIONAL_OPTIONS and re.match(r"-[\d.]", arg):
            arg = out.pop() + "=" + arg
        out.append(arg)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_negative_rationals(sys.argv[1:] if argv is None else argv))
    if args.cmd == "cocycle" and not args.name and not args.file:
        parser.error("cocycle: a name or --file is required")
    if args.cmd == "cocycle" and args.name and args.file:
        parser.error("cocycle: give a name or --file, not both")
    if args.cmd == "deform" and not args.case and not args.file:
        parser.error("deform verify: a case name or --file is required")
    if args.cmd == "deform" and args.case and args.file:
        parser.error("deform verify: give a case name or --file, not both")
    try:
        return args.fn(args)
    except (ExprError, PoleError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
