"""The benchmark's four workloads.

Each workload is three functions over a freshly imported library ``lib``:

* ``inputs(lib, bench_kernel, rng)`` makes the pass's inputs from the seeded
  ``rng``; the library receives nothing else;
* ``run(lib, inputs)`` makes the exact library calls whose time is measured;
* ``check(lib, inputs, result)`` returns ``(name, ok)`` pairs (see
  ``oracle``); it runs after the timer stops.

Windows are fixed here, never read from ``SUPERPDS_WINDOW``.  They are
smaller than the CLI default of 6 so that one pass takes a few seconds and
a run can report the median of several passes; README.md explains each
choice.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracle import (
    check_dims,
    check_expressions,
    check_obstruction,
    check_representatives,
    check_zero,
    classical_reference,
    star_reference,
)

CLASSICAL_WINDOW = range(-2, 3)
# Covers the tower blocks (0,0), (2,0), (4,0) and the block (4,-2), whose
# elimination meets a polynomial pivot.
STAR_K = range(-4, 5)
STAR_N = range(-2, 5)
STAR_REP_BLOCKS = ((0, 0), (2, 0))
# Rational points where some pivot polynomial of a window-6 scan vanishes.
PIVOT_ROOTS = {Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(6)}
# (target, nonzero block, cocycles its representatives are expressed in)
CERTIFICATES = (("P", (0, 0), ("theta1", "theta2")),
                ("P+", (0, 0), ("theta1",)),
                ("K4'", (2, 0), ("theta",)))
JACOBI_TRIPLES = 100
ASSOC_TRIPLES = 40
CONTRACTION_PAIRS = 100
SHAPE_SEED = 0


def _shuffled(rng, values):
    values = list(values)
    return rng.sample(values, len(values))


def _nonzero_rational(rng, avoid=()):
    while True:
        value = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10), rng.randrange(1, 8))
        if value not in avoid:
            return value


# ---------------------------------------------------------------------------
# classical_scan
# ---------------------------------------------------------------------------


def classical_inputs(lib, bench_kernel, rng):
    return {
        "k": _shuffled(rng, CLASSICAL_WINDOW),
        "n": _shuffled(rng, CLASSICAL_WINDOW),
        "alpha": _nonzero_rational(rng, PIVOT_ROOTS),
    }


def classical_run(lib, inp):
    coh = lib.cohomology
    engine = coh.poisson_engine()
    scans = {t: coh.h1_scan(inp["k"], inp["n"], t, engine) for t in coh.TARGETS}
    special = coh.h1_scan(inp["k"], inp["n"], "P", coh.poisson_engine(alpha=inp["alpha"]),
                          representatives=False)
    certificates = {}
    for target, kn, names in CERTIFICATES:
        generators = [coh.named_cocycle(name) for name in names]
        for rpt in scans[target]:
            if (rpt.block.k, rpt.block.n) == kn:
                certificates[target] = [
                    coh.express_modulo_coboundaries(rep, generators, rpt.block, engine)
                    for rep in rpt.representatives
                ]
    obstruction = coh.solve_obstruction(coh.named_cocycle("theta1"),
                                        coh.BlockSpec(-2, 0, "P+"), engine)
    return {"scans": scans, "special": special, "certificates": certificates,
            "obstruction": obstruction}


def classical_check(lib, inp, result):
    coh = lib.cohomology
    engine = coh.poisson_engine()
    out = []
    for target, reports in result["scans"].items():
        expected = classical_reference(target, inp["k"], inp["n"])
        out += check_dims(target, reports, expected)
        for rpt in reports:
            if rpt.dim_h1:
                out += check_representatives(lib, rpt, engine)
    out += check_dims("P@alpha=%s" % inp["alpha"], result["special"],
                      classical_reference("P", inp["k"], inp["n"]))
    for target, kn, names in CERTIFICATES:
        rpt = next((r for r in result["scans"][target]
                    if (r.block.k, r.block.n) == kn), None)
        reps = rpt.representatives if rpt else []
        out += check_expressions(
            lib, "express(%s)" % target, reps, [coh.named_cocycle(n) for n in names],
            result["certificates"].get(target, []), rpt.block if rpt else None, engine)
    out += check_obstruction(lib, coh.named_cocycle("theta1"), result["obstruction"], engine)
    return out


# ---------------------------------------------------------------------------
# star_scan
# ---------------------------------------------------------------------------


def star_scan_inputs(lib, bench_kernel, rng):
    return {"k": _shuffled(rng, STAR_K), "n": _shuffled(rng, STAR_N)}


def star_scan_run(lib, inp):
    coh = lib.cohomology
    return coh.h1_scan(inp["k"], inp["n"], "P+", coh.quantized_engine(), representatives=False)


def star_scan_check(lib, inp, reports):
    return check_dims("star P+", reports, star_reference(inp["k"], inp["n"]))


# ---------------------------------------------------------------------------
# star_reps
# ---------------------------------------------------------------------------


def star_reps_inputs(lib, bench_kernel, rng):
    return {"blocks": _shuffled(rng, STAR_REP_BLOCKS), "scale": _nonzero_rational(rng)}


def star_reps_run(lib, inp):
    coh = lib.cohomology
    engine = coh.quantized_engine()
    reports = [coh.h1_block(coh.BlockSpec(k, n, "P+"), engine) for k, n in inp["blocks"]]
    cocycle = coh.named_cocycle("thetabar1").scale(inp["scale"])
    preimage = coh.is_coboundary(cocycle, coh.quantized_engine(h_depth=2))
    return {"reports": reports, "preimage": preimage}


def star_reps_check(lib, inp, result):
    engine = lib.cohomology.quantized_engine()
    reports = result["reports"]
    blocks = [k for k, _ in inp["blocks"]]
    out = check_dims("star reps", reports, star_reference(blocks, [0]))
    for rpt in reports:
        out += check_representatives(lib, rpt, engine)
    out.append(("thetabar1.not_coboundary", result["preimage"] is None))
    return out


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------


def _general_symbol(lib, bench_kernel, shape_rng, rng, tau_nonneg=False, homogeneous=False):
    """A multi-term symbol with alpha coefficients, times beta^p h^q.

    ``shape_rng`` picks the monomials and the powers, ``rng`` the
    coefficients: ``random_terms`` draws both, so it is called once with each
    and the keys of the second call are dropped.
    """
    Symbol = lib.symbols.Symbol
    while True:
        terms = bench_kernel.random_terms(shape_rng, tau_nonneg=tau_nonneg)
        if homogeneous:
            terms = shape_rng.choice(lib.kernel.parity_split(terms))
        if terms:
            break
    coeffs = bench_kernel.random_terms(rng, n=len(terms)).values()
    return (Symbol(dict(zip(terms, coeffs)))
            * Symbol.monomial(beta=shape_rng.randrange(3), h=shape_rng.randrange(3)))


def identities_inputs(lib, bench_kernel, rng):
    # The shapes, and with them the amount of kernel work, are the same for
    # every seed; the seed draws the coefficients.
    shape_rng = random.Random(SHAPE_SEED)

    def sym(**kw):
        return _general_symbol(lib, bench_kernel, shape_rng, rng, **kw)

    return {
        "jacobi": [tuple(sym(homogeneous=True) for _ in range(3)) for _ in range(JACOBI_TRIPLES)],
        "assoc": [tuple(sym(tau_nonneg=True) for _ in range(3)) for _ in range(ASSOC_TRIPLES)],
        "contraction": [(sym(tau_nonneg=True), sym(tau_nonneg=True))
                        for _ in range(CONTRACTION_PAIRS)],
    }


def _virasoro_residuals(lib):
    Symbol = lib.symbols.Symbol

    def L(n):
        return Symbol.monomial(t=n + 1, tau=-n + 1, coeff=Fraction(1, 2))

    return [L(n).poisson(L(m)) - L(n + m) * Fraction(m - n)
            for n in range(-6, 7) for m in range(-6, 7)]


def _super_jacobi_residual(a, b, c):
    """{a,{b,c}} - {{a,b},c} - (-1)^(p(a)p(b)) {b,{a,c}} for homogeneous a, b."""
    sign = -1 if a.parity() and b.parity() else 1
    return a.poisson(b.poisson(c)) - a.poisson(b).poisson(c) - b.poisson(a.poisson(c)) * sign


def identities_run(lib, inp):
    d21, deform, quantize = lib.d21, lib.deform, lib.quantize
    moyal = quantize.moyal_mul
    gb = quantize.gamma_h_basis()
    return {
        "jacobi.abstract": [d21.jacobi_check_abstract(d21.abstract_algebra(*d21.standard_sigma()))],
        "jacobi.embedded": [d21.jacobi_check_embedded()],
        "iso": [d21.verify_iso()],
        "virasoro": _virasoro_residuals(lib),
        "contraction.basis": [
            None if quantize.check_contraction(gb[x], gb[y]) else (x, y)
            for x in d21.BASIS_NAMES for y in d21.BASIS_NAMES
        ],
        "homomorphism": [deform.verify_homomorphism(deform.cor42_map()),
                         deform.verify_homomorphism(deform.thm43_map()),
                         deform.verify_thm45()],
        "thm43.order_relations": [deform.verify_order_relations(deform.thm43_map(), 4)],
        "batch.super_jacobi": [_super_jacobi_residual(a, b, c) for a, b, c in inp["jacobi"]],
        "batch.star_assoc": [moyal(moyal(a, b), c) - moyal(a, moyal(b, c))
                             for a, b, c in inp["assoc"]],
        "batch.contraction": [
            quantize.contract(quantize.h_bracket(a, b))
            - quantize.contract(a).poisson(quantize.contract(b))
            for a, b in inp["contraction"]
        ],
    }


def identities_check(lib, inp, result):
    out = []
    for name, residuals in result.items():
        out += check_zero(name, residuals)
    return out


WORKLOADS = {
    "classical_scan": (classical_inputs, classical_run, classical_check),
    "star_scan": (star_scan_inputs, star_scan_run, star_scan_check),
    "star_reps": (star_reps_inputs, star_reps_run, star_reps_check),
    "identities": (identities_inputs, identities_run, identities_check),
}
