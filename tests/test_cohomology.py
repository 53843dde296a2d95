import itertools
import random
import re
from fractions import Fraction

import pytest

from superpds import cohomology as coh
from superpds import d21, deform, linalg
from superpds.expr import parse
from superpds.scalars import POLY_ONE, S_ONE, Scalar
from superpds.symbols import Symbol

ENGINE = coh.poisson_engine()


def mono(**kw):
    return Symbol.monomial(**kw)


def keyset(block):
    return set(coh.enumerate_c0(block, ENGINE))


def _specialized(terms, alpha):
    out = {}
    for key, c in terms.items():
        v = c.specialize(alpha)
        if v:
            out[key] = v
    return out


def _reference_engine(star, alpha, h_depth=None):
    """The engine at alpha with a basis and a structure table of its own,
    the generic engine's specialized at alpha: the oracle of the engine
    ``poisson_engine`` and ``quantized_engine`` return there, which scans
    the generic blocks evaluated at alpha and has no tables of its own.
    Built afresh on each call, so its block store lives as long as the
    test that reads it."""
    generic = coh.quantized_engine(h_depth=h_depth) if star else coh.poisson_engine()
    return coh.Engine({name: Symbol(_specialized(sym.terms, alpha))
                       for name, sym in generic.basis.items()},
                      generic.bracket,
                      {pair: _specialized(coeffs, alpha) for pair, coeffs in generic.struct.items()},
                      generic.h_k_weight, generic.h_depth)


def _engines(star, alpha=None, h_depth=None):
    """(engine, oracle): the engine ``poisson_engine`` or ``quantized_engine``
    returns, and the one the oracles bracket with, the same engine when
    generic, ``_reference_engine`` at a rational alpha."""
    engine = coh.quantized_engine(alpha, h_depth) if star else coh.poisson_engine(alpha)
    return engine, engine if alpha is None else _reference_engine(star, alpha, h_depth)


# -- enumeration ----------------------------------------------------------------


def test_c0_block_k2_n0():
    assert keyset(coh.BlockSpec(2, 0, "K4")) == {
        (1, 1, 0, 0, 0),
        (0, 0, 0b0101, 0, 0),
        (0, 0, 0b1010, 0, 0),
        (-1, -1, 0b1111, 0, 0),
    }
    assert keyset(coh.BlockSpec(2, 0, "K4'")) == {
        (1, 1, 0, 0, 0),
        (0, 0, 0b0101, 0, 0),
        (0, 0, 0b1010, 0, 0),
    }


def test_c0_brute_force_oracle():
    # independent enumeration by scanning an exponent box
    for spec in (
        coh.BlockSpec(0, 0, "P+"),
        coh.BlockSpec(0, 0, "P"),
        coh.BlockSpec(-2, 0, "P+"),
        coh.BlockSpec(4, 2, "P"),
    ):
        brute = set()
        for t in range(-8, 9):
            for u in range(-8, 9):
                for mask in range(16):
                    if mask.bit_count() & 1:
                        continue
                    if (mask & 1) - (mask >> 2 & 1) or (mask >> 1 & 1) - (mask >> 3 & 1):
                        continue
                    if t + u + mask.bit_count() != spec.k or t - u != spec.n:
                        continue
                    if spec.target == "P+" and u < 0:
                        continue
                    brute.add((t, u, mask, 0, 0))
        assert keyset(spec) == brute, spec


def test_c0_pplus_origin_is_constants_only():
    assert keyset(coh.BlockSpec(0, 0, "P+")) == {(0, 0, 0, 0, 0)}


def test_c1_shapes_at_origin():
    slots = coh.enumerate_c1(coh.BlockSpec(0, 0, "P"), ENGINE)
    by_name = {}
    for name, key in slots:
        by_name.setdefault(name, set()).add(key)
    assert by_name["D1"] == {(-1, 0, 0b0001, 0, 0), (-2, -1, 0b1011, 0, 0)}
    assert by_name["H1"] == {
        (0, 0, 0, 0, 0),
        (-1, -1, 0b0101, 0, 0),
        (-1, -1, 0b1010, 0, 0),
        (-2, -2, 0b1111, 0, 0),
    }
    assert by_name["E2"] == {(-1, -1, 0b0011, 0, 0)}
    assert len(slots) == 40


def test_c1_odd_n_with_even_k_is_empty_for_odd_names():
    slots = coh.enumerate_c1(coh.BlockSpec(0, 1, "P"), ENGINE)
    assert not [s for s in slots if s[0] in d21.ODD_NAMES]


# -- differential conventions ------------------------------------------------------


def test_d0_of_constant_is_zero():
    assert not coh.d0(Symbol.constant(1), ENGINE)


def test_d0_coefficient_table():
    # block (k, n) = (0, 2): c0 = t tau^-1, c1 = tau^-2 xi1 eta1, etc.
    # the leading coefficients of (d c_i)(T_j) follow the classical pattern:
    # d c0 gives the common value n/2 - k/2, d c1 hits T1/T3 with +1/-1,
    # d c2 hits T2/T4 with +1/-1.
    g_key = (1, -2, 0b0100, 0, 0)  # t tau^-2 eta1 inside c(T1)
    c0 = mono(t=1, tau=-1)
    dc0 = coh.d0(c0, ENGINE)
    assert dc0.image("T1").coefficient(g_key) == S_ONE
    for name, key in (
        ("T2", (1, -2, 0b1000, 0, 0)),
        ("T3", (1, -2, 0b0001, 0, 0)),
        ("T4", (1, -2, 0b0010, 0, 0)),
    ):
        assert dc0.image(name).coefficient(key) == S_ONE

    c1 = mono(tau=-2, mask=0b0101)
    dc1 = coh.d0(c1, ENGINE)
    assert dc1.image("T1").coefficient(g_key) == S_ONE
    assert dc1.image("T3").coefficient((1, -2, 0b0001, 0, 0)) == -S_ONE
    assert not dc1.image("T2").coefficient((1, -2, 0b1000, 0, 0))

    c2 = mono(tau=-2, mask=0b1010)
    dc2 = coh.d0(c2, ENGINE)
    assert dc2.image("T2").coefficient((1, -2, 0b1000, 0, 0)) == S_ONE
    assert dc2.image("T4").coefficient((1, -2, 0b0010, 0, 0)) == -S_ONE
    assert not dc2.image("T1").coefficient(g_key)


def test_d0_of_gap_monomial_is_theta():
    c3 = mono(t=-1, tau=-1, mask=0b1111)
    dc3 = coh.d0(c3, ENGINE, coh.BlockSpec(2, 0, "K4"))
    theta = coh.named_cocycle("theta")
    assert coh.Cochain1(dc3.images) == coh.Cochain1(theta.images)


def test_d0_gap_coefficient_pattern():
    # the s/q coefficient pattern of d(c3): s1 = s3 = -s2 = -s4 = 1 and
    # q1 = q3 = -q2 = -q4 = 1 against the two-term odd-image template
    c3 = mono(t=-1, tau=-1, mask=0b1111)
    dc3 = coh.d0(c3, ENGINE)
    s_pattern = {
        "T1": (0, -1, 0b1110, 0, 0),
        "T2": (0, -1, 0b1101, 0, 0),
        "T3": (0, -1, 0b1011, 0, 0),
        "T4": (0, -1, 0b0111, 0, 0),
    }
    q_pattern = {
        "D1": (-1, 0, 0b1011, 0, 0),
        "D2": (-1, 0, 0b0111, 0, 0),
        "D3": (-1, 0, 0b1110, 0, 0),
        "D4": (-1, 0, 0b1101, 0, 0),
    }
    for sign, names in ((S_ONE, ("T1", "T3")), (-S_ONE, ("T2", "T4"))):
        for name in names:
            assert dc3.image(name).coefficient(s_pattern[name]) == sign, name
    for sign, names in ((S_ONE, ("D1", "D3")), (-S_ONE, ("D2", "D4"))):
        for name in names:
            assert dc3.image(name).coefficient(q_pattern[name]) == sign, name
    # no leading (g/r) components at all
    for name in ("T1", "T2", "T3", "T4"):
        assert len(dc3.image(name).terms) == 1
    for name in ("D1", "D2", "D3", "D4"):
        assert len(dc3.image(name).terms) == 1


def test_named_cocycles_are_cocycles():
    for name in ("theta1", "theta2", "theta"):
        assert coh.pairmap_is_zero(coh.d1(coh.named_cocycle(name), ENGINE)), name


def test_named_cocycle_frozen_values():
    th1 = coh.named_cocycle("theta1")
    assert th1.image("D3") == parse("t^-1*eta1")
    assert th1.image("F1") == parse("2*t^-1*tau")
    assert th1.image("H1") == parse("1")
    assert not th1.image("E1")
    th2 = coh.named_cocycle("theta2")
    assert th2.image("D3") == parse("-(1+alpha)*t^-2*tau^-1*xi2*eta1*eta2")
    assert th2.image("E1") == parse(
        "t*tau^-1 - tau^-2*xi1*eta1 - tau^-2*xi2*eta2 - 2*t^-1*tau^-3*xi1*xi2*eta1*eta2"
    )
    th = coh.named_cocycle("theta")
    assert th.image("F1") == parse("-2*t^-2*xi1*xi2*eta1*eta2")
    assert th.image("T2") == parse("-tau^-1*xi1*eta1*eta2")


def test_d1_after_d0_vanishes_on_random_blocks():
    rng = random.Random(99)
    checked = 0
    while checked < 25:
        k = rng.randrange(-4, 5)
        n = rng.randrange(-4, 5)
        block = coh.BlockSpec(k, n, rng.choice(["P", "P+"]))
        for key in coh.enumerate_c0(block, ENGINE):
            c = coh.d0(Symbol({key: Scalar.from_fraction(1)}), ENGINE, block)
            assert coh.pairmap_is_zero(coh.d1(c, ENGINE)), (block, key)
            checked += 1


@pytest.mark.parametrize("image", [mono(t=1), coh.SYM_ZERO], ids=["nonzero", "zero"])
def test_cochain_rejects_unknown_names(image):
    # names are checked before zero images are dropped
    with pytest.raises(ValueError, match="unknown basis name 'Q9'"):
        coh.Cochain1({"Q9": image})


def test_validate_cochain_block_membership():
    th = coh.named_cocycle("theta")
    ENGINE.validate_cochain(th, th.block)
    with pytest.raises(ValueError):
        ENGINE.validate_cochain(th, coh.BlockSpec(2, 2, "K4'"))
    # each named cocycle lies in its own block, under the engine the
    # cocycle command picks for it
    for name in ("theta1", "theta2", "theta", "thetabar1"):
        c = coh.named_cocycle(name)
        engine = coh.quantized_engine() if name == "thetabar1" else ENGINE
        engine.validate_cochain(c, c.block)


VALIDATION_ENGINES = {
    "poisson": coh.poisson_engine,
    "poisson-alpha1": lambda: coh.poisson_engine(alpha=1),
    "star": coh.quantized_engine,
}


def _validation_blocks():
    for target in coh.TARGETS:
        for k in [2] if target in ("K4", "K4'") else range(-2, 5):
            for n in range(-3, 4):
                yield coh.BlockSpec(k, n, target)


def _elementary(name, key, block, beta=0, h=0):
    t, u, m, b, hp = key
    return coh.Cochain1({name: Symbol({(t, u, m, b + beta, hp + h): S_ONE})}, block)


@pytest.mark.parametrize("engine_name", list(VALIDATION_ENGINES))
def test_validate_cochain_is_slot_membership(engine_name):
    engine = VALIDATION_ENGINES[engine_name]()
    capped = coh.quantized_engine(h_depth=1)
    kinds = set()
    for block in _validation_blocks():
        outside = re.escape("is not a slot of block (k=%d, n=%d, %s)"
                            % (block.k, block.n, block.target))
        bad = []
        for name, key in coh.enumerate_c1(block, engine):
            engine.validate_cochain(_elementary(name, key, block), block)
            bad.append(("beta", engine, _elementary(name, key, block, beta=1)))
            if not engine.h_k_weight:
                bad.append(("h", engine, _elementary(name, key, block, h=1)))
            elif key[4] > 1:
                bad.append(("h above cap", capped, _elementary(name, key, block)))
            else:
                capped.validate_cochain(_elementary(name, key, block), block)
        if block.target == "P+":
            # the P slots of the same gradings that carry tau^-1
            for name, key in coh.enumerate_c1(coh.BlockSpec(block.k, block.n, "P"), ENGINE):
                if key[1] == -1:
                    bad.append(("tau^-1", engine, _elementary(name, key, block)))
        for kind, eng, c in bad:
            with pytest.raises(ValueError, match=outside):
                eng.validate_cochain(c, block)
            kinds.add(kind)
    assert kinds == {"beta", "tau^-1", "h above cap" if engine.h_k_weight else "h"}


# -- block dimensions ------------------------------------------------------------


@pytest.mark.parametrize(
    "k,n,target,dim",
    [
        (0, 0, "P", 2),
        (0, 0, "P+", 1),
        (2, 0, "K4'", 1),
        (2, 0, "K4", 0),
        (4, 2, "P", 0),
        (2, 2, "P", 0),
        (-2, 0, "P", 0),
    ],
)
def test_h1_block_dims(k, n, target, dim):
    rpt = coh.h1_block(coh.BlockSpec(k, n, target), ENGINE, representatives=False)
    assert rpt.dim_h1 == dim
    assert rpt.dim_h1 == rpt.dim_cocycles - rpt.dim_coboundaries


def test_h1_block_representatives_cohomologous_to_named():
    block = coh.BlockSpec(0, 0, "P")
    rpt = coh.h1_block(block, ENGINE)
    assert len(rpt.representatives) == 2
    th1, th2 = coh.named_cocycle("theta1"), coh.named_cocycle("theta2")
    mat = []
    for rep in rpt.representatives:
        res = coh.express_modulo_coboundaries(rep, [th1, th2], block, ENGINE)
        assert res is not None
        coeffs, preimage = res
        # the certificate really certifies: subtracting gives a coboundary
        delta = rep - th1.scale(coeffs[0]) - th2.scale(coeffs[1])
        again = coh.is_coboundary(coh.Cochain1(delta.images, block), ENGINE)
        assert again is not None
        mat.append(coeffs)
    det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    assert det


@pytest.mark.parametrize(
    "make_engine,k,target",
    [(lambda: ENGINE, 0, "P"), (lambda: ENGINE, 2, "K4'"), (coh.quantized_engine, 4, "P+")],
    ids=["P", "K4'", "star P+"],
)
def test_exact_block_pivots_once(monkeypatch, make_engine, k, target):
    # rank d1 + rank d0 + dim H^1 = N pivots: no matrix is eliminated twice
    engine, block = make_engine(), coh.BlockSpec(k, 0, target)
    step, pivots = linalg._Elimination.step, []

    def counted(self):
        pivots.append(1)
        return step(self)

    monkeypatch.setattr(linalg._Elimination, "step", counted)
    rpt = coh.h1_block(block, engine)
    assert rpt.representatives
    assert len(pivots) == len(coh.enumerate_c1(block, engine))


def test_dims_stable_under_adding_coboundaries():
    block = coh.BlockSpec(0, 0, "P")
    rpt = coh.h1_block(block, ENGINE)
    shifted = rpt.representatives[0] + coh.d0(
        Symbol.monomial(t=-1, tau=-1, mask=0b0101), ENGINE, block
    )
    assert coh.pairmap_is_zero(coh.d1(shifted, ENGINE))
    res = coh.express_modulo_coboundaries(
        shifted,
        [coh.named_cocycle("theta1"), coh.named_cocycle("theta2")],
        block,
        ENGINE,
    )
    assert res is not None


def test_is_coboundary_certificates():
    theta_in_k4 = coh.Cochain1(
        coh.named_cocycle("theta").images, coh.BlockSpec(2, 0, "K4")
    )
    pre = coh.is_coboundary(theta_in_k4, ENGINE)
    assert pre == Symbol.monomial(t=-1, tau=-1, mask=0b1111)
    assert coh.is_coboundary(coh.named_cocycle("theta"), ENGINE) is None
    th1 = coh.Cochain1(coh.named_cocycle("theta1").images, coh.BlockSpec(0, 0, "P"))
    assert coh.is_coboundary(th1, ENGINE) is None


# -- cup products -------------------------------------------------------------------


def test_cup_theta_theta_vanishes_identically():
    theta = coh.named_cocycle("theta")
    assert coh.pairmap_is_zero(coh.cup(theta, theta, ENGINE))


def test_cup_theta1_theta1():
    th1 = coh.named_cocycle("theta1")
    cp = coh.cup(th1, th1, ENGINE)
    # hand expansion: [[theta1, theta1]](D1, D3) = 2 {t^-1 xi1, t^-1 eta1}
    assert cp[("D1", "D3")] == parse("2*t^-2")
    # theta1(H1) = 1 is central, so the (F1, H1) pair contributes nothing
    assert not cp[("F1", "H1")]
    assert not coh.pairmap_is_zero(cp)


def test_cup_with_zero_is_zero():
    z = coh.Cochain1({})
    assert coh.pairmap_is_zero(coh.cup(z, coh.named_cocycle("theta1"), ENGINE))


# -- obstruction solving ---------------------------------------------------------


def test_solve_obstruction_for_theta1():
    block = coh.BlockSpec(-2, 0, "P+")
    sol = coh.solve_obstruction(coh.named_cocycle("theta1"), block, ENGINE)
    assert sol is not None
    diff = sol - coh.Cochain1({"F1": Symbol.monomial(t=-2)}, block)
    assert coh.pairmap_is_zero(coh.d1(diff, ENGINE))


def test_solve_obstruction_for_theta_is_zero():
    sol = coh.solve_obstruction(
        coh.named_cocycle("theta"), coh.BlockSpec(2, 0, "K4'"), ENGINE
    )
    assert sol is not None and not sol


def test_solve_obstruction_zero_cochain():
    sol = coh.solve_obstruction(coh.Cochain1({}), coh.BlockSpec(-2, 0, "P+"), ENGINE)
    assert sol is not None and not sol


# -- specialization consistency -----------------------------------------------------


@pytest.mark.parametrize("alpha", [0, 2, Fraction(1, 2), 3])
def test_specialized_ranks_match_generic(alpha):
    generic = coh.h1_block(coh.BlockSpec(0, 0, "P"), ENGINE, representatives=False)
    special = coh.h1_block(
        coh.BlockSpec(0, 0, "P"), coh.poisson_engine(alpha=alpha), representatives=False
    )
    roots = set()
    for p in generic.pivot_polynomials:
        if p.evaluate(Fraction(alpha)) == 0:
            roots.add(alpha)
    if alpha not in roots:
        assert (special.dim_cocycles, special.dim_h1) == (
            generic.dim_cocycles,
            generic.dim_h1,
        )


@pytest.mark.parametrize("alpha", [1, -1])
def test_exceptional_alpha_dims_direct(alpha):
    eng = coh.poisson_engine(alpha=alpha)
    assert coh.h1_block(coh.BlockSpec(0, 0, "P"), eng, representatives=False).dim_h1 == 2
    assert coh.h1_block(coh.BlockSpec(0, 0, "P+"), eng, representatives=False).dim_h1 == 1
    assert coh.h1_block(coh.BlockSpec(2, 0, "K4'"), eng, representatives=False).dim_h1 == 1


@pytest.mark.parametrize("alpha", [1, -1, 0, Fraction(3, 2)], ids=["1", "-1", "0", "3/2"])
def test_specialized_engines_are_evaluations(alpha):
    # an engine at alpha is a view of the uncapped generic engine, read
    # through the substitution of alpha: it shares its tables, its slot
    # sets unless it has a cap, and holds no block store
    cases = [(coh.poisson_engine(alpha), coh.poisson_engine()),
             (coh.quantized_engine(alpha, h_depth=2), coh.quantized_engine())]
    for engine, source in cases:
        for name in ("basis", "bracket", "struct", "pairs", "incidence", "metadata"):
            assert getattr(engine, name) is getattr(source, name), name
        assert engine.h_k_weight == source.h_k_weight
        assert engine._source[0] is source and engine._blocks is None
    assert (cases[0][0].h_depth, cases[1][0].h_depth) == (0, 2)
    assert cases[0][0]._slot_sets is coh.poisson_engine()._slot_sets
    assert cases[1][0]._slot_sets is not coh.quantized_engine()._slot_sets
    # the star rule tau >= 0 holds for the star engine only
    block = coh.BlockSpec(0, 0, "P")
    poisson, star = (engine for engine, _ in cases)
    assert any(key[1] < 0 for _, key in coh.enumerate_c1(block, poisson))
    for k in (0, 2, 4):
        for n in (-2, 0, 2):
            block = coh.BlockSpec(k, n, "P")
            assert all(key[1] >= 0 for _, key in coh.enumerate_c1(block, star))
            assert all(key[1] >= 0 for key in coh.enumerate_c0(block, star))
    # the substitution gives rational constants: their F_p image does not
    # depend on the alpha drawn
    for engine, _ in cases:
        value = engine._source[1]
        coeffs = [c for sym in engine.basis.values() for c in sym.terms.values()]
        coeffs += [c for terms in engine.struct.values() for c in terms.values()]
        for v in map(value, coeffs):
            assert v.is_rational() and v.mod_p(2, coh.FP_PRIME) == v.mod_p(12345, coh.FP_PRIME)


# -- block assembly ---------------------------------------------------------------


ASSEMBLY_ENGINES = {
    "generic": lambda: coh.poisson_engine(),
    "alpha=1": lambda: _reference_engine(False, 1),
    "star": lambda: coh.quantized_engine(),
}


@pytest.mark.parametrize("engine_name", sorted(ASSEMBLY_ENGINES))
@pytest.mark.parametrize("k,n,target", [(0, 0, "P"), (2, -2, "P+"), (2, 2, "K4"), (2, 0, "K4'")])
def test_assembly_matches_d1_and_d0(engine_name, k, n, target):
    engine = ASSEMBLY_ENGINES[engine_name]()
    block = coh.BlockSpec(k, n, target)
    one = Scalar.from_fraction(1)
    slots, columns, _ = coh._d1_columns(block, engine)
    assert slots
    for (name, key), col in zip(slots, columns):
        values = coh.d1(coh.Cochain1({name: Symbol({key: one})}, block), engine)
        expected = {
            (pi, mk): c
            for pi, pair in enumerate(engine.pairs)
            for mk, c in values[pair].terms.items()
        }
        assert col == expected, (name, key)
    mon0, bcols = coh._d0_columns(block, engine)
    for key, col in zip(mon0, bcols):
        assert col == coh._cochain_vector(coh.d0(Symbol({key: one}), engine)), key


@pytest.mark.parametrize("engine_name", sorted(ASSEMBLY_ENGINES))
def test_row_shared_brackets_give_fresh_columns(engine_name):
    # entry order matters too: it steers the pivot choice of the elimination.
    # d0 read from d1's table gives the columns of its own table, and
    # reading leaves the table as it was
    engine = ASSEMBLY_ENGINES[engine_name]()
    for n in range(-3, 4):
        block = coh.BlockSpec(2, n, "P+")
        table = coh._d1_columns(block, engine)[2]
        before = {pair: list(terms.items()) for pair, terms in table.items()}
        keys, cols = coh._d0_columns(block, engine, table)
        fresh_keys, fresh = coh._d0_columns(block, engine)
        assert keys == fresh_keys
        assert [list(c.items()) for c in cols] == [list(c.items()) for c in fresh]
        assert {pair: list(terms.items()) for pair, terms in table.items()} == before


PARITY_ENGINES = {
    **ASSEMBLY_ENGINES,
    "star h_depth=2": lambda: coh.quantized_engine(h_depth=2),
}
# star blocks (4, 0), (6, 0) and (4, -2) hold several h powers per slot name
PARITY_BLOCKS = {
    "poisson": [(0, 0, "P"), (-2, 0, "P+"), (2, -2, "P+"), (2, 0, "K4"), (2, 0, "K4'")],
    "star": [(0, 0, "P+"), (4, 0, "P+"), (6, 0, "P+"), (4, -2, "P+")],
}


def _unit_bracket(engine, name, key):
    return engine.bracket(engine.basis[name], Symbol({key: S_ONE})).terms


def _reference_columns(block, engine):
    """d1 and d0 columns of the block from one kernel call per (name, key)
    pair, entries summed in incidence order, a cancelled entry dropped."""
    d1_columns = []
    for name0, key0 in coh.enumerate_c1(block, engine):
        vec: dict = {}
        for pi, parts, coeff in engine.incidence[name0]:
            terms = [((pi, mk), c if sign > 0 else -c)
                     for name, sign in parts
                     for mk, c in _unit_bracket(engine, name, key0).items()]
            if coeff is not None:
                terms.append(((pi, key0), coeff))
            for key, c in terms:
                if key not in vec:
                    vec[key] = c
                elif vec[key] + c:
                    vec[key] = vec[key] + c
                else:
                    del vec[key]
        d1_columns.append(vec)
    d0_columns = [{(name, mk): c for name in d21.BASIS_NAMES
                   for mk, c in _unit_bracket(engine, name, key).items()}
                  for key in coh.enumerate_c0(block, engine)]
    return d1_columns, d0_columns


def _entries(columns):
    return [list(col.items()) for col in columns]


@pytest.mark.parametrize("engine_name", sorted(PARITY_ENGINES))
def test_batched_assembly_matches_per_pair_brackets(engine_name):
    # entry for entry and in order: the order steers the pivot choice.  On
    # the generator rows, most names are bracketed with fewer keys, and the
    # table still holds every bracket d0 reads
    engine = PARITY_ENGINES[engine_name]()
    touched = {pi for pi, (x, y) in enumerate(engine.pairs)
               if x in coh.GENERATORS or y in coh.GENERATORS}
    assert (len(touched), len(engine.pairs)) == (59, 144)
    for k, n, target in PARITY_BLOCKS["star" if engine.h_k_weight else "poisson"]:
        block = coh.BlockSpec(k, n, target)
        ref_d1, ref_d0 = _reference_columns(block, engine)
        for generators, rows in ((d21.BASIS_NAMES, None), (coh.GENERATORS, touched)):
            _, columns, table = coh._d1_columns(block, engine, generators)
            assert _entries(columns) == [[(key, c) for key, c in col.items()
                                          if rows is None or key[0] in rows]
                                         for col in ref_d1], (block, generators)
            assert _entries(coh._d0_columns(block, engine, table)[1]) == _entries(ref_d0), block
        assert _entries(coh._d0_columns(block, engine)[1]) == _entries(ref_d0), block


@pytest.mark.parametrize("engine_name", sorted(PARITY_ENGINES))
def test_assembly_brackets_once_per_name(engine_name, monkeypatch):
    engine = PARITY_ENGINES[engine_name]()
    block = coh.BlockSpec(4, 0, "P+") if engine.h_k_weight else coh.BlockSpec(0, 0, "P")
    calls = []
    bracket = engine.bracket

    def counted(a, b):
        calls.append(a)
        return bracket(a, b)

    monkeypatch.setattr(engine, "bracket", counted)

    def calls_of(assemble, *args):
        calls.clear()
        out = assemble(block, engine, *args)
        # each call brackets a different basis element
        assert len({id(a) for a in calls}) == len(calls)
        return len(calls), out

    for generators in (d21.BASIS_NAMES, coh.GENERATORS):
        count, (_, _, table) = calls_of(coh._d1_columns, generators)
        assert count == len(d21.BASIS_NAMES)
        # the C^0 keys are H1's slot keys, so d1's table holds every d0 bracket
        assert calls_of(coh._d0_columns, table)[0] == 0
    assert calls_of(coh._d0_columns)[0] == len(d21.BASIS_NAMES)


@pytest.mark.parametrize("engine_name", sorted(PARITY_ENGINES))
def test_c0_keys_are_h1_slot_keys(engine_name):
    # what lets _d0_columns read the table _d1_columns made
    engine = PARITY_ENGINES[engine_name]()
    for target in ("P", "P+", "K4", "K4'"):
        for k in [2] if target.startswith("K4") else range(-6, 7):
            for n in range(-3, 4):
                block = coh.BlockSpec(k, n, target)
                h1_keys = [key for name, key in coh.enumerate_c1(block, engine) if name == "H1"]
                assert coh.enumerate_c0(block, engine) == h1_keys, block


def test_engine_refuses_beta_in_basis():
    # beta tags the monomials of a batched bracket, so the basis must not carry it
    basis = dict(d21.embedded_basis())
    basis["E1"] = basis["E1"] + mono(t=2, beta=1)
    with pytest.raises(ValueError, match="E1 has a beta term"):
        coh.Engine(basis, lambda a, b: a.poisson(b), d21.structure_table(), 0, 0)


def _specialized_cochain(c, alpha):
    return coh.Cochain1({name: Symbol({key: v.specialize(alpha) for key, v in sym.terms.items()})
                         for name, sym in c.images.items()}, c.block)


def test_engine_at_alpha_refuses_cochain_operations():
    # an engine at alpha has the generic basis and table, so every
    # operation that brackets with them refuses it, with one message
    engine, reference = _engines(False, 1)
    theta1 = coh.named_cocycle("theta1")
    theta2 = _specialized_cochain(coh.named_cocycle("theta2"), 1)
    block = coh.BlockSpec(-2, 0, "P")
    refused = [
        lambda: coh.d0(mono(t=1, tau=-1), engine),
        lambda: coh.cup(theta1, theta2, engine),
        lambda: coh.d1(theta2, engine),
        lambda: coh.solve_obstruction(theta2, block, engine),
        lambda: coh.is_coboundary(theta2, engine),
        lambda: coh.express_modulo_coboundaries(theta1, [theta2], theta2.block, engine),
        lambda: deform.DeformedMap([theta1], engine),
        lambda: coh.d1(_specialized_cochain(coh.named_cocycle("thetabar1"), 1),
                       coh.quantized_engine(alpha=1)),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="^an engine at a fixed alpha only scans"):
            call()
    # on the reference engine at alpha = 1, theta2 specialized is a cocycle
    # and its obstruction solves; the generic engine takes alpha as before
    assert coh.pairmap_is_zero(coh.d1(theta2, reference))
    assert coh.solve_obstruction(theta2, block, reference) is not None
    assert coh.pairmap_is_zero(coh.d1(theta1.scale(Fraction(1, 3)), reference))
    assert coh.pairmap_is_zero(coh.d1(coh.named_cocycle("theta2"), ENGINE))


# -- the F_p certificate against the exact path ---------------------------------------


WINDOW6 = range(-6, 7)
CERTIFIED_SCANS = {  # (star, alpha, target, window)
    "P": (False, None, "P", WINDOW6),
    "P+": (False, None, "P+", WINDOW6),
    "K4": (False, None, "K4", WINDOW6),
    "K4'": (False, None, "K4'", WINDOW6),
    "P@alpha=1": (False, 1, "P", WINDOW6),
    "star P+": (True, None, "P+", range(-4, 5)),
}


def _every_row_report(block, engine, representatives=True):
    """The exact report with d1 assembled and eliminated on every pair,
    whatever generating set the engine certifies: the oracle of the paths
    that use the rows of that set, ``h1_block`` and the scans, given the
    oracle's engine (``_engines``)."""
    slots, columns, table = coh._d1_columns(block, engine)
    if not slots:
        return coh.CohomologyReport(block, 0, 0, 0, [], [], "empty")
    bcols = coh._d0_columns(block, engine, table)[1]
    return coh._h1_exact(block, slots, columns, bcols, representatives)


def _exact_dims(reports, engine):
    """(Z, B, H^1) of the every-row elimination on each report's block."""
    out = []
    for rpt in reports:
        exact = _every_row_report(rpt.block, engine, representatives=False)
        out.append((exact.dim_cocycles, exact.dim_coboundaries, exact.dim_h1))
    return out


@pytest.mark.parametrize("scan", sorted(CERTIFIED_SCANS))
def test_modp_certificate_matches_exact(scan):
    star, alpha, target, window = CERTIFIED_SCANS[scan]
    engine, oracle = _engines(star, alpha)
    reports = coh.h1_scan(window, window, target, engine, representatives=False)
    assert [(r.dim_cocycles, r.dim_coboundaries, r.dim_h1) for r in reports] == \
        _exact_dims(reports, oracle)
    for rpt in reports:
        if rpt.block.n:
            expected = "cartan-zero"
        elif not coh.enumerate_c1(rpt.block, engine):
            expected = "empty"
        else:
            # every nonzero block of these scans has an F_p image
            expected = "cocycle-witness" if rpt.dim_h1 else "modp-zero"
        assert rpt.certificate == expected, rpt.block
    # a certificate settles some block with cocycles: not only empty ones
    assert any(r.dim_cocycles for r in reports if r.certificate != "exact")


def _has_fp_image(columns):
    try:
        for vec in columns:
            for c in vec.values():
                c.mod_p(coh.FP_ALPHA, coh.FP_PRIME)
    except ValueError:  # FP_PRIME divides a denominator
        return False
    return True


def test_scan_without_fp_image_runs_exact():
    # at alpha = 1/p no structure constant has an F_p image, so no set
    # certifies and scans take the full basis, the every-row elimination's
    # rows; a block whose matrices meet that denominator is "exact", where
    # the generic scan reads "modp-zero" or, on a nonzero block,
    # "cocycle-witness"; every other label and every dimension stay the
    # generic ones
    engine, oracle = _engines(False, Fraction(1, coh.FP_PRIME))
    assert engine.generators == oracle.generators == d21.BASIS_NAMES
    window = range(-2, 3)
    for target, expected in (("P", [(-2, 0), (0, 0), (2, 0)]), ("P+", [(0, 0), (2, 0)])):
        reports = coh.h1_scan(window, window, target, engine, representatives=False)
        generic = coh.h1_scan(window, window, target, ENGINE, representatives=False)
        assert [(r.dim_cocycles, r.dim_coboundaries, r.dim_h1) for r in reports] == \
            _exact_dims(reports, oracle)
        no_image, relabelled = [], []
        for rpt, ref in zip(reports, generic):
            assert (rpt.block, rpt.dim_cocycles, rpt.dim_coboundaries, rpt.dim_h1) == \
                (ref.block, ref.dim_cocycles, ref.dim_coboundaries, ref.dim_h1)
            if rpt.certificate != ref.certificate:
                relabelled.append((rpt.block.k, rpt.block.n))
            if rpt.block.n == 0:
                _, columns, table = coh._d1_columns(rpt.block, oracle)
                columns += coh._d0_columns(rpt.block, oracle, table)[1]
                if not _has_fp_image(columns):
                    no_image.append((rpt.block.k, rpt.block.n))
                    assert rpt.certificate == "exact", rpt.block
                    exact = _every_row_report(rpt.block, oracle, representatives=False)
                    assert _report_key(rpt) == _report_key(exact), rpt.block
        assert set(relabelled) <= set(no_image)
        assert relabelled == expected, target


# -- the cocycle witness against the exact path -----------------------------------------


WITNESS_K = range(-8, 9)
STAR_WITNESS_K = range(-6, 11)
WITNESS_SCANS = (  # (star, alpha, target, ks)
    [(False, None, target, WITNESS_K) for target in coh.TARGETS]
    + [(True, None, "P+", STAR_WITNESS_K),
       (False, 1, "P", WITNESS_K),
       (False, -1, "P", WITNESS_K),
       (False, -1, "P+", WITNESS_K),
       (True, 1, "P+", STAR_WITNESS_K),
       (True, -1, "P+", STAR_WITNESS_K)]
    + [(False, 0, target, WITNESS_K) for target in coh.TARGETS]
)


def _report_key(rpt):
    return (rpt.dim_cocycles, rpt.dim_coboundaries, rpt.dim_h1,
            [str(p) for p in rpt.pivot_polynomials])


def _assert_same_classes(rpt, exact, engine):
    """rpt's representatives are cocycles, and modulo the coboundaries an
    invertible combination of exact's."""
    rows = []
    for rep in rpt.representatives:
        assert coh.pairmap_is_zero(coh.d1(rep, engine)), rpt.block
        solved = coh.express_modulo_coboundaries(rep, exact.representatives, rpt.block, engine)
        assert solved is not None, rpt.block
        rows.append(linalg.clear_denominators(dict(enumerate(solved[0])))[0])
    assert linalg.poly_rank(rows)[0] == len(exact.representatives) == rpt.dim_h1, rpt.block


@pytest.mark.parametrize("representatives", [False, True])
def test_cocycle_witness_matches_exact(representatives):
    # every n = 0 block of the set: the witness settles each nonzero one,
    # with the every-row elimination's dimensions and pivot list, and
    # representatives that span the same classes as its representatives
    blocks, settled = 0, 0
    for star, alpha, target, ks in WITNESS_SCANS:
        engine, oracle = _engines(star, alpha)
        for rpt in coh.h1_scan(ks, [0], target, engine, representatives=representatives):
            blocks += 1
            assert rpt.certificate in ("empty", "modp-zero", "cocycle-witness"), rpt.block
            if rpt.certificate == "cocycle-witness":
                settled += 1
                exact = _every_row_report(rpt.block, oracle, representatives)
                assert _report_key(rpt) == _report_key(exact), (target, rpt.block)
                assert rpt.dim_h1
                assert len(rpt.representatives) == (rpt.dim_h1 if representatives else 0)
                if representatives:
                    _assert_same_classes(rpt, exact, oracle)
    assert (blocks, settled) == (174, 27)


WITNESS_BLOCKS = [
    (lambda: ENGINE, coh.BlockSpec(0, 0, "P")),
    (lambda: ENGINE, coh.BlockSpec(2, 0, "K4'")),
    (lambda: coh.quantized_engine(), coh.BlockSpec(2, 0, "P+")),
    (lambda: coh.quantized_engine(), coh.BlockSpec(4, 0, "P+")),
]
WITNESS_IDS = ["P(0,0)", "K4'(2,0)", "star(2,0)", "star(4,0)"]


@pytest.mark.parametrize(
    "make_engine,block,representatives",
    [(*case, reps) for reps in (False, True) for case in WITNESS_BLOCKS],
    ids=[name + ("+reps" if reps else "") for reps in (False, True) for name in WITNESS_IDS])
def test_cocycle_witness_falls_back_to_exact(make_engine, block, representatives, monkeypatch):
    engine = make_engine()
    exact = coh.h1_block(block, engine, representatives=representatives)
    [rpt] = coh.h1_scan([block.k], [0], block.target, engine, representatives=representatives)
    assert rpt.certificate == "cocycle-witness"
    rank_mod_p, kernel_basis = linalg.rank_mod_p, linalg.kernel_basis

    calls = []

    def forged(columns):
        # the first call is the witness's: each kernel vector with its first
        # entry raised by one, no longer a cocycle; the exact path's are real
        kvecs, found = kernel_basis(columns)
        calls.append(columns)
        for kv in kvecs if len(calls) == 1 else ():
            j = next(iter(kv))
            kv[j] = kv[j] + 1
        return kvecs, found

    patches = [
        (linalg, "rank_mod_p", lambda *args: rank_mod_p(*args)[:-1]),  # one pivot key dropped
        (linalg, "kernel_basis", forged),
    ]
    for module, name, patch in patches:
        with monkeypatch.context() as m:
            m.setattr(module, name, patch)
            [rpt] = coh.h1_scan([block.k], [0], block.target, engine, representatives=representatives)
        assert rpt.certificate == "exact", name
        assert _report_key(rpt) == _report_key(exact), name
        assert rpt.representatives == exact.representatives, name
        assert len(rpt.representatives) == (rpt.dim_h1 if representatives else 0)


# -- scans on the rows of a generating set ------------------------------------------


def _fresh_engine(star=False):
    # not a cached engine: its generating set is certified on first read,
    # and its block store is empty
    return coh._engine.__wrapped__(star, None, None)


CERTIFYING = [None, 2, Fraction(1, 2), Fraction(-1, 2), 3, -3]
WIDER = coh.GENERATING_SETS[1]  # GENERATORS with E2 and E3


@pytest.mark.parametrize("make_engine", [coh.poisson_engine, coh.quantized_engine],
                         ids=["poisson", "star"])
def test_generating_set_certificate(make_engine):
    for alpha in CERTIFYING:
        assert make_engine(alpha).generators == coh.GENERATORS, alpha
    # at alpha = +-1 the bracket closure of the four is 15-dimensional, and
    # the six-element set certifies instead
    assert WIDER == coh.GENERATORS + ("E2", "E3")
    for alpha in (1, -1):
        engine = make_engine(alpha)
        assert engine.generators == WIDER, alpha
        assert not coh.generates(engine, coh.GENERATORS)
        assert coh.generates(engine, d21.BASIS_NAMES)
    touched = [pair for pair in ENGINE.pairs if set(pair) & set(WIDER)]
    assert len(touched) == 82


def test_generating_set_is_certified_lazily():
    # building an engine certifies nothing; the first scan does, once
    engine = _fresh_engine()
    assert "generators" not in vars(engine)
    coh.h1_scan([0], [0], "P", engine, representatives=False)
    assert vars(engine)["generators"] == coh.GENERATORS


def test_rows_of_a_set_that_does_not_generate():
    # (E1, F1, H1) spans an sl2, closed under the bracket: on its pairs d1 of
    # P (0, 0) has rank 33, where every row gives 35, so a scan on them would
    # overcount cocycles; the certificate refuses the set
    non_generating = ("E1", "F1", "H1")
    block = coh.BlockSpec(0, 0, "P")
    for generators, rank in ((non_generating, 33), (coh.GENERATORS, 35), (d21.BASIS_NAMES, 35)):
        columns = coh._d1_columns(block, ENGINE, generators)[1]
        assert linalg.poly_rank(linalg.column_rows(columns))[0] == rank, generators
    assert not coh.generates(ENGINE, non_generating)


def test_patched_non_generating_set_gives_oracle_answers(monkeypatch):
    monkeypatch.setattr(coh, "GENERATING_SETS", (("E1", "F1", "H1"),))
    engine = _fresh_engine()
    seen = []
    assemble = coh._d1_columns

    def recorded(block, engine, generators=d21.BASIS_NAMES):
        seen.append(generators)
        return assemble(block, engine, generators)

    monkeypatch.setattr(coh, "_d1_columns", recorded)
    scanned = coh.h1_scan(range(-4, 5), [0], "P", engine)
    blocks = [coh.h1_block(rpt.block, engine) for rpt in scanned]
    monkeypatch.undo()
    # the scan's and h1_block's reports are the every-row elimination's
    # (on the rows of the sl2, were it not refused, P (0, 0) reads Z = 7
    # for 5), because both assembled every pair: the full basis generates
    for rpt in scanned + blocks:
        exact = _every_row_report(rpt.block, engine)
        assert _report_key(rpt) == _report_key(exact), rpt.block
        if rpt.dim_h1:
            _assert_same_classes(rpt, exact, engine)
    assert engine.generators == d21.BASIS_NAMES
    assert seen and set(seen) == {d21.BASIS_NAMES}


ORACLE_ALPHAS = [None, 2, Fraction(-1, 2), 1, -1]
ORACLE_SCANS = [(False, target) for target in coh.TARGETS] + [(True, "P+")]


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS, ids=["generic", "2", "-1/2", "1", "-1"])
def test_generator_row_scans_match_the_oracle(alpha):
    # window 6: the every-row elimination's dimensions, and representatives
    # that are cocycles on every pair and independent modulo the coboundaries
    for star, target in ORACLE_SCANS:
        engine, oracle = _engines(star, alpha)
        assert engine.generators == (WIDER if alpha in (1, -1) else coh.GENERATORS)
        for rpt in coh.h1_scan(WINDOW6, [0], target, engine):
            exact = _every_row_report(rpt.block, oracle, representatives=False)
            assert (rpt.dim_cocycles, rpt.dim_coboundaries, rpt.dim_h1) == \
                (exact.dim_cocycles, exact.dim_coboundaries, exact.dim_h1), (target, rpt.block)
            assert len(rpt.representatives) == rpt.dim_h1
            for i, rep in enumerate(rpt.representatives):
                assert coh.pairmap_is_zero(coh.d1(rep, oracle)), (target, rpt.block)
                assert coh.express_modulo_coboundaries(
                    rep, rpt.representatives[:i], rpt.block, oracle) is None, (target, rpt.block)


ROW_ORACLE_ENGINES = {  # (_engines arguments, targets)
    **{"poisson " + name: ((False, alpha), coh.TARGETS)
       for name, alpha in (("generic", None), ("2", 2), ("1", 1), ("-1", -1))},
    "star generic": ((True,), ["P+"]),
    "star -1/2": ((True, Fraction(-1, 2)), ["P+"]),
    "star h_depth=2": ((True, None, 2), ["P+"]),
}


@pytest.mark.parametrize("engine_name", list(ROW_ORACLE_ENGINES))
def test_h1_block_matches_every_row_elimination(engine_name):
    # h1_block eliminates d1 on the rows of the certified set only: the
    # every-row elimination's Z, B, H^1 and pivot list on every n = 0 block
    # of window 6, and representatives that are cocycles on every pair and
    # independent modulo the coboundaries
    args, targets = ROW_ORACLE_ENGINES[engine_name]
    engine, oracle = _engines(*args)
    assert engine.generators != d21.BASIS_NAMES
    checked = 0
    for target in targets:
        for k in ([2] if target in ("K4", "K4'") else WINDOW6):
            block = coh.BlockSpec(k, 0, target)
            if engine.h_depth and k == 6:
                continue  # d0 leaves (6, 0) under the cap (test below)
            rpt = coh.h1_block(block, engine)
            exact = _every_row_report(block, oracle)
            assert _report_key(rpt) == _report_key(exact), block
            assert rpt.certificate == exact.certificate, block
            assert len(rpt.representatives) == rpt.dim_h1
            for i, rep in enumerate(rpt.representatives):
                assert coh.pairmap_is_zero(coh.d1(rep, oracle)), block
                assert coh.express_modulo_coboundaries(
                    rep, rpt.representatives[:i], block, oracle) is None, block
            checked += rpt.dim_h1 > 0
    assert checked


GATE_ALPHAS = [0, 1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), 3]


@pytest.mark.parametrize("alpha", GATE_ALPHAS + [Fraction(1, coh.FP_PRIME)], ids=str)
def test_alpha_blocks_are_the_evaluated_generic_blocks(alpha):
    # an engine at alpha reads its generic engine's blocks evaluated at
    # alpha: in values and key sets, the columns the reference engine
    # assembles from its own tables, on the rows of the same certified set,
    # the same h1_block report, and the same scan
    for star, targets in ((False, coh.TARGETS), (True, ["P+"])):
        engine, reference = _engines(star, alpha)
        assert engine.generators == reference.generators
        for target in targets:
            ks = [2] if target in ("K4", "K4'") else WINDOW6
            for k in ks:
                block = coh.BlockSpec(k, 0, target)
                slots, columns, mon0, bcols = coh._assembly(block, engine, engine.generators)
                own_slots, own_columns, table = coh._d1_columns(block, reference, engine.generators)
                own_mon0, own_bcols = coh._d0_columns(block, reference, table)
                assert (slots, mon0) == (own_slots, own_mon0), block
                assert (columns, bcols) == (own_columns, own_bcols), block
                own = (coh._h1_exact(block, slots, own_columns, own_bcols, True) if slots else
                       coh.CohomologyReport(block, 0, 0, 0, [], [], "empty"))
                rpt = coh.h1_block(block, engine)
                assert (rpt.to_payload(), rpt.certificate) == (own.to_payload(), own.certificate)
            assert _payloads(coh.h1_scan(ks, [0], target, engine)) == \
                _payloads(coh.h1_scan(ks, [0], target, reference)), target


def test_h1_block_refuses_a_block_the_cap_cuts():
    # h_depth=2 caps the h powers of (6, 0) at 2 where the operator rule
    # allows 3, and d0 of a C^0 key then has terms outside the block
    capped = coh.quantized_engine(h_depth=2)
    with pytest.raises(ValueError, match=r"block \(k=6, n=0, P\+\) .*h_depth=2"):
        coh.h1_block(coh.BlockSpec(6, 0, "P+"), capped)
    assert coh.h1_block(coh.BlockSpec(6, 0, "P+"), coh.quantized_engine()).dim_h1 == 1


def test_empty_blocks_are_labelled_empty():
    # a block with no slots runs no elimination: "empty" in h1_block as in
    # h1_scan, and the label stays out of the payload
    for engine, block in ((ENGINE, coh.BlockSpec(1, 0, "P")),
                          (ENGINE, coh.BlockSpec(-4, 0, "P+")),
                          (coh.quantized_engine(), coh.BlockSpec(3, 0, "P+"))):
        assert not coh.enumerate_c1(block, engine)
        [scanned] = coh.h1_scan([block.k], [0], block.target, engine)
        for rpt in (coh.h1_block(block, engine), scanned):
            assert (rpt.certificate, rpt.dim_cocycles, rpt.dim_coboundaries, rpt.dim_h1) == \
                ("empty", 0, 0, 0), block
            assert "certificate" not in rpt.to_payload()
    # h1_block labels an empty block with n != 0 so too; h1_scan, "cartan-zero"
    block = coh.BlockSpec(0, 1, "P+")
    assert not coh.enumerate_c1(block, ENGINE)
    assert coh.h1_block(block, ENGINE).certificate == "empty"


@pytest.mark.parametrize("scan", ["P+", "star P+"])
def test_scan_assembles_each_block_once(scan, monkeypatch):
    _, _, target, window = CERTIFIED_SCANS[scan]
    engine = _fresh_engine(scan.startswith("star"))
    blocks = []
    assemble = coh._d1_columns

    def counted(block, *args, **kwargs):
        blocks.append(block)
        return assemble(block, *args, **kwargs)

    monkeypatch.setattr(coh, "_d1_columns", counted)
    reports = coh.h1_scan(window, window, target, engine, representatives=False)
    assert blocks == [r.block for r in reports if r.block.n == 0]
    # nonzero blocks too: the exact path reuses the certificate's assembly
    assert any(r.dim_h1 for r in reports)


def _payloads(reports):
    return [(r.to_payload(), r.certificate) for r in reports]


def test_targets_are_cut_out_of_the_stored_p_block(monkeypatch):
    # after a P scan, P+, K4 and K4' assemble nothing: their blocks are
    # cut out of P's, and report what a fresh engine's own assembly does
    ks, ns = range(-6, 7), range(-2, 3)
    engine = _fresh_engine()
    coh.h1_scan(ks, ns, "P", engine)
    assembled = []
    assemble = coh._d1_columns

    def counted(block, *args, **kwargs):
        assembled.append(block)
        return assemble(block, *args, **kwargs)

    monkeypatch.setattr(coh, "_d1_columns", counted)
    derived = {target: coh.h1_scan(ks, ns, target, engine) for target in ("P+", "K4", "K4'")}
    assert assembled == []
    monkeypatch.undo()
    for target, reports in derived.items():
        assert _payloads(reports) == _payloads(coh.h1_scan(ks, ns, target, _fresh_engine()))
    # a lone P+ scan, classical or star, assembles its own blocks, not P's,
    # and stores none
    monkeypatch.setattr(coh, "_d1_columns", counted)
    for star in (False, True):
        lone = _fresh_engine(star)
        coh.h1_scan(ks, [0], "P+", lone)
        assert {block.target for block in assembled} == {"P+"} and lone._blocks == {}


def _store_snapshot(engine):
    return {key: (list(slots), _entries(columns), list(mon0), _entries(bcols))
            for key, (slots, columns, mon0, bcols) in engine._blocks.items()}


def _scans(engine):
    return [
        lambda: coh.h1_scan(range(-2, 3), [0], "P", engine),
        lambda: coh.h1_scan(range(-2, 3), [0], "P+", engine),
        lambda: [coh.h1_block(coh.BlockSpec(k, 0, t), engine) for k, t in
                 ((0, "P"), (0, "P+"), (2, "K4'"), (-2, "P+"))],
    ]


def test_consumers_leave_the_store_as_it_was():
    # every reader of a stored block, the exact paths with representatives
    # included, leaves its lists and dicts as they were stored.  An engine
    # at alpha scans on its generic engine's store and keeps none
    theta1 = coh.named_cocycle("theta1")
    engine, view = _fresh_engine(), coh.poisson_engine(Fraction(-1, 2))
    calls = _scans(engine) + [
        lambda: coh.express_modulo_coboundaries(theta1, [], coh.BlockSpec(0, 0, "P"), engine),
        lambda: coh.is_coboundary(theta1, engine),
        lambda: coh.solve_obstruction(theta1, coh.BlockSpec(-2, 0, "P+"), engine),
    ]
    for store, calls in ((engine, calls), (view._source[0], _scans(view))):
        for call in calls:  # fill the store
            call()
        snapshot = _store_snapshot(store)
        for call in calls:  # read it
            call()
            assert _store_snapshot(store) == snapshot
    # the five P blocks of the P scan: every other target, and the
    # obstruction's P+ block on every row, is cut or assembled unstored
    assert len(_store_snapshot(engine)) == 5
    assert view._blocks is None


def test_capped_view_blocks_are_the_capped_engine_blocks(monkeypatch):
    # a capped view reads the uncapped star engine's P blocks cut to its
    # slots, P and P+ alike, or assembles its own when none is stored: in
    # both cases the columns, entry order included, of an engine built with
    # the cap from the generic basis and table, d0 read alone too.  The cap
    # cuts (6, 0)
    generic, capped = coh.quantized_engine(), coh.quantized_engine(h_depth=2)
    monkeypatch.setattr(generic, "_blocks", {})  # leave the shared store as it was
    reference = coh.Engine(generic.basis, generic.bracket, generic.struct,
                           generic.h_k_weight, h_depth=2)
    rows, cut = capped.generators, set()
    assembled = []
    assemble = coh._d1_columns

    def counted(block, engine, *args):
        assembled.append(engine)
        return assemble(block, engine, *args)

    monkeypatch.setattr(coh, "_d1_columns", counted)
    for stored in (False, True):
        for k, n, target in itertools.product(range(-6, 7), (-2, 0, 2), ("P+", "P")):
            block = coh.BlockSpec(k, n, target)
            if stored:
                coh._assembly(coh.BlockSpec(k, n, "P"), generic, rows)
            slots, columns, mon0, bcols = coh._assembly(block, capped, rows)
            d0_alone = coh._coboundaries(block, capped)
            own_slots, own_columns, table = assemble(block, reference, rows)
            own_mon0, own_bcols = coh._d0_columns(block, reference, table)
            assert (slots, mon0) == (own_slots, own_mon0), block
            assert _entries(columns) == _entries(own_columns), block
            assert _entries(bcols) == _entries(own_bcols), block
            assert (d0_alone[0], _entries(d0_alone[1])) == (own_mon0, _entries(own_bcols))
            if len(slots) < len(coh.enumerate_c1(block, generic)):
                cut.add((k, n))
        # the capped reads stored nothing, not even a capped P block
        assert len(generic._blocks) == (39 if stored else 0)
    # one assembly per capped block, none once the P blocks are stored
    assert assembled.count(capped) == 78
    assert capped._blocks is None
    assert (6, 0) in cut


def test_only_generic_engines_store_and_only_p_blocks(monkeypatch):
    # after scans of every target on the generic engines and on views at
    # alpha, and reports on capped views, each generic store holds P blocks
    # only, keyed (k, n, rows), and no view has a store
    window = range(-4, 5)
    for star in (False, True):
        generic = coh._engine(star, None, None)
        monkeypatch.setattr(generic, "_blocks", {})  # leave the shared store as it was
        targets = ["P+", "P"] if star else coh.TARGETS
        views = [coh._engine(star, alpha, None) for alpha in (1, Fraction(-1, 2))]
        for engine in [generic] + views:
            for target in targets:
                coh.h1_scan(window, [-2, 0, 2], target, engine, representatives=False)
        if star:
            capped = [coh.quantized_engine(alpha, h_depth=2) for alpha in (None, 1)]
            for view, k, target in itertools.product(capped, range(-4, 5), ("P+", "P")):
                coh.h1_block(coh.BlockSpec(k, 0, target), view)
            coh.is_coboundary(coh.named_cocycle("thetabar1"), capped[0])
            views += capped
        assert all(view._blocks is None and view._source[0] is generic for view in views)
        assert generic._blocks
        for (k, n, rows), (slots, _, mon0, _) in generic._blocks.items():
            assert rows in coh.GENERATING_SETS + (d21.BASIS_NAMES,)
            block = coh.BlockSpec(k, n, "P")
            assert (slots, mon0) == (coh.enumerate_c1(block, generic),
                                     coh.enumerate_c0(block, generic)), (k, n)


def test_scan_refuses_capped_engine():
    # with a cap, d0 leaves the block; (0, -2) would read Z = 3 < B = 4
    capped = coh.quantized_engine(h_depth=1)
    with pytest.raises(ValueError, match="h depth cap"):
        coh.h1_scan([0], [-2], "P+", capped)
    with pytest.raises(ValueError, match="h depth cap"):
        coh.h1_scan([0], [0], "P+", coh.quantized_engine(alpha=1, h_depth=2))


def test_one_cache_entry_per_engine():
    assert coh.poisson_engine() is coh.poisson_engine(alpha=None)
    assert coh.poisson_engine(1) is coh.poisson_engine(alpha=1)
    assert coh.quantized_engine() is coh.quantized_engine(h_depth=None)
    assert coh.quantized_engine() is coh.quantized_engine(None, None)
    assert coh.quantized_engine(1, 2) is coh.quantized_engine(alpha=1, h_depth=2)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, "1/3", True, 1j],
                         ids=["0.1", "0.5", "1.0", "'1/3'", "True", "1j"])
def test_builders_take_only_an_int_or_a_fraction(alpha):
    # a float would build an engine at the value it approximates (0.1 is
    # 3602879701896397/36028797018963968), or, equal to a cached rational
    # (0.5, 1.0), read that engine; a string would key a second engine.
    # Refused before the cache, which gains no entry
    coh.poisson_engine(Fraction(1, 2)), coh.quantized_engine(1)
    entries = coh._engine.cache_info().currsize
    for build in (coh.poisson_engine, coh.quantized_engine):
        with pytest.raises(ValueError, match="^alpha must be an int or a Fraction, got %s$"
                           % re.escape(repr(alpha))):
            build(alpha)
    assert coh._engine.cache_info().currsize == entries


@pytest.mark.parametrize("h_depth", [-1, 1.5, "2", True],
                         ids=["-1", "1.5", "'2'", "True"])
def test_quantized_engine_takes_only_a_nonnegative_int_cap(h_depth):
    # -1 gave empty blocks (dim H^1 = 0 at P+ (4, 0)), 1.5 and "2" a
    # TypeError from inside the slot enumeration, and True a cap of 1.
    # Refused before the cache, which gains no entry
    coh.quantized_engine(h_depth=2)
    entries = coh._engine.cache_info().currsize
    with pytest.raises(ValueError, match="^h_depth must be None or an int >= 0, got %s$"
                       % re.escape(repr(h_depth))):
        coh.quantized_engine(h_depth=h_depth)
    assert coh._engine.cache_info().currsize == entries


def test_block_entries_are_polynomials_in_alpha():
    # the premise of evaluating generic blocks at alpha (module docstring):
    # every basis and table coefficient of both engines has denominator 1,
    # so every block entry is a polynomial in alpha and no substitution
    # meets a pole
    for engine in (ENGINE, coh.quantized_engine()):
        coeffs = [c for sym in engine.basis.values() for c in sym.terms.values()]
        coeffs += [c for terms in engine.struct.values() for c in terms.values()]
        assert all(c.ad is POLY_ONE for c in coeffs)


@pytest.mark.parametrize("star,h_depth", [(False, None), (True, None), (True, 2)],
                         ids=["poisson", "star", "star h_depth=2"])
def test_engine_at_alpha_certifies_its_own_generating_set(star, h_depth):
    # built after its generic engine certified GENERATORS, an engine at
    # +-1, where they generate 15 dimensions, still certifies the wider set
    generic = coh._engine(star, None, h_depth)
    assert generic.generators == coh.GENERATORS
    for alpha in (1, -1):
        engine = coh._engine.__wrapped__(star, alpha, h_depth)
        assert engine._source[0] is coh._engine(star, None, None)
        assert engine.generators == WIDER, alpha


@pytest.mark.parametrize("alpha", [None, 1])
def test_engine_bases_list_the_names_in_order(alpha):
    # both engines iterate their basis as BASIS_NAMES, so a beta tag built
    # over ``basis`` reads back by BASIS_NAMES index
    for engine in (coh.poisson_engine(alpha), coh.quantized_engine(alpha)):
        assert list(engine.basis) == list(d21.BASIS_NAMES)


@pytest.mark.parametrize("alpha", [None, 1])
def test_capped_engine_is_the_uncapped_one_with_a_cap(alpha):
    engine, capped = coh.quantized_engine(alpha), coh.quantized_engine(alpha, h_depth=2)
    assert (capped.h_depth, engine.h_depth) == (2, None)
    for name in ("basis", "bracket", "struct", "pairs", "incidence", "metadata"):
        assert getattr(capped, name) is getattr(engine, name), name
    assert capped._slot_sets is not engine._slot_sets
    # no store on a view: blocks are the uncapped generic engine's, cut to
    # the cap and evaluated at alpha
    assert capped._blocks is None and capped._source[0] is coh.quantized_engine()
    if alpha is None:
        assert capped._blocks is not engine._blocks
    else:
        assert capped._blocks is engine._blocks is None
        assert engine._source[0] is coh.quantized_engine()
    # slots depend on the cap: (6, 0) has h powers up to 4 uncapped
    block = coh.BlockSpec(6, 0, "P+")
    assert max(key[4] for _, key in coh.enumerate_c1(block, capped)) == 2
    assert max(key[4] for _, key in coh.enumerate_c1(block, engine)) == 4
    # the uncapped block, stored, is not the capped engine's
    assert coh.h1_block(block, engine).dim_h1 == 1
    with pytest.raises(ValueError, match=r"block \(k=6, n=0, P\+\) .*h_depth=2"):
        coh.h1_block(block, capped)


# -- the Cartan certificate: ad H1 acts on block (k, n) by n --------------------------


CARTAN_ENGINES = {
    "generic": lambda: coh.poisson_engine(),
    "alpha=1": lambda: _reference_engine(False, 1),
    "alpha=-1": lambda: _reference_engine(False, -1),
    "alpha=0": lambda: _reference_engine(False, 0),
    "star": lambda: coh.quantized_engine(),
}


@pytest.mark.parametrize("engine_name", sorted(CARTAN_ENGINES))
def test_ad_h1_is_the_n_degree(engine_name):
    engine = CARTAN_ENGINES[engine_name]()
    h1 = engine.basis["H1"]
    star = bool(engine.h_k_weight)  # the star product needs tau >= 0
    for a in range(-4, 5):
        for b in range(0 if star else -4, 5):
            for mask in range(16):
                for h in range(3 if star else 1):
                    m = mono(t=a, tau=b, mask=mask, h=h)
                    assert engine.bracket(h1, m) == m * (a - b), (a, b, mask, h)


@pytest.mark.parametrize("make_engine,target", [
    (lambda: ENGINE, "P"),
    (lambda: ENGINE, "P+"),
    (lambda: coh.quantized_engine(), "P+"),
], ids=["P", "P+", "star P+"])
def test_cartan_preimage(make_engine, target):
    engine = make_engine()
    for k in range(-2, 3):
        for n in (-2, -1, 1, 2):
            block = coh.BlockSpec(k, n, target)
            slots, columns, _ = coh._d1_columns(block, engine)
            kvecs, _ = linalg.kernel_basis(columns)
            assert len(kvecs) == len(coh.enumerate_c0(block, engine)), block
            for kv in kvecs:
                c = coh._slots_to_cochain(slots, kv, block)
                assert coh.d0(c.image("H1") * Fraction(1, n), engine, block) == c, block


# -- d1 through cup, generates through rank_mod_p: the former loops as oracles --------


def _reference_d1(c, engine):
    """d1 as one loop over the pairs, bracketing only the images c has."""
    images, basis = c.images, engine.basis
    out = {}
    for (x, y) in engine.pairs:
        val = engine.bracket(basis[x], images[y]) if y in images else coh.SYM_ZERO
        if x in images:
            val = val + engine.bracket(images[x], basis[y])
        for name, coeff in engine.struct[(x, y)].items():
            if name in images:
                val = val - images[name] * coeff
        out[(x, y)] = val
    return out


D1_ORACLE_CASES = {  # (star, blocks, named cocycles)
    "poisson": (False, [(0, 0, "P"), (-2, 0, "P+"), (2, 0, "K4'")],
                ("theta2", "theta1", "theta")),
    "star": (True, [(2, 0, "P+")], ("thetabar1",)),
}


@pytest.mark.parametrize("alpha", [None, 1], ids=["generic", "1"])
@pytest.mark.parametrize("case", sorted(D1_ORACLE_CASES))
def test_d1_through_cup_matches_the_pair_loop(case, alpha):
    star, blocks, names = D1_ORACLE_CASES[case]
    engine, oracle = _engines(star, alpha)
    cochains = []
    for k, n, target in blocks:
        block = coh.BlockSpec(k, n, target)
        cochains += [coh.Cochain1({name: Symbol({key: S_ONE})}, block)
                     for name, key in coh.enumerate_c1(block, engine)]
    for name in names:
        c = coh.named_cocycle(name)
        cochains.append(c if alpha is None else _specialized_cochain(c, alpha))
    for c in cochains:
        values, expected = coh.d1(c, oracle), _reference_d1(c, oracle)
        assert list(values) == list(expected) == oracle.pairs
        for pair, val in expected.items():
            assert values[pair] == val, (c, pair)
    if alpha is not None:  # the engine at alpha only scans
        with pytest.raises(ValueError, match="only scans"):
            coh.d1(cochains[-1], engine)


def _reference_generates(engine, names):
    """generates with its own F_p echelon: each element found is reduced
    against the rows kept so far, and bracketed with every element found."""
    p = coh.FP_PRIME
    try:
        struct = {pair: {n: c.mod_p(coh.FP_ALPHA, p) for n, c in coeffs.items()}
                  for pair, coeffs in engine.struct.items()}
    except (ValueError, ZeroDivisionError):
        return False
    found, echelon = [], {}  # pivot name -> reduced row, pivot entry 1
    candidates = [{name: 1} for name in names]
    for vec in candidates:  # grows as elements are found
        if len(found) == len(d21.BASIS_NAMES):
            break
        row = dict(vec)
        for piv, prow in echelon.items():
            if f := row.get(piv):
                for n, v in prow.items():
                    row[n] = (row.get(n, 0) - f * v) % p
        row = {n: v for n, v in row.items() if v}
        if row:
            piv = next(iter(row))
            inv = pow(row[piv], -1, p)
            echelon[piv] = {n: v * inv % p for n, v in row.items()}
            found.append(vec)
            for u in found:
                out: dict = {}
                for a, ua in u.items():
                    for b, vb in vec.items():
                        for n, c in struct[(a, b)].items():
                            out[n] = (out.get(n, 0) + ua * vb * c) % p
                candidates.append(out)
    return len(found) == len(d21.BASIS_NAMES)


GENERATES_ALPHAS = [None, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 2), 3, -3,
                    Fraction(1, coh.FP_PRIME)]


@pytest.mark.parametrize("alpha", GENERATES_ALPHAS, ids=str)
@pytest.mark.parametrize("star", [False, True], ids=["poisson", "star"])
def test_generates_matches_the_echelon(star, alpha):
    # at alpha, generates reads the generic table through the substitution;
    # the echelon reads the reference engine's own table
    engine, oracle = _engines(star, alpha)
    sets = [*coh.GENERATING_SETS, ("E1", "F1", "H1"), d21.BASIS_NAMES]
    answers = [coh.generates(engine, names) for names in sets]
    assert answers == [_reference_generates(oracle, names) for names in sets]
    if alpha is None or alpha == 2:
        assert answers == [True, True, False, True]
    # so every engine certifies the set it did with the echelon
    assert engine.generators == next(
        (names for names in coh.GENERATING_SETS if _reference_generates(oracle, names)),
        d21.BASIS_NAMES)
