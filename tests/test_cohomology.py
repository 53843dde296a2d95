import random
import re
from fractions import Fraction

import pytest

from superpds import cohomology as coh
from superpds import d21, linalg, quantize
from superpds.expr import parse
from superpds.scalars import S_ONE, Scalar
from superpds.symbols import Symbol

ENGINE = coh.poisson_engine()


def mono(**kw):
    return Symbol.monomial(**kw)


def keyset(block):
    return set(coh.enumerate_c0(block, ENGINE))


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


def _specialized(terms, alpha):
    out = {}
    for key, c in terms.items():
        v = c.specialize(alpha)
        if v:
            out[key] = v
    return out


@pytest.mark.parametrize("alpha", [1, -1, 0, Fraction(3, 2)], ids=["1", "-1", "0", "3/2"])
def test_specialized_engines_are_evaluations(alpha):
    struct = {pair: _specialized(c, alpha) for pair, c in d21.structure_table().items()}
    cases = [
        (coh.poisson_engine(alpha), d21.embedded_basis(), 0),
        (coh.quantized_engine(alpha, h_depth=2), quantize.gamma_h_basis(), 2),
    ]
    for engine, basis, h_depth in cases:
        assert {n: s.terms for n, s in engine.basis.items()} == \
            {n: _specialized(s.terms, alpha) for n, s in basis.items()}
        assert engine.struct == struct
        assert engine.h_depth == h_depth
    # the star rule tau >= 0 holds for the star engine only
    block = coh.BlockSpec(0, 0, "P")
    poisson, star = (engine for engine, _, _ in cases)
    assert any(key[1] < 0 for _, key in coh.enumerate_c1(block, poisson))
    for k in (0, 2, 4):
        for n in (-2, 0, 2):
            block = coh.BlockSpec(k, n, "P")
            assert all(key[1] >= 0 for _, key in coh.enumerate_c1(block, star))
            assert all(key[1] >= 0 for key in coh.enumerate_c0(block, star))
    # rational constants: the F_p image does not depend on the alpha drawn
    for engine, _, _ in cases:
        images = [engine.evaluated(lambda c: c.mod_p(a, coh.FP_PRIME)) for a in (2, 12345)]
        for image in images:
            assert {n: s.terms for n, s in image.basis.items()} == \
                {n: s.terms for n, s in images[0].basis.items()}
            assert image.struct == images[0].struct


# -- block assembly ---------------------------------------------------------------


ASSEMBLY_ENGINES = {
    "generic": lambda: coh.poisson_engine(),
    "alpha=1": lambda: coh.poisson_engine(alpha=1),
    "star": lambda: coh.quantized_engine(),
}


@pytest.mark.parametrize("engine_name", sorted(ASSEMBLY_ENGINES))
@pytest.mark.parametrize("k,n,target", [(0, 0, "P"), (2, -2, "P+"), (2, 2, "K4"), (2, 0, "K4'")])
def test_assembly_matches_d1_and_d0(engine_name, k, n, target):
    engine = ASSEMBLY_ENGINES[engine_name]()
    block = coh.BlockSpec(k, n, target)
    one = Scalar.from_fraction(1)
    slots, columns = coh._d1_columns(block, engine)
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
    # entry order matters too: it steers the pivot choice of the elimination
    engine = ASSEMBLY_ENGINES[engine_name]()
    shared: dict = {}
    for n in range(-3, 4):
        block = coh.BlockSpec(2, n, "P+")
        for assemble in (coh._d1_columns, coh._d0_columns):
            keys, cols = assemble(block, engine, shared)
            fresh_keys, fresh = assemble(block, engine)
            assert keys == fresh_keys
            assert [list(c.items()) for c in cols] == [list(c.items()) for c in fresh]
    assert shared


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
    # entry for entry and in order: the order steers the pivot choice
    engine = PARITY_ENGINES[engine_name]()
    for k, n, target in PARITY_BLOCKS["star" if engine.h_k_weight else "poisson"]:
        block = coh.BlockSpec(k, n, target)
        ref_d1, ref_d0 = _reference_columns(block, engine)
        shared: dict = {}
        columns = coh._d1_columns(block, engine, shared)[1]
        assert _entries(columns) == _entries(ref_d1), block
        assert _entries(coh._d0_columns(block, engine, shared)[1]) == _entries(ref_d0), block
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
        assemble(block, engine, *args)
        # each call brackets a different basis element
        assert len({id(a) for a in calls}) == len(calls)
        return len(calls)

    shared: dict = {}
    assert calls_of(coh._d1_columns, shared) == len(d21.BASIS_NAMES)
    # the C^0 keys are H1's slot keys, so d1's table holds every d0 bracket
    assert calls_of(coh._d0_columns, shared) == 0
    assert calls_of(coh._d0_columns) == len(d21.BASIS_NAMES)


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


def test_specialized_engine_refuses_alpha_coefficients():
    engine = coh.poisson_engine(alpha=1)
    theta1, theta2 = coh.named_cocycle("theta1"), coh.named_cocycle("theta2")
    block = coh.BlockSpec(-2, 0, "P")
    refused = [
        lambda: coh.solve_obstruction(theta2, block, engine),
        lambda: coh.d1(theta2, engine),
        lambda: coh.cup(theta1, theta2, engine),
        lambda: coh.is_coboundary(theta2, engine),
        lambda: coh.express_modulo_coboundaries(theta1, [theta2], theta2.block, engine),
    ]
    for call in refused:
        with pytest.raises(ValueError, match=r"^D3 image term .*alpha.* not a rational constant"):
            call()
    with pytest.raises(ValueError, match="^F1 image term"):
        coh.d1(coh.named_cocycle("thetabar1"), coh.quantized_engine(alpha=1))
    # specialized first, theta2 is a cocycle there and its obstruction solves
    special = _specialized_cochain(theta2, 1)
    assert coh.pairmap_is_zero(coh.d1(special, engine))
    assert coh.solve_obstruction(special, block, engine) is not None
    # rational constants pass, and the generic engine takes alpha as before
    assert coh.pairmap_is_zero(coh.d1(theta1.scale(Fraction(1, 3)), engine))
    assert coh.pairmap_is_zero(coh.d1(theta2, ENGINE))


# -- the F_p certificate against the exact path ---------------------------------------


WINDOW6 = range(-6, 7)
CERTIFIED_SCANS = {
    "P": (lambda: ENGINE, "P", WINDOW6),
    "P+": (lambda: ENGINE, "P+", WINDOW6),
    "K4": (lambda: ENGINE, "K4", WINDOW6),
    "K4'": (lambda: ENGINE, "K4'", WINDOW6),
    "P@alpha=1": (lambda: coh.poisson_engine(alpha=1), "P", WINDOW6),
    "star P+": (lambda: coh.quantized_engine(), "P+", range(-4, 5)),
}


def _exact_dims(reports, engine):
    """(Z, B, H^1) of h1_block on each report's block."""
    out = []
    for rpt in reports:
        exact = coh.h1_block(rpt.block, engine, representatives=False)
        out.append((exact.dim_cocycles, exact.dim_coboundaries, exact.dim_h1))
    return out


@pytest.mark.parametrize("scan", sorted(CERTIFIED_SCANS))
def test_modp_certificate_matches_exact(scan):
    make_engine, target, window = CERTIFIED_SCANS[scan]
    engine = make_engine()
    reports = coh.h1_scan(window, window, target, engine, representatives=False)
    assert [(r.dim_cocycles, r.dim_coboundaries, r.dim_h1) for r in reports] == \
        _exact_dims(reports, engine)
    for rpt in reports:
        if rpt.block.n:
            expected = "cartan-zero"
        elif not coh.enumerate_c1(rpt.block, engine):
            expected = "empty"
        else:
            expected = "exact" if rpt.dim_h1 else "modp-zero"
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
    # at alpha = 1/p a block whose matrices meet that denominator is
    # "exact"; every other label and every dimension stay the generic ones
    engine = coh.poisson_engine(alpha=Fraction(1, coh.FP_PRIME))
    window = range(-2, 3)
    for target, expected in (("P", [(-2, 0), (2, 0)]), ("P+", [(2, 0)])):
        reports = coh.h1_scan(window, window, target, engine, representatives=False)
        generic = coh.h1_scan(window, window, target, ENGINE, representatives=False)
        no_image, relabelled = [], []
        for rpt, ref in zip(reports, generic):
            assert (rpt.block, rpt.dim_cocycles, rpt.dim_coboundaries, rpt.dim_h1) == \
                (ref.block, ref.dim_cocycles, ref.dim_coboundaries, ref.dim_h1)
            if rpt.certificate != ref.certificate:
                relabelled.append((rpt.block.k, rpt.block.n))
            if rpt.block.n == 0:
                brackets: dict = {}
                columns = coh._d1_columns(rpt.block, engine, brackets)[1]
                columns += coh._d0_columns(rpt.block, engine, brackets)[1]
                if not _has_fp_image(columns):
                    no_image.append((rpt.block.k, rpt.block.n))
                    assert rpt.certificate == "exact", rpt.block
        assert set(relabelled) <= set(no_image)
        assert relabelled == expected, target


@pytest.mark.parametrize("scan", ["P+", "star P+"])
def test_scan_assembles_each_block_once(scan, monkeypatch):
    make_engine, target, window = CERTIFIED_SCANS[scan]
    engine = make_engine()
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


# -- the Cartan certificate: ad H1 acts on block (k, n) by n --------------------------


CARTAN_ENGINES = {
    "generic": lambda: coh.poisson_engine(),
    "alpha=1": lambda: coh.poisson_engine(alpha=1),
    "alpha=-1": lambda: coh.poisson_engine(alpha=-1),
    "alpha=0": lambda: coh.poisson_engine(alpha=0),
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
            slots, columns = coh._d1_columns(block, engine)
            kvecs, _ = linalg.kernel_basis(columns)
            assert len(kvecs) == len(coh.enumerate_c0(block, engine)), block
            for kv in kvecs:
                c = coh._slots_to_cochain(slots, kv, block)
                assert coh.d0(c.image("H1") * Fraction(1, n), engine, block) == c, block
