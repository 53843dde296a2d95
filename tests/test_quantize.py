import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpds import cohomology as coh
from superpds import d21, kernel, quantize
from superpds.kernel import normal_order_word
from superpds.expr import parse
from superpds.scalars import ALPHA, S_ONE
from superpds.symbols import Symbol


def mono(**kw):
    return Symbol.monomial(**kw)


T, TAU = Symbol.generator("t"), Symbol.generator("tau")
XI1, ETA1 = Symbol.generator("xi1"), Symbol.generator("eta1")


def random_op_monomial(rng, h=0):
    return Symbol.monomial(
        t=rng.randrange(-3, 4),
        tau=rng.randrange(0, 4),
        mask=rng.randrange(16),
        h=rng.randrange(h + 1) if h else 0,
        coeff=Fraction(rng.randrange(-5, 6) or 1, rng.randrange(1, 3)),
    )


# -- star product -----------------------------------------------------------------


def test_star_product_examples():
    assert quantize.moyal_mul(TAU, T) == parse("t*tau + h")
    assert quantize.moyal_mul(T, TAU) == parse("t*tau")
    assert quantize.moyal_mul(ETA1, XI1) == parse("h - xi1*eta1")


def test_star_product_requires_operator_symbols():
    with pytest.raises(ValueError):
        quantize.moyal_mul(mono(tau=-1), T)
    # a negative tau power on the right, too, in either order of the walk
    for a, b in ((TAU, T * mono(tau=-1)), (T, mono(tau=-1)), (T * mono(tau=-1), TAU)):
        with pytest.raises(ValueError, match="nonnegative tau"):
            quantize.moyal_mul(a, b)
        with pytest.raises(ValueError, match="nonnegative tau"):
            quantize.h_bracket(a, b)


def test_star_associativity_randomized():
    rng = random.Random(17)
    for _ in range(200):
        a, b, c = (random_op_monomial(rng) for _ in range(3))
        lhs = quantize.moyal_mul(quantize.moyal_mul(a, b), c)
        rhs = quantize.moyal_mul(a, quantize.moyal_mul(b, c))
        assert lhs == rhs


def test_normal_ordering_confluence():
    rng = random.Random(4)
    for _ in range(200):
        word = tuple(rng.randrange(4) for _ in range(rng.randrange(2, 7)))
        leftmost = normal_order_word(word)
        rightmost = normal_order_word(word, order_choice=lambda spots: spots[-1])
        randomized = normal_order_word(word, order_choice=rng.choice)
        assert leftmost == rightmost == randomized


# -- h-bracket ----------------------------------------------------------------------


def test_h_bracket_examples():
    assert quantize.h_bracket(T, TAU) == parse("-1")
    assert quantize.h_bracket(ETA1, XI1) == parse("1")
    assert quantize.h_bracket(ETA1, XI1) == ETA1.poisson(XI1)
    assert quantize.h_bracket(XI1, ETA1) == XI1.poisson(ETA1)


def test_h_bracket_of_even_with_itself():
    a = mono(t=2, tau=1)
    assert not quantize.h_bracket(a, a)


def test_h_divisibility():
    rng = random.Random(23)
    for _ in range(100):
        a, b = random_op_monomial(rng), random_op_monomial(rng)
        quantize.h_bracket(a, b)  # raises RuntimeError if divisibility fails


def random_op_map(rng):
    """1-4 operator terms of mixed parity with beta/h powers and
    coefficients in Q(alpha), polynomial or not."""
    out = Symbol.zero()
    for _ in range(rng.randrange(1, 5)):
        coeff = Fraction(rng.randrange(-5, 6) or 1, rng.randrange(1, 4))
        coeff = coeff * rng.choice(
            (S_ONE, ALPHA, ALPHA + 1, (ALPHA - 2).inv(), (ALPHA + 1) / (ALPHA * ALPHA + 3))
        )
        out = out + mono(
            t=rng.randrange(-3, 4),
            tau=rng.randrange(0, 4),
            mask=rng.randrange(16),
            beta=rng.randrange(3),
            h=rng.randrange(3),
            coeff=coeff,
        )
    return out


def _parity_parts(a):
    even = {k: c for k, c in a.terms.items() if not k[2].bit_count() % 2}
    odd = {k: c for k, c in a.terms.items() if k[2].bit_count() % 2}
    return (0, Symbol(even)), (1, Symbol(odd))


def _h_bracket_by_definition(a, b):
    """(A B - (-1)^(p p') B A)/h summed over the parity parts of A and B."""
    comm = Symbol.zero()
    for pa, part_a in _parity_parts(a):
        for pb, part_b in _parity_parts(b):
            back = quantize.moyal_mul(part_b, part_a)
            comm = comm + quantize.moyal_mul(part_a, part_b)
            comm = comm + back if pa and pb else comm - back
    assert all(key[4] >= 1 for key in comm.terms), comm
    return Symbol({(t, u, m, be, h - 1): c for (t, u, m, be, h), c in comm.terms.items()})


def test_h_bracket_matches_definition():
    rng = random.Random(1008)
    for _ in range(300):
        a, b = random_op_map(rng), random_op_map(rng)
        assert quantize.h_bracket(a, b) == _h_bracket_by_definition(a, b), (a, b)


# An oracle for the star kernel that shares none of its code: each pair of
# terms is multiplied out by the star sum, with math.comb, and by rewriting
# the concatenated Grassmann word, over Scalars (or ints).

STAR_COEFFS = (S_ONE, ALPHA, ALPHA * ALPHA - 1, ALPHA ** 3 + ALPHA,
               (ALPHA - 2).inv(), (ALPHA + 1) / (ALPHA * ALPHA + 3))


def _word_of(mask):
    return tuple(g for g in range(4) if mask >> g & 1)


def _falling(x, n):
    out = 1
    for i in range(n):
        out *= x - i
    return out


def _add_into(out, key, c):
    c = out[key] + c if key in out else c
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def _star_by_definition(a, b, sign=1, shift=0, out=None):
    """out + sign * A B h^shift, one pair of terms at a time; with ``sign``
    None each pair takes -(-1)^(p p') instead."""
    out = {} if out is None else out
    for (t1, u1, m1, b1, h1), c1 in a.items():
        for (t2, u2, m2, b2, h2), c2 in b.items():
            s = sign
            if s is None:
                s = 1 if m1.bit_count() % 2 and m2.bit_count() % 2 else -1
            words = normal_order_word(_word_of(m1) + _word_of(m2))
            for n in range(u1 + 1):
                weight = comb(u1, n) * _falling(t2, n)
                if not weight:
                    continue
                for (mask, hp), g in words.items():
                    key = (t1 + t2 - n, u1 + u2 - n, mask, b1 + b2, h1 + h2 + n + hp + shift)
                    _add_into(out, key, c1 * c2 * (s * weight * g))
    return out


def _h_bracket_terms_by_definition(a, b):
    out = _star_by_definition(a, b, shift=-1)
    return _star_by_definition(b, a, sign=None, shift=-1, out=out)


def _stored(terms):
    """Keys with the stored form of their coefficients."""
    return {key: (c.an.c, c.an.d, c.ad.c, c.ad.d) for key, c in terms.items()}


def random_star_map(rng, kind):
    """0-4 terms of mixed parity with beta/h powers.  Coefficients by
    ``kind``: "rational" rationals with mixed denominators times one power
    alpha^0..3 for the whole map; "scalar" such rationals times polynomials
    or non-polynomial scalars; "poles" the same, with (alpha - 2)^-1 and
    (alpha + 1)/(alpha^2 + 3) both in."""
    out = {}
    coeffs = [STAR_COEFFS[4], STAR_COEFFS[5]] if kind == "poles" else []
    power = ALPHA ** rng.randrange(4)
    for _ in range(rng.randrange(2 if coeffs else 0, 5)):
        c = Fraction(rng.randrange(-6, 7) or 1, rng.choice((1, 2, 3, 4, 6, 9)))
        if kind == "rational":
            c = c * power
        else:
            c = c * (coeffs.pop() if coeffs else rng.choice(STAR_COEFFS))
        key = (rng.randrange(-3, 4), rng.randrange(4), rng.randrange(16),
               rng.randrange(3), rng.randrange(3))
        out[key] = c
    return out


def test_star_kernel_matches_term_pair_oracle():
    rng = random.Random(2462)
    kinds = (("rational", "rational"), ("poles", "scalar"),
             ("scalar", "poles"), ("scalar", "scalar"), ("rational", "scalar"))
    for i in range(480):
        a, b = (random_star_map(rng, kind) for kind in kinds[i % len(kinds)])
        product = kernel.moyal_terms(a, b)
        assert _stored(product) == _stored(_star_by_definition(a, b)), (a, b)
        bracket = kernel.h_bracket_terms(a, b)
        assert _stored(bracket) == _stored(_h_bracket_terms_by_definition(a, b)), (a, b)


def test_h_bracket_rejects_h_free_terms(monkeypatch):
    # a broken kernel leaves an h^0 term of the commutator, h^-1 after
    # division: here 3 alpha t / 2, in the layers quantize receives
    broken = ({0: {(0, 0, 0, 0, 1): 5}, 1: {(1, 0, 0, 0, -1): 3}}, 2, None)
    monkeypatch.setattr(kernel, "h_bracket_terms", lambda a, b: broken)
    with pytest.raises(RuntimeError, match=r"h-free term 3\*alpha/2\*t;"):
        quantize.h_bracket(T, TAU)


# -- the deferred form: products kept as int layers until read ---------------------

# rational, alpha-polynomial and polynomial-denominator coefficients; the
# last two put a polynomial ``den`` on the layers
DEFERRED_COEFFS = (S_ONE, ALPHA, ALPHA * ALPHA - 1, (ALPHA - 2).inv(),
                   (ALPHA + 1) / (ALPHA * ALPHA + 3))


@st.composite
def op_symbols(draw, poles=None):
    if poles is None:
        poles = draw(st.booleans())
    kinds = DEFERRED_COEFFS if poles else DEFERRED_COEFFS[:3]
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(0, 3), st.integers(0, 15),
                  st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool),
                  st.sampled_from(kinds)),
        max_size=4))
    return Symbol({key: kind * value for key, (value, kind) in terms.items()})


def _listed(sym):
    """Terms in key order, with the stored form of each coefficient."""
    return list(_stored(sym.terms).items())


def _eager(op, a, b):
    terms = {quantize.moyal_mul: kernel.moyal_terms,
             quantize.h_bracket: kernel.h_bracket_terms,
             Symbol.poisson: kernel.poisson_terms,
             Symbol.__mul__: kernel.mul_terms}[op](a.terms, b.terms)
    return Symbol(terms)


@settings(max_examples=60, deadline=None)
@given(op_symbols(), op_symbols(), op_symbols(), op_symbols(poles=False))
def test_deferred_results_match_eager_fold(a, b, c, x):
    # a Poisson bracket or a product of symbols with tau >= 0 keeps
    # tau >= 0, so it is a star operand too
    for op in (quantize.moyal_mul, quantize.h_bracket, Symbol.poisson, Symbol.__mul__):
        eager, other = _eager(op, a, b), _eager(op, b, c)

        def fresh():
            r = op(a, b)
            assert r.__class__ is Symbol and r._terms is None  # unfolded
            return r

        def fresh_other():
            return op(b, c)

        assert _listed(fresh()) == _listed(eager)  # the same keys in the same order
        assert bool(fresh()) == bool(eager)
        assert fresh() == eager and (fresh() == other) == (eager == other)
        assert fresh() + fresh_other() == eager + other
        assert fresh() - fresh_other() == eager - other
        assert fresh() + x == eager + x and x - fresh() == x - eager
        assert not fresh() - fresh() and (fresh() - fresh()).terms == {}
        assert _listed(-fresh()) == _listed(-eager) and -fresh() - x == -eager - x
        assert _listed(fresh().without_h()) == _listed(eager.without_h())
        assert fresh().poisson(x) == eager.poisson(x) and x.poisson(fresh()) == x.poisson(eager)
        assert str(fresh()) == str(eager)
        assert quantize.moyal_mul(fresh(), c) == quantize.moyal_mul(eager, c)
        # a folded result behaves as it did unfolded
        r = fresh()
        r.terms
        assert r + fresh_other() == eager + other and r.without_h() == eager.without_h()


def test_deferred_results_own_their_layers():
    # the fold consumes the layers it reads, so folding one of these must
    # leave the values of the others as they were, in every order
    rng = random.Random(19)
    a, b, c, d = (
        Symbol({(rng.randrange(-3, 4), rng.randrange(4), rng.randrange(16), 0, rng.randrange(2)):
                rng.choice(DEFERRED_COEFFS[:3]) * Fraction(rng.randrange(1, 6), rng.randrange(1, 4))
                for _ in range(4)})
        for _ in range(4)
    )

    def derived():
        s, t = quantize.moyal_mul(a, b), quantize.moyal_mul(c, d)
        return [s, s - t, s.without_h(), quantize.moyal_mul(s, c)]

    s, t = _eager(quantize.moyal_mul, a, b), _eager(quantize.moyal_mul, c, d)
    expected = [s, s - t, s.without_h(), quantize.moyal_mul(s, c)]
    assert all(expected)
    for order in permutations(range(4)):
        objs = derived()
        assert all(o._terms is None for o in objs)  # every one unfolded
        for i in order:
            assert objs[i] == expected[i], (order, i)


def _owner_test_symbol(rng, kind):
    """Four terms with tau >= 0, coefficients ``kind`` times rationals."""
    return Symbol({(rng.randrange(-3, 4), rng.randrange(4), rng.randrange(16), 0, rng.randrange(2)):
                   kind * Fraction(rng.randrange(1, 6), rng.randrange(1, 4))
                   for _ in range(4)})


def test_poisson_results_own_their_layers():
    # as above, for Poisson brackets, whose operands keep their split.  c
    # has alpha coefficients and a, b, d rational ones, so s = {a, b} is
    # one layer (alpha^0) and t = {c, d} another (alpha^1): s + t and
    # s - t then hold a layer of s alone, unscaled when d(s) is their lcm
    rng = random.Random(23)
    a, b, c, d = (_owner_test_symbol(rng, kind) for kind in (S_ONE, S_ONE, ALPHA, S_ONE))
    splits = [x.layers() for x in (a, b, c, d)]

    def derived():
        s, t = a.poisson(b), c.poisson(d)
        return [s, s + t, s - t, -s, s.without_h(), quantize.moyal_mul(s, c)]

    s, t = _eager(Symbol.poisson, a, b), _eager(Symbol.poisson, c, d)
    expected = [s, s + t, s - t, -s, s.without_h(), quantize.moyal_mul(s, c)]
    assert all(expected) and list(s.layers()[0]) == [0] and list(t.layers()[0]) == [1]
    for order in permutations(range(6)):
        objs = derived()
        assert all(o._terms is None for o in objs)  # every one unfolded
        for i in order:
            assert objs[i] == expected[i], (order, i)
    for x, split in zip((a, b, c, d), splits):
        assert x.layers() is split and split == Symbol(dict(x.terms)).layers()


def test_product_results_own_their_layers():
    # as above, for products, scalar multiples and derivatives: p = a b is
    # unfolded, and what is made from it reads its layers; the derivative,
    # made last, walks p's term map and so folds p
    rng = random.Random(30)
    a, b, c = (_owner_test_symbol(rng, kind) for kind in (S_ONE, ALPHA, S_ONE))
    splits = [x.layers() for x in (a, b, c)]

    def made(p):
        return [p, p * c, p * (ALPHA - 2).inv(), Fraction(2, 3) * p,
                p - c.derive("xi1") * 3, p.derive("t")]

    expected = made(Symbol(kernel.mul_terms(a.terms, b.terms)))
    assert all(expected)
    for order in permutations(range(6)):
        objs = made(a * b)
        # unfolded but for p and its derivative, which walks p's term map
        assert [o._terms is None for o in objs] == [False, True, True, True, True, False]
        for i in order:
            assert objs[i] == expected[i], (order, i)
    for x, split in zip((a, b, c), splits):
        assert x.layers() is split and split == Symbol(dict(x.terms)).layers()


# -- contraction ---------------------------------------------------------------------


def test_contraction_examples():
    a, b = mono(t=2), mono(tau=2)
    assert quantize.contract(quantize.h_bracket(a, b)) == a.poisson(b)
    a, b = mono(mask=0b0011), mono(mask=0b1100)
    assert quantize.check_contraction(a, b)
    assert quantize.contract(quantize.h_bracket(a, b)) == parse(
        "-xi1*eta1 - xi2*eta2"
    )


def test_contraction_randomized():
    rng = random.Random(31)
    for _ in range(200):
        a, b = random_op_monomial(rng, h=1), random_op_monomial(rng, h=1)
        assert quantize.check_contraction(a, b)


# -- the deformed basis ---------------------------------------------------------------


def test_deformed_basis_frozen_values():
    gb = quantize.gamma_h_basis()
    assert gb["H1"] == parse("t*tau + (alpha+1)/2*h")
    assert gb["H2"] == parse("xi1*eta1 + xi2*eta2 - h")
    assert gb["F1"] == parse(
        "tau^2 - alpha*(2*t^-2*xi1*xi2*eta1*eta2 + t^-2*(xi1*eta1 + xi2*eta2)*h - t^-1*tau*h)"
    )
    assert gb["D1"] == parse("tau*xi1 + alpha*t^-1*xi1*xi2*eta2")
    # the eta-first defining words pick up h-corrections in normal order
    assert gb["D3"] == parse("tau*eta1 + alpha*t^-1*xi2*eta1*eta2 + alpha*t^-1*eta1*h")
    assert gb["D4"] == parse("tau*eta2 - alpha*t^-1*xi1*eta1*eta2 + alpha*t^-1*eta2*h")


def test_deformed_basis_contracts_to_classical():
    gb = quantize.gamma_h_basis()
    cb = d21.embedded_basis()
    for name in d21.BASIS_NAMES:
        assert quantize.contract(gb[name]) == cb[name], name


def test_deformed_basis_is_operator_valued():
    for name, sym in quantize.gamma_h_basis().items():
        assert all(key[1] >= 0 and key[4] >= 0 for key in sym.terms), name


def test_h_structure_constants_match_poisson():
    assert quantize.verify_h_structure_match() is None


def _h_structure_reference():
    """verify_h_structure_match pair by pair: the first mismatch."""
    basis = quantize.gamma_h_basis()
    table = d21.structure_table()
    for x in d21.BASIS_NAMES:
        for y in d21.BASIS_NAMES:
            lhs = quantize.h_bracket(basis[x], basis[y])
            rhs = Symbol.zero()
            for name, coeff in table[(x, y)].items():
                rhs = rhs + basis[name] * coeff
            if lhs != rhs:
                return (x, y), lhs, rhs
    return None


@pytest.mark.parametrize("name,extra", [
    ("F1", mono(t=-1, tau=1, h=1, coeff=-ALPHA)),  # F1 without its h t^-1 tau term
    ("D3", mono(t=-1, mask=0b0100, h=1, coeff=-ALPHA)),
    ("T2", mono(t=1, mask=0b0010, h=1)),
])
def test_perturbed_gamma_basis_fails_structure_match(monkeypatch, name, extra):
    basis = dict(quantize.gamma_h_basis())
    basis[name] = basis[name] + extra
    monkeypatch.setattr(quantize, "gamma_h_basis", lambda: basis)
    bad = quantize.verify_h_structure_match()
    assert bad is not None
    assert bad == _h_structure_reference()
    assert bad[1] != bad[2]


def test_contraction_on_basis_pairs():
    gb = quantize.gamma_h_basis()
    for x in d21.BASIS_NAMES:
        for y in d21.BASIS_NAMES:
            assert quantize.check_contraction(gb[x], gb[y]), (x, y)


# -- the h-deformed cocycle ------------------------------------------------------------


def test_thetabar1_is_h_cocycle_identically():
    qeng = coh.quantized_engine()
    tb1 = coh.named_cocycle("thetabar1")
    qeng.validate_cochain(tb1, tb1.block)
    assert coh.pairmap_is_zero(coh.d1(tb1, qeng))


def test_thetabar1_values():
    tb1 = coh.named_cocycle("thetabar1")
    assert tb1.image("F1") == parse("2*t^-1*tau + (alpha - 1)*t^-2*h")
    assert tb1.image("H1") == parse("1")
    assert tb1.image("D1") == parse("t^-1*xi1")


def test_thetabar1_not_a_coboundary():
    qeng = coh.quantized_engine()
    assert coh.is_coboundary(coh.named_cocycle("thetabar1"), qeng) is None


def test_quantized_block_dimension():
    qeng = coh.quantized_engine()
    rpt = coh.h1_block(coh.BlockSpec(0, 0, "P+"), qeng)
    assert rpt.dim_h1 == 1
    rep = rpt.representatives[0]
    res = coh.express_modulo_coboundaries(
        rep, [coh.named_cocycle("thetabar1")], coh.BlockSpec(0, 0, "P+"), qeng
    )
    assert res is not None and res[0][0]


def test_quantized_scan_window():
    # with h a formal variable of k-degree 2, the single class of the
    # numeric-h statement unfolds into the tower h^j * thetabar1 living in
    # block (2j, 0); every nonzero block is one rung of that tower
    qeng = coh.quantized_engine()
    win = range(-3, 4)
    reports = coh.h1_scan(win, win, "P+", qeng, representatives=False)
    nonzero = [(r.block.k, r.block.n, r.dim_h1) for r in reports if r.dim_h1]
    assert nonzero == [(0, 0, 1), (2, 0, 1)]
    tb1 = coh.named_cocycle("thetabar1")
    h_tb1 = coh.Cochain1(
        {n: s * Symbol.monomial(h=1) for n, s in tb1.images.items()},
        coh.BlockSpec(2, 0, "P+"),
    )
    rpt = coh.h1_block(coh.BlockSpec(2, 0, "P+"), qeng)
    res = coh.express_modulo_coboundaries(
        rpt.representatives[0], [h_tb1], coh.BlockSpec(2, 0, "P+"), qeng
    )
    assert res is not None and res[0][0]


@pytest.mark.parametrize("j", [2, 3])
def test_quantized_tower_block(j):
    # the rungs h^2 * thetabar1 and h^3 * thetabar1 in blocks (4,0), (6,0)
    qeng = coh.quantized_engine()
    block = coh.BlockSpec(2 * j, 0, "P+")
    rpt = coh.h1_block(block, qeng)
    assert rpt.dim_h1 == 1
    rep = rpt.representatives[0]
    assert coh.pairmap_is_zero(coh.d1(rep, qeng))
    tb1 = coh.named_cocycle("thetabar1")
    tower = coh.Cochain1(
        {n: s * Symbol.monomial(h=j) for n, s in tb1.images.items()}, block
    )
    res = coh.express_modulo_coboundaries(rep, [tower], block, qeng)
    assert res is not None and res[0][0]
