from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superpds import kernel
from superpds.scalars import (
    ALPHA,
    POLY_ONE,
    AlphaPoly,
    PoleError,
    S_ONE,
    S_ZERO,
    Scalar,
    fold_layers,
    poly_gcd,
    split_layers,
)


MERSENNE = 2**61 - 1


def frac(n, d=1):
    return Scalar.from_fraction(Fraction(n, d))


# -- strategies -------------------------------------------------------------

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=9)


@st.composite
def polys(draw, max_degree=3):
    coeffs = draw(st.lists(rationals, max_size=max_degree + 1))
    return AlphaPoly.from_rationals({i: c for i, c in enumerate(coeffs) if c})


@st.composite
def scalars(draw):
    num = draw(polys())
    den = draw(polys(max_degree=2).filter(bool))
    return Scalar.from_poly(num) / Scalar.from_poly(den)


# -- basic arithmetic -------------------------------------------------------


def test_rational_add():
    assert frac(1, 2) + frac(1, 3) == frac(5, 6)


def test_alpha_cancellation():
    assert ALPHA + (S_ONE - ALPHA) == S_ONE


def test_alpha_inverse():
    assert (S_ONE + ALPHA) * (S_ONE + ALPHA).inv() == S_ONE
    assert (ALPHA - S_ONE) * (ALPHA + S_ONE) == ALPHA * ALPHA - S_ONE


def test_inverse_of_two_and_alpha():
    assert frac(2).inv() == frac(1, 2)
    assert ALPHA.inv() * ALPHA == S_ONE


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        S_ZERO.inv()


# -- specialization ---------------------------------------------------------


def test_specialize_simple():
    assert (S_ONE + ALPHA).specialize(-1) == S_ZERO


def test_specialize_pole():
    x = (S_ONE + ALPHA).inv()
    with pytest.raises(PoleError):
        x.specialize(-1)


def test_specialize_reduced_form_first():
    # (alpha^2 - 1)/(alpha - 1) reduces to alpha + 1 on construction, so
    # substituting alpha = 1 is legal and gives 2
    x = (ALPHA * ALPHA - S_ONE) / (ALPHA - S_ONE)
    assert x == ALPHA + S_ONE
    assert x.specialize(1) == frac(2)


def _evaluate_by_fractions(p, value):
    """The sum of c_e value^e over the rational coefficients c_e."""
    return sum((Fraction(v, p.d) * Fraction(value) ** e for e, v in p.c.items()), Fraction(0))


@settings(max_examples=300, deadline=None)
@given(polys(max_degree=5), st.fractions(min_value=-40, max_value=40, max_denominator=60))
@example(AlphaPoly({}), Fraction(3, 7))
@example(AlphaPoly({0: 5}, 3), Fraction(-2, 9))
def test_evaluate_matches_fraction_oracle(p, value):
    for v in (value, value.numerator):  # a Fraction and an int
        got = p.evaluate(v)
        assert isinstance(got, Fraction) and got == _evaluate_by_fractions(p, v)
    # a pole at value survives the integer evaluation of the denominator
    if p and p.evaluate(value):
        with pytest.raises(PoleError) as info:
            (Scalar.from_poly(p) / (ALPHA - value)).specialize(value)
        assert info.value.value == value


@settings(max_examples=100, deadline=None)
@given(scalars(), scalars(), st.sampled_from([0, 2, -3, 5]))
def test_specialize_is_ring_hom(x, y, value):
    try:
        lhs = (x * y).specialize(value)
        rx, ry = x.specialize(value), y.specialize(value)
    except PoleError:
        return
    assert lhs == rx * ry
    # the image in F_p is the specialization, reduced
    for z in (x, y, x * y, x + y):
        assert z.mod_p(value % MERSENNE, MERSENNE) == z.specialize(value).mod_p(0, MERSENNE)


def _specialize_by_formula(x, value):
    """The value at alpha = ``value`` by numerator over denominator, for
    every scalar alike: PoleError at a root of the denominator."""
    value = Fraction(value)
    den = x.ad.evaluate(value)
    if not den:
        raise PoleError(x.ad, value)
    return Scalar.from_fraction(x.an.evaluate(value) / den)


@settings(max_examples=300, deadline=None)
@given(st.one_of(scalars(), rationals.map(Scalar.from_fraction)),
       st.fractions(min_value=-3, max_value=3, max_denominator=2))
@example(S_ZERO, Fraction(1))
@example(frac(-7, 3), Fraction(1, 2))
@example((S_ONE + ALPHA).inv(), Fraction(-1))
@example(ALPHA / (ALPHA * ALPHA - frac(1, 4)), Fraction(1, 2))
def test_specialize_matches_the_formula(x, value):
    # a rational scalar is returned itself; every other scalar gets the
    # formula's value, or its PoleError
    try:
        expected = _specialize_by_formula(x, value)
    except PoleError as err:
        with pytest.raises(PoleError) as info:
            x.specialize(value)
        assert (info.value.denominator, info.value.value) == (err.denominator, err.value)
        return
    got = x.specialize(value)
    assert got == expected and got.ad is POLY_ONE
    assert (got is x) == x.is_rational()


def test_mod_p_values():
    assert (ALPHA * ALPHA + frac(1, 2)).mod_p(3, 7) == (9 + 4) % 7
    assert (S_ONE / (ALPHA - frac(2))).mod_p(5, 7) == 5  # 1/3 = 5 mod 7
    assert frac(-1).mod_p(0, MERSENNE) == MERSENNE - 1
    with pytest.raises(ZeroDivisionError):
        (S_ONE + ALPHA).inv().mod_p(6, 7)
    with pytest.raises(ValueError):
        frac(1, 7).mod_p(1, 7)
    with pytest.raises(ValueError):
        (ALPHA + frac(1, MERSENNE)).mod_p(1, MERSENNE)


# -- field axioms on randomized scalars --------------------------------------


@settings(max_examples=150, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x - y == x + (-y)
    assert (x - y) + y == x
    if x:
        assert x * x.inv() == S_ONE


@settings(max_examples=150, deadline=None)
@given(scalars(), scalars())
def test_canonical_equality(x, y):
    # canonical forms are unique: equal values have identical components
    if x - y:
        assert x != y
    else:
        assert (x.an, x.ad) == (y.an, y.ad)


def _forms(v):
    """``v`` as given, as a Scalar, and as an int and a Fraction where it
    is one."""
    s = Scalar.coerce(v)
    forms = [v, s]
    if s.an.is_constant() and s.ad.is_one():
        q = Fraction(s.an.constant())
        forms.append(q)
        if q.denominator == 1:
            forms.append(q.numerator)
    return forms


@settings(max_examples=150, deadline=None)
@given(st.one_of(scalars(), rationals, st.integers(-30, 30)),
       st.one_of(scalars(), rationals, st.integers(-30, 30)))
def test_hash_agrees_with_equality(x, y):
    forms = _forms(x) + _forms(y)
    for a in forms:
        for b in forms:
            if a == b:
                assert hash(a) == hash(b), (a, b)
    assert len({Scalar.from_fraction(2), 2, Fraction(2)}) == 1
    assert Fraction(1, 2) in {S_ONE / 2}


# -- the stored representation ------------------------------------------------


def _ref(p):
    """The coefficients of ``p`` as a plain {exponent: Fraction} map."""
    return {e: Fraction(v, p.d) for e, v in p.c.items()}


def _nonzero(m):
    return {e: v for e, v in m.items() if v}


def _ref_add(a, b):
    out = dict(a)
    for e, v in b.items():
        out[e] = out.get(e, 0) + v
    return _nonzero(out)


def _ref_mul(a, b):
    out = {}
    for ea, va in a.items():
        for eb, vb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + va * vb
    return _nonzero(out)


def _ref_mod_p(a, value, p):
    return sum(v.numerator * pow(v.denominator, -1, p) * pow(value, e, p)
               for e, v in a.items()) % p


def _check(p, ref):
    """``p`` is stored canonically (int coefficients without zeros over a
    positive int denominator coprime to them) and has the coefficients
    ``ref``."""
    assert type(p.d) is int and p.d > 0
    assert all(type(v) is int and v for v in p.c.values())
    assert gcd(p.d, *p.c.values()) == 1
    assert _ref(p) == ref


@settings(max_examples=200, deadline=None)
@given(polys(), polys(), st.integers(-12, 12), rationals, st.integers(-5, 5))
def test_poly_canonical_form(a, b, k, q, value):
    ra, rb = _ref(a), _ref(b)
    _check(a, ra)
    _check(b, rb)
    _check(a + b, _ref_add(ra, rb))
    _check(-a, {e: -v for e, v in ra.items()})
    _check(a - b, _ref_add(ra, {e: -v for e, v in rb.items()}))
    _check(a * b, _ref_mul(ra, rb))
    _check(a.scaled(k), _nonzero({e: v * k for e, v in ra.items()}))
    _check(a.scaled(q), _nonzero({e: v * q for e, v in ra.items()}))
    if ra:
        lead = ra[max(ra)]
        _check(a.monic(), {e: v / lead for e, v in ra.items()})
    if rb:
        quo, rem = divmod(a, b)
        _check(quo, _ref(quo))
        _check(rem, _ref(rem))
        assert _ref_add(_ref_mul(_ref(quo), rb), _ref(rem)) == ra
        assert rem.degree() < b.degree()
    assert a.evaluate(Fraction(value, 3)) == sum(v * Fraction(value, 3) ** e for e, v in ra.items())
    for p in (MERSENNE, 7):
        try:
            expected = _ref_mod_p(ra, value % p, p)
        except ValueError:  # p divides a denominator
            with pytest.raises(ValueError):
                a.mod_p(value % p, p)
        else:
            assert a.mod_p(value % p, p) == expected


@settings(max_examples=100, deadline=None)
@given(scalars())
def test_scalar_int_operands(x):
    # an int operand is scaled in directly; the result is the canonical form
    # the coerced operand gives
    for k in range(-7, 8):
        s = Scalar.from_fraction(k)
        assert x * k == x * s and k * x == x * s
        assert x + k == x + s and k + x == x + s
        assert (x == k) == (x == s)


def _check_scalar(x):
    """``x`` is in the canonical form the constructor takes as given:
    canonical polynomials, gcd(an, ad) = 1, ``ad`` monic, and ``ad`` the
    shared POLY_ONE whenever it is 1."""
    _check(x.an, _ref(x.an))
    _check(x.ad, _ref(x.ad))
    assert x.ad.leading() == 1
    assert poly_gcd(x.an, x.ad).is_one()
    if x.ad.is_one():
        assert x.ad is POLY_ONE


@settings(max_examples=80, deadline=None)
@given(scalars(), scalars(), st.one_of(st.integers(-7, 7), rationals))
def test_results_are_canonical(x, y, k):
    _check_scalar(x)
    results = [x + y, x - y, x * y, -x, x * k, k * x, x + k, x - k, x * x]
    if y:
        results += [x / y, y.inv(), k / y]
    for z in results:
        _check_scalar(z)


@settings(max_examples=80, deadline=None)
@given(scalars(), st.one_of(scalars(), rationals, st.integers(-30, 30), polys()))
def test_equality_fast_path(x, y):
    # Scalar operands take the fast path; the reference compares the
    # stored polynomials, or the value of a constant with an int or Fraction
    copy = Scalar(AlphaPoly(dict(x.an.c), x.an.d), AlphaPoly(dict(x.ad.c), x.ad.d))
    for other in (y, x, copy, -x, x + 1):
        if isinstance(other, Scalar):
            expected = other.an == x.an and other.ad == x.ad
        elif isinstance(other, AlphaPoly):
            expected = False
        else:
            expected = x.ad.is_one() and x.an.is_constant() and x.an.constant() == other
        assert (x == other) is expected and (other == x) is expected
        assert (x != other) is not expected
    assert x == copy


# -- term maps at the kernel boundary ------------------------------------------

KEYS = range(6)
nonzero_scalars = st.one_of(scalars(), polys().map(Scalar.from_poly)).filter(bool)
term_maps = st.dictionaries(st.sampled_from(KEYS), nonzero_scalars, max_size=4)


@st.composite
def map_pairs(draw):
    """(a, b) with some coefficients of b copied from a, so that sub_terms
    meets keys whose coefficients are equal as well as unequal ones."""
    a, b = draw(term_maps), draw(term_maps)
    shared = draw(st.sets(st.sampled_from(KEYS)))
    b.update((key, a[key]) for key in shared if key in a)
    return a, b


@settings(max_examples=40, deadline=None)
@given(map_pairs())
def test_sub_terms_cancels(pair):
    a, b = pair
    assert kernel.sub_terms(a, dict(a)) == {}
    diff = kernel.sub_terms(a, b)
    assert diff == kernel.add_terms(a, kernel.neg_terms(b))
    assert all(diff.values())
    assert diff == {k: v for k in a.keys() | b.keys()
                    if (v := a.get(k, S_ZERO) - b.get(k, S_ZERO))}


@settings(max_examples=50, deadline=None)
@given(term_maps)
def test_fold_inverts_split(m):
    folded = fold_layers(*split_layers(m))
    assert folded == m
    for c in folded.values():
        _check_scalar(c)


def _ref_fold(layers, d, den):
    """sum_e layers[e][key] alpha^e / (d den) per key, in Scalar arithmetic."""
    out = {}
    for e, layer in layers.items():
        for key, v in layer.items():
            out[key] = out.get(key, S_ZERO) + Scalar.coerce(v) * ALPHA**e / d
    if den is not None:
        out = {key: c / Scalar.from_poly(den) for key, c in out.items()}
    return out


monic_dens = polys(max_degree=2).filter(lambda p: p.degree() > 0).map(AlphaPoly.monic)


@settings(max_examples=150, deadline=None)
@given(
    st.dictionaries(st.integers(0, 3),
                    st.dictionaries(st.sampled_from("abcde"),
                                    st.integers(-24, 24).filter(bool), min_size=1)),
    st.integers(1, 36),
    st.one_of(st.none(), monic_dens),
)
# one layer, d sharing a factor with some values
@example({2: {"a": 6, "b": -4, "c": 5}}, 12, None)
# b in three layers with a common factor 3, a and c in one layer each
@example({0: {"a": 6, "b": 3}, 1: {"b": 9, "c": 4}, 3: {"b": 6}}, 6, None)
# a polynomial den cancelling against a, and against a one-power key
@example({0: {"a": 2, "b": 1}, 1: {"a": 2, "c": 3}}, 4, AlphaPoly({0: 1, 1: 1}))
@example({1: {"a": 3}}, 6, AlphaPoly({1: 1}))
def test_fold_matches_reference(layers, d, den):
    expected = _ref_fold(layers, d, den)
    folded = fold_layers({e: dict(layer) for e, layer in layers.items()}, d, den)
    assert folded == expected
    for c in folded.values():
        _check_scalar(c)


# -- rendering ---------------------------------------------------------------


def test_rendering_examples():
    assert str(frac(5, 2)) == "5/2"
    assert str(ALPHA) == "alpha"
    assert str(-frac(2) * ALPHA) == "-2*alpha"
    assert str((ALPHA + S_ONE) / frac(2)) == "(alpha + 1)/2"
    assert str(S_ONE / (ALPHA + S_ONE)) == "1/(alpha + 1)"
    assert str(S_ZERO) == "0"


def test_rendering_round_trip():
    from superpds.expr import parse_scalar

    samples = [
        frac(7, 3),
        ALPHA ** 3 - frac(2) * ALPHA + S_ONE,
        (ALPHA + S_ONE) / (ALPHA * ALPHA - frac(2)),
        (ALPHA - frac(5)) * frac(3, 7) + frac(1, 2),
        (frac(3) - ALPHA) / (ALPHA + frac(4)),
    ]
    for x in samples:
        assert parse_scalar(str(x)) == x
