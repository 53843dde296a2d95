import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpds import kernel
from superpds.scalars import ALPHA, S_ONE, AlphaPoly, Scalar
from superpds.symbols import (
    VAR_NAMES,
    MixedParityError,
    Symbol,
    euler_field,
    hamiltonian_field,
    random_monomial,
)

T = Symbol.generator("t")
TAU = Symbol.generator("tau")
XI1 = Symbol.generator("xi1")
XI2 = Symbol.generator("xi2")
ETA1 = Symbol.generator("eta1")
ETA2 = Symbol.generator("eta2")
ONE = Symbol.constant(1)


def mono(**kw):
    return Symbol.monomial(**kw)


@st.composite
def monomials(draw, span=3, grassmann=True):
    coeff = draw(st.fractions(min_value=-8, max_value=8, max_denominator=4).filter(bool))
    return Symbol.monomial(
        t=draw(st.integers(-span, span)),
        tau=draw(st.integers(-span, span)),
        mask=draw(st.integers(0, 15)) if grassmann else 0,
        coeff=coeff,
    )


@st.composite
def homogeneous_parity_symbols(draw):
    parity = draw(st.integers(0, 1))
    terms = draw(st.lists(monomials(), min_size=1, max_size=3))
    out = Symbol.zero()
    for m in terms:
        ((key, c),) = m.terms.items()
        if key[2].bit_count() & 1 != parity:
            key = (key[0], key[1], key[2] ^ 1, key[3], key[4])
        out = out + Symbol({key: c})
    return out


# -- product ------------------------------------------------------------------


def test_anticommutation():
    assert XI2 * XI1 == -(XI1 * XI2)


def test_exterior_square():
    assert not XI1 * XI1


def test_reorder_without_sign():
    assert (T * ETA1) * (T * ETA2) == mono(t=2, mask=0b1100)


def _merge_sign(m1: int, m2: int) -> int:
    """Reference: the sign of sorting the generator list of m1 followed by
    that of m2, counted in inversions; 0 when the masks overlap."""
    if m1 & m2:
        return 0
    word = [g for g in range(4) if m1 >> g & 1] + [g for g in range(4) if m2 >> g & 1]
    inversions = sum(x > y for i, x in enumerate(word) for y in word[i + 1 :])
    return (-1) ** inversions


def test_merge_sign_counts_inversions():
    for m1 in range(16):
        for m2 in range(16):
            assert kernel._MERGE[m1][m2] == _merge_sign(m1, m2), (m1, m2)


def _unit(mask: int) -> dict:
    return {(0, 0, mask, 0, 0): 1}


def test_sign_tables_match_derivative_definitions():
    """Every mask pair: the contraction table is the Poisson contraction
    written with ``derive_terms`` and inversion-count products, masks
    descending; every star cell lists its outcomes by (mask, h); and a
    left derivative's sign is that of moving the generator to the front."""
    for m in range(16):
        for g in range(4):
            flag = 1 << g
            want = {(0, 0, m ^ flag, 0, 0): _merge_sign(flag, m ^ flag)} if m & flag else {}
            assert kernel.derive_terms(_unit(m), 2 + g) == want, (m, g)
    for m1 in range(16):
        for m2 in range(16):
            sums: dict = {}
            for i in range(2):  # xi_i is bit i, eta_i bit i + 2
                for ga, gb in ((i, i + 2), (i + 2, i)):
                    da = kernel.derive_terms(_unit(m1), 2 + ga)
                    db = kernel.derive_terms(_unit(m2), 2 + gb)
                    for (_, _, r1, _, _), c1 in da.items():
                        for (_, _, r2, _, _), c2 in db.items():
                            sums[r1 | r2] = sums.get(r1 | r2, 0) + c1 * c2 * _merge_sign(r1, r2)
            sign = -1 if m1.bit_count() % 2 == 0 else 1  # (-1)^(p1 + 1)
            want = {mask: sign * c for mask, c in sums.items() if c}
            cell = kernel._CONTRACTIONS[m1][m2]
            assert dict(cell) == want, (m1, m2)
            assert [mask for mask, _ in cell] == sorted(want, reverse=True), (m1, m2)
            for table in (kernel._PRODUCT, kernel._BRACKET, kernel._BRACKET_BACK):
                for outcomes in table[m1][m2]:
                    keys = [o[:2] for o in outcomes]
                    assert keys == sorted(set(keys)), (m1, m2)


def test_central_deformation_exponents():
    b = mono(beta=1)
    h = mono(h=1)
    assert b * h * T == mono(t=1, beta=1, h=1)
    assert (b * XI1) * (h * XI2) == mono(mask=0b0011, beta=1, h=1)


# -- derivatives ---------------------------------------------------------------


def test_laurent_derivative():
    assert mono(t=-1).derive("t") == mono(t=-2, coeff=-1)


def test_left_derivative_with_sign():
    assert (XI1 * XI2).derive("xi2") == -XI1


def test_left_derivative_leftmost():
    assert (ETA1 * ETA2).derive("eta1") == ETA2


def test_beta_h_are_inert():
    s = mono(t=2, beta=3, h=1)
    assert s.derive("t") == mono(t=1, beta=3, h=1, coeff=2)
    assert s.derive("tau") == Symbol.zero()


# -- poisson bracket ------------------------------------------------------------


def test_poisson_drops_to_minus_4_t_tau():
    F1 = TAU * TAU - mono(t=-2, mask=0b1111, coeff=2 * ALPHA)
    assert (T * T).poisson(F1) == mono(t=1, tau=1, coeff=-4)


def test_poisson_odd_pair_gives_diagonal():
    assert (ETA1 * ETA2).poisson(XI1 * XI2) == mono(mask=0b0101) + mono(mask=0b1010)


def _poisson_by_definition(a, b):
    """{A, B} from Symbol.derive and *, parity part by parity part of A."""
    out = Symbol.zero()
    for part in kernel.parity_split(a.terms):
        pa = Symbol(part)
        even = pa.derive("tau") * b.derive("t") - pa.derive("t") * b.derive("tau")
        odd = Symbol.zero()
        for xi, eta in (("xi1", "eta1"), ("xi2", "eta2")):
            odd = odd + pa.derive(xi) * b.derive(eta) + pa.derive(eta) * b.derive(xi)
        out = out + even + (odd if pa.parity() else -odd)
    return out


def _random_map(rng, tau_min=-3):
    """1-4 terms of mixed parity with beta/h powers and coefficients in Q(alpha)."""
    out = Symbol.zero()
    for _ in range(rng.randrange(1, 5)):
        coeff = Fraction(rng.randrange(-5, 6) or 1, rng.randrange(1, 4))
        coeff = coeff * rng.choice(
            (S_ONE, ALPHA, ALPHA + 1, (ALPHA - 2).inv(), (ALPHA + 1) / (ALPHA * ALPHA + 3))
        )
        out = out + mono(
            t=rng.randrange(-3, 4),
            tau=rng.randrange(tau_min, 4),
            mask=rng.randrange(16),
            beta=rng.randrange(3),
            h=rng.randrange(3),
            coeff=coeff,
        )
    return out


def test_poisson_kernel_matches_definition():
    rng = random.Random(1008)
    for _ in range(2000):
        a, b = _random_map(rng), _random_map(rng)
        assert a.poisson(b) == _poisson_by_definition(a, b), (a, b)


def _scalar_poisson_walk(a: dict, b: dict) -> dict:
    """Reference: the closed-form bracket walked pair by pair on Scalar
    coefficients, one coefficient product per pair of terms."""
    out: dict = {}
    for (t1, u1, m1, b1, h1), c1 in a.items():
        for (t2, u2, m2, b2, h2), c2 in b.items():
            t, u, be, hh = t1 + t2, u1 + u2, b1 + b2, h1 + h2
            w = (u1 * t2 - t1 * u2) * kernel._MERGE[m1][m2]
            terms = [((t - 1, u - 1, m1 | m2, be, hh), w)] if w else []
            terms += [((t, u, mask, be, hh), s) for mask, s in kernel._CONTRACTIONS[m1][m2]]
            for key, w in terms:
                c = c1 * c2 * w
                if key in out:
                    nv = out[key] + c
                    if nv:
                        out[key] = nv
                    else:
                        del out[key]
                else:
                    out[key] = c
    return out


# rational, alpha-polynomial and polynomial-denominator coefficients
ORACLE_COEFFS = (S_ONE, ALPHA, ALPHA * ALPHA - 1, (ALPHA - 2).inv(),
                 (ALPHA + 1) / (ALPHA * ALPHA + 3))


@st.composite
def general_symbols(draw):
    """Up to five terms of any parities, with beta and h powers."""
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 15),
                  st.integers(0, 2), st.integers(0, 2)),
        st.tuples(st.fractions(min_value=-6, max_value=6, max_denominator=6).filter(bool),
                  st.sampled_from(ORACLE_COEFFS)),
        max_size=5))
    return Symbol({key: kind * value for key, (value, kind) in terms.items()})


@settings(max_examples=150, deadline=None)
@given(general_symbols(), general_symbols())
def test_int_walk_matches_scalar_walk(a, b):
    expected = _scalar_poisson_walk(a.terms, b.terms)
    assert kernel.poisson_terms(a.terms, b.terms) == expected
    assert a.poisson(b).terms == expected
    assert bool(a.poisson(b)) == bool(expected)


def test_layers_split_once():
    a = _random_map(random.Random(5))
    split = a.layers()
    assert a.layers() is split
    a.poisson(a).terms, a.poisson(T).terms  # results fold; the operand split stays
    assert a.layers() is split and split == _random_map(random.Random(5)).layers()


# -- products, multiples and derivatives on int layers ------------------------


def _scalar_mul_terms(a: dict, b: dict) -> dict:
    """Reference: the supercommutative product walked pair by pair on
    Scalar coefficients, one coefficient product per pair of terms."""
    out: dict = {}
    for (t1, u1, m1, b1, h1), c1 in a.items():
        for (t2, u2, m2, b2, h2), c2 in b.items():
            sign = _merge_sign(m1, m2)
            if not sign:
                continue
            key = (t1 + t2, u1 + u2, m1 | m2, b1 + b2, h1 + h2)
            c = c1 * c2 if sign > 0 else -(c1 * c2)
            if key in out:
                nv = out[key] + c
                if nv:
                    out[key] = nv
                else:
                    del out[key]
            else:
                out[key] = c
    return out


def _scalar_multiple(a: dict, k) -> dict:
    """Reference: one Scalar product per term."""
    return {key: v for key, c in a.items() if (v := c * k)}


_FRACTIONS = st.fractions(min_value=-6, max_value=6, max_denominator=6)
# zero, rational, alpha-polynomial and polynomial-denominator constants
CONSTANTS = st.one_of(
    st.integers(-4, 4),
    _FRACTIONS,
    st.builds(lambda f, g: AlphaPoly.from_rationals({0: f, 2: g}), _FRACTIONS, _FRACTIONS),
    st.builds(lambda f, kind: kind * f, _FRACTIONS, st.sampled_from(ORACLE_COEFFS)),
)


@settings(max_examples=150, deadline=None)
@given(general_symbols(), general_symbols(), CONSTANTS)
def test_layer_products_match_scalar_oracle(a, b, k):
    odd = Symbol(kernel.parity_split(a.terms)[1])
    ab = _scalar_mul_terms(a.terms, b.terms)
    cases = [
        (a * b, ab),
        (odd * odd, _scalar_mul_terms(odd.terms, odd.terms)),
        (a * k, _scalar_multiple(a.terms, k)),
        ((a * b) * k, _scalar_multiple(ab, k)),
        (k * a, _scalar_multiple(a.terms, k)),
    ]
    derived = []
    for i, var in enumerate(VAR_NAMES):
        # kernel.derive_terms on a Scalar map: one Scalar operation per term
        derived.append((a.derive(var), kernel.derive_terms(a.terms, i)))
        derived.append(((a * b).derive(var), kernel.derive_terms(ab, i)))
    assert not _scalar_mul_terms(odd.terms, odd.terms)
    for j, (r, expected) in enumerate(cases + derived):
        # unfolded, but for a derivative, which walks the term map
        assert (r._terms is None) == (j < len(cases)) and bool(r) == bool(expected)
        assert r.terms == expected  # equal values on the same key set
        assert all(isinstance(c, Scalar) for c in r.terms.values())
    assert not (a * k + a * -k).terms


def test_alpha_poly_operand_defers_to_symbols_and_scalars():
    # AlphaPoly arithmetic returns NotImplemented for other types
    a = ALPHA.an
    assert a * T == T * a == Symbol({(1, 0, 0, 0, 0): ALPHA})
    assert a * S_ONE == ALPHA and a + S_ONE == ALPHA + 1 and a - S_ONE == ALPHA - 1
    with pytest.raises(TypeError):
        a * 2


def test_zero_operands_skip_the_kernel(monkeypatch):
    from superpds import quantize

    a = mono(t=1, tau=2, mask=0b0101, coeff=ALPHA)
    zeros = [Symbol.zero(), a - a, quantize.moyal_mul(XI1, XI1)]
    assert zeros[2]._terms is None  # unfolded, from layers
    for name in ("poisson_terms", "moyal_terms", "h_bracket_terms"):
        monkeypatch.setattr(kernel, name, None)  # a kernel call would raise
    for zero in zeros:
        for r in (zero.poisson(a), a.poisson(zero), quantize.moyal_mul(zero, a),
                  quantize.moyal_mul(a, zero), quantize.h_bracket(zero, a),
                  quantize.h_bracket(a, zero), zero.poisson(zero)):
            assert not r and r.terms == {} and r is not zero


def test_constants_central():
    rng = random.Random(3)
    for _ in range(20):
        a = random_monomial(rng)
        assert not a.poisson(ONE)


def test_virasoro_relations():
    def L(n):
        return mono(t=n + 1, tau=-n + 1, coeff=Fraction(1, 2))

    for n in range(-6, 7):
        for m in range(-6, 7):
            assert L(n).poisson(L(m)) == L(n + m) * Fraction(m - n)


@settings(max_examples=200, deadline=None)
@given(homogeneous_parity_symbols(), homogeneous_parity_symbols())
def test_super_anticommutativity(a, b):
    sign = -1 if (a.parity() and b.parity()) else 1
    lhs = a.poisson(b)
    rhs = b.poisson(a) * Fraction(-sign)
    assert lhs == rhs
    assert a - b == a + (-b)


@settings(max_examples=200, deadline=None)
@given(monomials(), monomials(), monomials())
def test_super_jacobi(a, b, c):
    pa, pb, pc = a.parity(), b.parity(), c.parity()

    def pref(p, q):
        return Fraction(-1 if (p and q) else 1)

    total = (
        a.poisson(b.poisson(c)) * pref(pa, pc)
        + b.poisson(c.poisson(a)) * pref(pb, pa)
        + c.poisson(a.poisson(b)) * pref(pc, pb)
    )
    assert not total


@settings(max_examples=200, deadline=None)
@given(monomials(), monomials(), st.sampled_from(["t", "tau", "xi1", "xi2", "eta1", "eta2"]))
def test_leibniz(a, b, v):
    odd_v = v not in ("t", "tau")
    sign = Fraction(-1 if (odd_v and a.parity()) else 1)
    lhs = (a * b).derive(v)
    rhs = a.derive(v) * b + (a * b.derive(v)) * sign
    assert lhs == rhs


@settings(max_examples=150, deadline=None)
@given(monomials(), monomials())
def test_grading_additivity(a, b):
    br = a.poisson(b)
    if not br:
        return
    assert br.k_degree() == a.k_degree() + b.k_degree() - 2
    assert br.n_degree() == a.n_degree() + b.n_degree()
    wa, wb = a.weight(), b.weight()
    assert br.weight() == (wa[0] + wb[0], wa[1] + wb[1])


# -- parity / gradings / membership ---------------------------------------------


def test_parity_values():
    assert (T * TAU).parity_name() == "even"
    assert (TAU * XI1 + mono(t=-1, mask=0b1011, coeff=ALPHA)).parity_name() == "odd"
    assert (T + XI1).parity_name() == "mixed"


def test_gradings_examples():
    s = mono(t=-1, tau=-1, mask=0b1111)
    assert s.gradings() == (2, 0, (0, 0))
    assert (T * T).gradings() == (2, 2, (0, 0))
    assert (T + T * T).k_degree() is None
    assert (T + T * T).n_degree() is None
    assert (T + T * T).weight() == (0, 0)


def test_membership():
    F1 = TAU * TAU - mono(t=-2, mask=0b1111, coeff=2 * ALPHA)
    assert F1.in_subalgebra("P+")
    assert F1.in_subalgebra("K4")
    assert F1.in_subalgebra("K4'")
    gap = mono(t=-1, tau=-1, mask=0b1111)
    assert gap.in_subalgebra("K4")
    assert not gap.in_subalgebra("K4'")
    assert not mono(t=1, tau=-1).in_subalgebra("P+")


# -- Hamiltonian fields ------------------------------------------------------------


def test_hamiltonian_of_t_tau():
    f = hamiltonian_field(T * TAU)
    assert f.components[0] == T
    assert f.components[1] == -TAU
    assert not any(f.components[2:])


def test_hamiltonian_of_constant_is_zero():
    assert not hamiltonian_field(ONE)


def test_hamiltonian_of_xi1():
    f = hamiltonian_field(XI1)
    # only the d/deta1 component survives: -(-1)^1 * 1 = 1
    assert f.components[4] == ONE
    assert not any(c for i, c in enumerate(f.components) if i != 4)


def test_hamiltonian_rejects_mixed():
    with pytest.raises(MixedParityError):
        hamiltonian_field(T + XI1)


def test_euler_commutes_with_itself():
    e = euler_field()
    assert not e.commutator(e)


def test_euler_characterization_samples():
    e = euler_field()
    assert not hamiltonian_field(T * T).commutator(e)
    assert hamiltonian_field(T * T * T).commutator(e)


def test_euler_measures_k_degree():
    e = euler_field()
    rng = random.Random(5)
    for _ in range(20):
        a = random_monomial(rng)
        assert e.apply(a) == a * Fraction(a.k_degree())


# -- printing ----------------------------------------------------------------------


def test_printing_examples():
    F1 = TAU * TAU - mono(t=-2, mask=0b1111, coeff=2 * ALPHA)
    assert str(F1) == "-2*alpha*t^-2*xi1*xi2*eta1*eta2 + tau^2"
    assert str(Symbol.zero()) == "0"
    assert str(ONE) == "1"
    assert str(mono(t=-1, tau=1, coeff=2)) == "2*t^-1*tau"
    assert str(mono(beta=2, h=1, coeff=-1)) == "-beta^2*h"
