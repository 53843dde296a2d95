from fractions import Fraction

import pytest

from superpds import d21, kernel
from superpds.expr import parse
from superpds.scalars import ALPHA, S_ONE, Scalar
from superpds.symbols import Symbol


def test_basis_matches_frozen_expressions():
    expected = {
        "E1": "t^2",
        "F1": "tau^2 - 2*alpha*t^-2*xi1*xi2*eta1*eta2",
        "H1": "t*tau",
        "E2": "xi1*xi2",
        "F2": "eta1*eta2",
        "H2": "xi1*eta1 + xi2*eta2",
        "E3": "xi1*eta2",
        "F3": "xi2*eta1",
        "H3": "xi1*eta1 - xi2*eta2",
        "T1": "t*eta1",
        "T2": "t*eta2",
        "T3": "t*xi1",
        "T4": "t*xi2",
        "D1": "tau*xi1 + alpha*t^-1*xi1*xi2*eta2",
        "D2": "tau*xi2 - alpha*t^-1*xi1*xi2*eta1",
        "D3": "tau*eta1 + alpha*t^-1*xi2*eta1*eta2",
        "D4": "tau*eta2 - alpha*t^-1*xi1*eta1*eta2",
    }
    basis = d21.embedded_basis()
    for name, text in expected.items():
        assert basis[name] == parse(text), name


def test_basis_lands_in_derived_contact_algebra():
    for name, sym in d21.embedded_basis().items():
        assert sym.k_degree() == 2, name
        assert sym.in_subalgebra("K4'"), name
        assert sym.parity() == d21.PARITY[name], name
        assert sym.n_degree() is not None and sym.weight() is not None, name


def test_basis_at_alpha_zero_loses_corrections():
    basis = d21.embedded_basis()
    assert basis["F1"].specialize(0) == parse("tau^2")
    assert basis["D1"].specialize(0) == parse("tau*xi1")


# -- abstract algebra ----------------------------------------------------------


def test_standard_sigma_sums_to_zero_and_is_simple():
    alg = d21.abstract_algebra(*d21.standard_sigma())
    assert alg.sum_zero
    assert alg.simple


def test_sigma_zero_cases():
    alg = d21.abstract_algebra(2, -1, -1)
    assert alg.sum_zero and alg.simple
    degenerate = d21.abstract_algebra(2, -2, 0)
    assert degenerate.sum_zero and not degenerate.simple


def test_jacobi_iff_sigma_sum_zero():
    good = d21.abstract_algebra(*d21.standard_sigma())
    assert d21.jacobi_check_abstract(good) is None
    bad = d21.abstract_algebra(1, 1, 1)
    failure = d21.jacobi_check_abstract(bad)
    assert failure is not None
    triple, residual = failure
    assert residual


def test_jacobi_embedded():
    assert d21.jacobi_check_embedded() is None


def _full_scan(names, residual):
    """Exhaustive oracle of the Jacobi checks: the first ordered triple, in
    lexicographic order, with a nonzero residual, and that residual."""
    for x in names:
        for y in names:
            for z in names:
                r = residual(x, y, z)
                if r:
                    return (x, y, z), r
    return None


def _abstract_residual(alg):
    par = alg.parity

    def residual(x, y, z):
        acc: dict = {}
        for coeff_map, (p, q) in (
            (alg.bracket_elements({x: S_ONE}, alg.table[(y, z)]), (x, z)),
            (alg.bracket_elements({y: S_ONE}, alg.table[(z, x)]), (y, x)),
            (alg.bracket_elements({z: S_ONE}, alg.table[(x, y)]), (z, y)),
        ):
            sign = -1 if par[p] and par[q] else 1
            for n, c in coeff_map.items():
                d21._add_into(acc, n, c * sign)
        return acc

    return residual


def _embedded_residual(basis):
    """-J(x, y, z) for the Poisson bracket, as ``jacobi_check_embedded``
    reports it."""
    pair = {(x, y): basis[x].poisson(basis[y]) for x in basis for y in basis}

    def pref(p, q):
        return Fraction(-1 if d21.PARITY[p] and d21.PARITY[q] else 1)

    def residual(x, y, z):
        return -(
            basis[x].poisson(pair[(y, z)]) * pref(x, z)
            + basis[y].poisson(pair[(z, x)]) * pref(y, x)
            + basis[z].poisson(pair[(x, y)]) * pref(z, y)
        )

    return residual


@pytest.mark.parametrize("sigma", [(1, 1, 1), (1, 2, 3), d21.standard_sigma()])
def test_jacobi_abstract_matches_full_scan(sigma):
    alg = d21.abstract_algebra(*sigma)
    expected = _full_scan(alg.names, _abstract_residual(alg))
    assert d21.jacobi_check_abstract(alg) == expected
    assert (expected is None) == (sum(sigma) == 0)


def test_jacobi_embedded_matches_full_scan(monkeypatch):
    basis = d21.embedded_basis()
    assert _full_scan(list(basis), _embedded_residual(basis)) is None
    poisson = kernel.poisson_terms

    def broken(a, b):
        # breaks Jacobi: the coefficient at t^a is scaled by 1 + a^2, on
        # the int layers ``Symbol.poisson`` passes and gets back
        layers, d, den = poisson(a, b)
        return ({e: {key: v * (1 + key[0] ** 2) for key, v in layer.items()}
                 for e, layer in layers.items()}, d, den)

    monkeypatch.setattr(kernel, "poisson_terms", broken)
    expected = _full_scan(list(basis), _embedded_residual(basis))
    found = d21.jacobi_check_embedded()
    assert found == expected
    assert (found[0], str(found[1])) == (("E1", "F1", "H1"), "-64*t*tau")


def test_jacobi_embedded_takes_the_lowest_failing_orbit(monkeypatch):
    basis = d21.embedded_basis()
    poisson = kernel.poisson_terms

    def broken(a, b):
        # breaks Jacobi on odd output keys only: the coefficient at a mask
        # of three generators is tripled
        layers, d, den = poisson(a, b)
        return ({e: {key: v * 3 if key[2].bit_count() == 3 else v for key, v in layer.items()}
                 for e, layer in layers.items()}, d, den)

    monkeypatch.setattr(kernel, "poisson_terms", broken)
    expected = _full_scan(list(basis), _embedded_residual(basis))
    found = d21.jacobi_check_embedded()
    assert found == expected
    # the first of 308 failing orbits, 296th of 1649; the last is 1471st
    orbits = list(d21._cyclic_orbit_triples(list(basis)))
    assert orbits.index(found[0]) == 296
    assert _embedded_residual(basis)("H3", "D4", "D3")


def test_jacobi_embedded_brackets_twice_per_name(monkeypatch):
    calls = []
    poisson_terms = kernel.poisson_terms

    def counted(a, b):
        calls.append(1)
        return poisson_terms(a, b)

    monkeypatch.setattr(kernel, "poisson_terms", counted)
    assert d21.jacobi_check_embedded() is None
    assert len(calls) == 2 * len(d21.BASIS_NAMES)


def test_jacobi_embedded_refuses_a_beta_term():
    basis = dict(d21.embedded_basis())
    basis["H1"] = basis["H1"] + Symbol.monomial(t=1, tau=1, beta=1)
    with pytest.raises(ValueError, match="basis element H1 has a beta term"):
        d21.jacobi_check_embedded(basis)


@pytest.mark.parametrize("pair,deltas", [
    ((("v", 2, 1, 2), ("Phi", 1, 1, 1)), {("Phi", 3, 1, 2): ALPHA}),
    ((("Phi", 2, 1, 2), ("v", 1, 2, 2)), {("Phi", 2, 1, 1): S_ONE / (ALPHA + 1)}),
    ((("v", 2, 2, 1), ("v", 1, 1, 2)), {("Phi", 1, 1, 2): Scalar.from_fraction(Fraction(1, 3))}),
    # zero at alpha = 1: the alpha powers of the sums must be kept apart
    ((("v", 2, 1, 2), ("Phi", 1, 1, 1)), {("Phi", 3, 1, 2): ALPHA - 1}),
    # J's coefficients sum to zero over the names: they must be kept apart
    ((("Phi", 3, 1, 1), ("Phi", 3, 1, 1)), {("v", 2, 2, 1): S_ONE, ("v", 2, 1, 2): -S_ONE}),
])
def test_jacobi_abstract_with_a_perturbed_constant_matches_full_scan(pair, deltas):
    alg = d21.abstract_algebra(*d21.standard_sigma())
    row = dict(alg.table[pair])
    for name, delta in deltas.items():
        row[name] = row[name] + delta if name in row else delta
    alg.table[pair] = row
    expected = _full_scan(alg.names, _abstract_residual(alg))
    assert expected is not None
    assert d21.jacobi_check_abstract(alg) == expected


def test_cyclic_orbit_triples():
    names = d21.BASIS_NAMES
    triples = list(d21._cyclic_orbit_triples(names))
    assert len(triples) == (17 ** 3 + 2 * 17) // 3 == 1649
    index = {name: i for i, name in enumerate(names)}

    def key(triple):
        return tuple(index[n] for n in triple)

    assert [key(t) for t in triples] == sorted(key(t) for t in triples)
    orbits = [frozenset({t, t[1:] + t[:1], t[2:] + t[:2]}) for t in triples]
    assert len(set(orbits)) == len(orbits)
    assert sum(map(len, orbits)) == len(names) ** 3
    assert all(key(t) == min(map(key, orbit)) for t, orbit in zip(triples, orbits))


# -- equivalence -----------------------------------------------------------------


def test_equivalence_by_scaling():
    k, pi = d21.sigma_equivalent((2, -1, -1), (-4, 2, 2))
    assert k == Scalar.from_fraction(-2)
    assert pi == (0, 1, 2)


def test_equivalence_by_cyclic_permutation():
    triple = d21.standard_sigma()
    rotated = (triple[2], triple[0], triple[1])
    witness = d21.sigma_equivalent(triple, rotated)
    assert witness is not None
    k, pi = witness
    assert k == S_ONE
    assert pi == (2, 0, 1)


def test_equivalence_swap():
    witness = d21.sigma_equivalent((1, 1, -2), (1, -2, 1))
    assert witness is not None
    k, pi = witness
    assert k == S_ONE
    assert pi in ((0, 2, 1),)


def test_inequivalent_triples():
    assert d21.sigma_equivalent((1, 1, -2), (1, 2, -3)) is None


# -- the isomorphism ------------------------------------------------------------


def test_verify_iso_full_scan():
    assert d21.verify_iso() is None


def _verify_iso_reference():
    """verify_iso pair by pair: the first failing (pair, lhs, rhs)."""
    alg = d21.abstract_algebra(*d21.standard_sigma())
    iso = d21._iso_map()
    basis = d21.embedded_basis()
    for x in alg.names:
        cx, bx = iso[x]
        for y in alg.names:
            cy, by = iso[y]
            coeff = cx * cy
            if alg.parity[x] and alg.parity[y]:
                coeff = coeff * -2
            rhs = basis[bx].poisson(basis[by]) * coeff
            lhs = Symbol.zero()
            for n, c in alg.table[(x, y)].items():
                cn, target = iso[n]
                lhs = lhs + basis[target] * (c * cn)
            if lhs - rhs:
                return (x, y), lhs, rhs
    return None


def test_verify_iso_reports_a_flipped_odd_image(monkeypatch):
    iso_map = d21._iso_map
    alg = d21.abstract_algebra(*d21.standard_sigma())
    for name in d21.ODD_ABSTRACT:

        def flipped(name=name):
            m = iso_map()
            coeff, target = m[name]
            m[name] = (-coeff, target)
            return m

        monkeypatch.setattr(d21, "_iso_map", flipped)
        bad = d21.verify_iso()
        assert bad is not None, name
        pair, lhs, rhs = bad
        # the first mismatch is a pair that meets the flipped image
        assert name in pair or name in alg.table[pair], (name, pair)
        assert lhs != rhs
        assert bad == _verify_iso_reference(), name


# -- structure table ---------------------------------------------------------------


def test_structure_constants_examples():
    tbl = d21.structure_table()
    assert tbl[("D1", "D3")] == {"F1": S_ONE}
    assert tbl[("F2", "E2")] == {"H2": S_ONE}
    assert tbl[("H1", "E1")] == {"E1": Scalar.from_fraction(2)}
    half = Scalar.from_fraction(Fraction(1, 2))
    assert tbl[("T1", "D1")] == {
        "H1": S_ONE,
        "H2": (S_ONE + ALPHA) * half,
        "H3": (S_ONE - ALPHA) * half,
    }


def test_even_part_is_three_commuting_sp2_triples():
    tbl = d21.structure_table()
    triples = (("E1", "F1", "H1"), ("E2", "F2", "H2"), ("E3", "F3", "H3"))
    for i, (e, f, h) in enumerate(triples):
        assert tbl[(h, e)] == {e: Scalar.from_fraction(2)}
        assert tbl[(h, f)] == {f: Scalar.from_fraction(-2)}
        ef = tbl[(e, f)]
        assert set(ef) == {h}
        for j, other in enumerate(triples):
            if i != j:
                for x in (e, f, h):
                    for y in other:
                        assert tbl[(x, y)] == {}, (x, y)


def _expand_reference(value, basis):
    """expand_in_basis one key at a time, as the table was first built."""
    coeffs = {}
    for name, key in d21._LEAD_KEYS.items():
        c = value.coefficient(key)
        if c:
            coeffs[name] = c
    u = value.coefficient(d21._H_KEYS[0])
    v = value.coefficient(d21._H_KEYS[1])
    for name, c in (("H2", (u + v) * Fraction(1, 2)), ("H3", (u - v) * Fraction(1, 2))):
        if c:
            coeffs[name] = c
    check = value
    for name, c in coeffs.items():
        check = check - basis[name] * c
    if check:
        raise ValueError("symbol outside the basis span, residual %s" % (check,))
    return coeffs


def _table_reference(basis):
    """The structure table with one bracket and one expansion per pair."""
    return {(x, y): _expand_reference(basis[x].poisson(basis[y]), basis)
            for x in d21.BASIS_NAMES for y in d21.BASIS_NAMES}


def test_structure_table_matches_per_pair_reference():
    table = d21.structure_table()
    reference = _table_reference(d21.embedded_basis())
    # keys, their order, the order of each map and the canonical values
    assert repr(list(table.items())) == repr(list(reference.items()))


def _perturbed(name, extra):
    basis = dict(d21.embedded_basis())
    basis[name] = basis[name] + extra
    return basis


@pytest.mark.parametrize("name,extra", [
    ("F1", Symbol.monomial(t=-2, mask=0b1111, coeff=ALPHA)),
    ("D3", Symbol.monomial(t=1, mask=0b0100)),
    ("D2", Symbol.monomial(t=-1, mask=0b0111, coeff=1)),
    ("H3", Symbol.monomial(mask=0b1010, coeff=2)),
])
def test_perturbed_basis_raises_as_the_reference(name, extra):
    # each perturbation takes some bracket out of the span
    basis = _perturbed(name, extra)
    with pytest.raises(ValueError) as expected:
        _table_reference(basis)
    with pytest.raises(ValueError) as got:
        d21._structure_table(basis)
    assert str(got.value) == str(expected.value)


def test_structure_table_brackets_once_per_name(monkeypatch):
    calls = []
    poisson_terms = kernel.poisson_terms

    def counted(a, b):
        calls.append(1)
        return poisson_terms(a, b)

    monkeypatch.setattr(kernel, "poisson_terms", counted)
    d21.structure_table.__wrapped__()
    assert len(calls) == len(d21.BASIS_NAMES)


def test_expand_in_basis_rejects_outside_span():
    from superpds.symbols import Symbol

    with pytest.raises(ValueError):
        d21.expand_in_basis(Symbol.monomial(t=5))


# -- exceptional parameters -----------------------------------------------------


@pytest.mark.parametrize(
    "alpha,dim",
    [(2, 9), (3, 9), (Fraction(1, 2), 9), (0, 9), (1, 6), (-1, 6)],
)
def test_derived_even_dim(alpha, dim):
    assert d21.derived_even_dim(alpha) == dim
