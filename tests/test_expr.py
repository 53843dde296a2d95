import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superpds import d21, quantize
from superpds.expr import ExprError, parse, parse_scalar
from superpds.scalars import ALPHA, Scalar
from superpds.symbols import Symbol


def test_parse_embedding_element():
    assert parse("tau^2 - 2*alpha*t^-2*xi1*xi2*eta1*eta2") == d21.embedded_basis()["F1"]


def test_parse_deformed_element():
    assert parse("t*tau + (alpha+1)/2*h") == quantize.gamma_h_basis()["H1"]


def test_parse_numbers_and_parens():
    assert parse("3/4") == Symbol.constant(Scalar.from_fraction(1) * 3 / 4)
    assert parse("-(t + tau)") == -(parse("t") + parse("tau"))
    assert parse("(alpha + 1)^2") == Symbol.constant((ALPHA + 1) * (ALPHA + 1))
    assert parse("0") == Symbol.zero()


def test_semantic_errors():
    with pytest.raises(ExprError):
        parse("xi1^2")
    with pytest.raises(ExprError):
        parse("t/xi1")
    with pytest.raises(ExprError):
        parse("h^-1")
    with pytest.raises(ExprError):
        parse("beta^-3")
    with pytest.raises(ExprError):
        parse("1/0")


def test_syntax_errors_carry_positions():
    with pytest.raises(ExprError) as err:
        parse("t + @")
    assert err.value.pos == 4
    with pytest.raises(ExprError):
        parse("t t")
    with pytest.raises(ExprError):
        parse("(t + tau")


def test_unknown_name():
    for text in ("xj1", "s"):
        with pytest.raises(ExprError):
            parse(text)


def test_unicode_aliases_accepted():
    assert parse("τ^2 − 2·α*t^-2*ξ₁*ξ₂*η₁*η₂") == d21.embedded_basis()["F1"]


def test_parse_scalar():
    assert parse_scalar("(alpha + 1)/2") == (ALPHA + 1) / 2
    with pytest.raises(ExprError):
        parse_scalar("t + 1")


@st.composite
def symbols(draw):
    n = draw(st.integers(1, 4))
    out = Symbol.zero()
    for _ in range(n):
        coeff = Scalar.from_fraction(
            draw(st.fractions(min_value=-9, max_value=9, max_denominator=5).filter(bool))
        )
        if draw(st.booleans()):
            coeff = coeff * ALPHA + draw(st.integers(-3, 3))
        if not coeff:
            continue
        out = out + Symbol.monomial(
            t=draw(st.integers(-4, 4)),
            tau=draw(st.integers(-4, 4)),
            mask=draw(st.integers(0, 15)),
            beta=draw(st.integers(0, 2)),
            h=draw(st.integers(0, 2)),
            coeff=coeff,
        )
    return out


@settings(max_examples=250, deadline=None)
@given(symbols())
def test_print_parse_round_trip(sym):
    assert parse(str(sym)) == sym
