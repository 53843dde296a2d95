"""Formal deformations of the embedding: rho + beta rho_1 + beta^2 rho_2 + ...

A deformed map sends each basis element X to the beta-graded symbol
sum_k beta^k rho_k(X) with rho_0 the embedding itself.  Verification is
exact: since all deformations of interest stop at order two and the bracket
of finitely many orders produces finitely many beta powers, the
homomorphism identity is checked identically in beta (and alpha, and h for
the star engine) rather than order by order up to a cutoff.

The two views of integrability are both implemented: the direct
homomorphism identity on the assembled map, and the order-k relations
d rho_k + 1/2 sum_{i+j=k} [[rho_i, rho_j]] = 0 built from the cochain
differential and cup product.
"""

from __future__ import annotations

from .cohomology import (
    BlockSpec,
    Cochain1,
    Engine,
    cochain_engine,
    cup,
    d1,
    named_cocycle,
    poisson_engine,
    quantized_engine,
)
from .d21 import BASIS_NAMES
from .scalars import S_HALF
from .symbols import SYM_ZERO, Symbol


class DeformedMap:
    """The embedding plus finitely many higher-order correction cochains."""

    def __init__(self, orders, engine: Engine | None = None):
        self.engine = cochain_engine(engine)
        self.orders = [o if isinstance(o, Cochain1) else Cochain1(o) for o in orders]

    def total(self) -> dict:
        """Assembled images: X -> rho(X) + sum_k beta^k rho_k(X)."""
        out = {}
        for name in BASIS_NAMES:
            sym = self.engine.basis[name]
            for k, coch in enumerate(self.orders, start=1):
                img = coch.image(name)
                if img:
                    sym = sym + img.shift_beta(k)
            out[name] = sym
        return out

    def order(self, k: int) -> Cochain1:
        if k == 0:
            raise ValueError("order zero is the embedding itself")
        if k <= len(self.orders):
            return self.orders[k - 1]
        return Cochain1({})


def verify_homomorphism(dm: DeformedMap):
    """Check [d(X), d(Y)] = d([X, Y]) identically in beta.

    Returns None on success, else a list of (pair, beta_power, residual)
    sorted by pair then power.
    """
    engine = dm.engine
    total = dm.total()
    failures = []
    for (x, y) in engine.pairs:
        lhs = engine.bracket(total[x], total[y])
        rhs = SYM_ZERO
        for name, coeff in engine.struct[(x, y)].items():
            rhs = rhs + total[name] * coeff
        residual = lhs - rhs
        if residual:
            top = residual.max_beta()
            for p in range(top + 1):
                comp = residual.beta_component(p)
                if comp:
                    failures.append(((x, y), p, comp))
    return failures or None


def verify_order_relations(dm: DeformedMap, max_order: int):
    """Check d rho_k + 1/2 sum_{i+j=k, i,j>=1} [[rho_i, rho_j]] = 0 for
    k = 1..max_order.  Returns None or (k, pair, residual)."""
    engine = dm.engine
    for k in range(1, max_order + 1):
        acc = d1(dm.order(k), engine)  # all zero for an empty order
        for i in range(1, k):
            j = k - i
            ci, cj = dm.order(i), dm.order(j)
            if not (ci and cj):
                continue
            cp = cup(ci, cj, engine)
            for pair, val in cp.items():
                if val:
                    acc[pair] = acc[pair] + val * S_HALF
        for pair, val in acc.items():
            if val:
                return k, pair, val
    return None


# ---------------------------------------------------------------------------
# the three distinguished deformations
# ---------------------------------------------------------------------------


def cor42_map() -> DeformedMap:
    """First order only: the K4'-valued cocycle theta deforms exactly."""
    return DeformedMap([named_cocycle("theta")], poisson_engine())


def _rho2_poisson() -> Cochain1:
    return Cochain1(
        {"F1": Symbol.monomial(t=-2)}, BlockSpec(-2, 0, "P+")
    )


def thm43_map() -> DeformedMap:
    """theta1 plus the second-order correction F1 -> t^-2."""
    return DeformedMap([named_cocycle("theta1"), _rho2_poisson()], poisson_engine())


def thm45_map() -> DeformedMap:
    """The star-product analogue: thetabar1 with the same F1 -> t^-2."""
    return DeformedMap(
        [named_cocycle("thetabar1"), _rho2_poisson()], quantized_engine()
    )


def verify_thm45():
    """Homomorphism identity for the deformed star-product embedding,
    identically in alpha, beta and h."""
    return verify_homomorphism(thm45_map())
