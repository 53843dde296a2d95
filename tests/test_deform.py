from superpds import cohomology as coh
from superpds import deform, kernel, quantize
from superpds.scalars import S_HALF
from superpds.symbols import Symbol


def test_undeformed_embedding_is_homomorphism():
    assert deform.verify_homomorphism(deform.DeformedMap([])) is None


def test_assemble_beta_grading():
    dm = deform.cor42_map()
    total = dm.total()
    theta = coh.named_cocycle("theta")
    basis = dm.engine.basis
    for name in total:
        assert total[name].beta_component(0) == basis[name]
        assert total[name].beta_component(1) == theta.image(name)


def test_cor42_is_formal_deformation():
    dm = deform.cor42_map()
    assert deform.verify_homomorphism(dm) is None
    assert deform.verify_order_relations(dm, 4) is None


def test_thm43_is_formal_deformation():
    dm = deform.thm43_map()
    assert deform.verify_homomorphism(dm) is None
    assert deform.verify_order_relations(dm, 4) is None


def test_order_relations_bracket_only_nonzero_images(monkeypatch):
    # d1 and cup skip images a cochain does not have: 168 brackets of the
    # 1,728 the order relations of thm43 to order 4 name
    dm = deform.thm43_map()  # engine and structure table built first
    calls = []
    poisson_terms = kernel.poisson_terms

    def counted(a, b):
        calls.append((a, b))
        return poisson_terms(a, b)

    monkeypatch.setattr(kernel, "poisson_terms", counted)
    assert deform.verify_order_relations(dm, 4) is None
    assert 0 < len(calls) <= 168


def test_higher_cups_of_thm43_data_vanish():
    engine = coh.poisson_engine()
    rho1 = coh.named_cocycle("theta1")
    rho2 = coh.Cochain1({"F1": Symbol.monomial(t=-2)})
    assert coh.pairmap_is_zero(coh.cup(rho1, rho2, engine))
    assert coh.pairmap_is_zero(coh.cup(rho2, rho2, engine))


def test_missing_second_order_fails_exactly_at_beta_squared():
    broken = deform.DeformedMap([coh.named_cocycle("theta1")])
    failures = deform.verify_homomorphism(broken)
    assert failures is not None
    assert {p for _, p, _ in failures} == {2}
    cp = coh.cup(
        coh.named_cocycle("theta1"), coh.named_cocycle("theta1"), broken.engine
    )
    for pair, power, residual in failures:
        assert residual == cp[pair] * S_HALF


def test_homomorphism_iff_order_relations():
    maps = [
        deform.DeformedMap([]),
        deform.cor42_map(),
        deform.thm43_map(),
        deform.DeformedMap([coh.named_cocycle("theta1")]),
        deform.DeformedMap([coh.named_cocycle("theta2")]),
    ]
    for dm in maps:
        hom_ok = deform.verify_homomorphism(dm) is None
        top = 2 * max(len(dm.orders), 1)
        rel_ok = deform.verify_order_relations(dm, top) is None
        assert hom_ok == rel_ok


def test_gauge_robustness():
    # shift rho1 by a coboundary and compensate rho2: still a deformation
    engine = coh.poisson_engine()
    block = coh.BlockSpec(0, 0, "P+")
    m = Symbol.constant(1)  # the only weight-zero C^0 element of the block
    shifted_rho1 = coh.named_cocycle("theta1") + coh.d0(m, engine, block)
    sol = coh.solve_obstruction(shifted_rho1, coh.BlockSpec(-2, 0, "P+"), engine)
    assert sol is not None
    dm = deform.DeformedMap([shifted_rho1, sol], engine)
    assert deform.verify_homomorphism(dm) is None


def test_thm45_passes_identically():
    assert deform.verify_thm45() is None
    dm = deform.thm45_map()
    assert deform.verify_order_relations(dm, 4) is None


def test_thm45_contracts_to_thm43():
    dm45 = deform.thm45_map()
    dm43 = deform.thm43_map()
    t45 = dm45.total()
    t43 = dm43.total()
    for name in t45:
        assert quantize.contract(t45[name]) == t43[name], name


def test_thm45_beta_zero_slice_is_deformed_basis():
    dm45 = deform.thm45_map()
    gb = quantize.gamma_h_basis()
    for name, sym in dm45.total().items():
        assert sym.beta_component(0) == gb[name]
