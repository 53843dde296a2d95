"""Reference answers and property checks for the benchmark's results.

Dimensions are compared with the paper's values.  Representatives,
expressions and obstruction solutions are checked by the property that
defines them (a zero coboundary, independence modulo coboundaries, a zero
residual), never against stored images: another elimination order may
produce different but equally valid witnesses.  Pivot polynomials are not
checked for the same reason.

Every check returns a list of ``(name, ok)`` pairs; ``ok`` is False for a
failed check.
"""

from __future__ import annotations

# Nonzero weight-zero H^1 blocks (k, n) -> dim for the Poisson engine.
CLASSICAL_DIMS = {
    "P": {(0, 0): 2},
    "P+": {(0, 0): 1},
    "K4": {},
    "K4'": {(2, 0): 1},
}
# The star P+ h-tower: dim 1 at (k, 0) for these k, zero elsewhere.  Known
# for |k|, |n| <= 6 only.
STAR_TOWER = (0, 2, 4, 6)
KNOWN_WINDOW = 6


def _in_known_window(values):
    if any(abs(v) > KNOWN_WINDOW for v in values):
        raise ValueError("reference dimensions are known for |k|, |n| <= 6 only")


def classical_reference(target, k_values, n_values):
    _in_known_window(list(k_values) + list(n_values))
    return {
        (k, n): d for (k, n), d in CLASSICAL_DIMS[target].items()
        if k in k_values and n in n_values
    }


def star_reference(k_values, n_values):
    _in_known_window(list(k_values) + list(n_values))
    return {(k, 0): 1 for k in STAR_TOWER if k in k_values and 0 in n_values}


def nonzero_dims(reports):
    return {(r.block.k, r.block.n): r.dim_h1 for r in reports if r.dim_h1}


def check_dims(name, reports, expected):
    return [(name + ".dims", nonzero_dims(reports) == expected)]


def check_representatives(lib, report, engine):
    """Each representative is a cocycle, and together they are independent
    modulo the coboundaries of the block."""
    coh = lib.cohomology
    label = "reps(%d,%d,%s)" % (report.block.k, report.block.n, report.block.target)
    reps = report.representatives
    out = [(label + ".count", len(reps) == report.dim_h1)]
    for i, rep in enumerate(reps):
        out.append((label + ".cocycle", coh.pairmap_is_zero(coh.d1(rep, engine))))
        independent = coh.express_modulo_coboundaries(rep, reps[:i], report.block, engine) is None
        out.append((label + ".independent", independent))
    return out


def _det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = None
    for j, head in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = head * _det(minor)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


def check_expressions(lib, label, reps, generators, results, block, engine):
    """rep = sum a_i * generator_i + d0(m) holds exactly, and the
    coefficient matrix is invertible, so the generators span the block."""
    coh = lib.cohomology
    found = len(results) == len(reps) > 0 and all(r is not None for r in results)
    out = [(label + ".found", found)]
    if not found:
        return out
    for rep, (coeffs, preimage) in zip(reps, results):
        residual = rep - coh.d0(preimage, engine, block)
        for coeff, gen in zip(coeffs, generators):
            residual = residual - gen.scale(coeff)
        out.append((label + ".residual", not residual))
    square = len(reps) == len(generators)
    out.append((label + ".invertible", square and bool(_det([list(c) for c, _ in results]))))
    return out


def check_obstruction(lib, rho1, solution, engine):
    """d1(rho2) + 1/2 [[rho1, rho1]] = 0 on every basis pair."""
    coh = lib.cohomology
    if solution is None:
        return [("obstruction.found", False)]
    lhs = coh.d1(solution, engine)
    cup = coh.cup(rho1, rho1, engine)
    half = lib.scalars.S_HALF
    return [("obstruction.residual", all(not (lhs[p] + cup[p] * half) for p in engine.pairs))]


def check_zero(name, residuals):
    """Each residual of an identity check is exactly zero (None is zero)."""
    return [(name, residual is None or not residual) for residual in residuals]
