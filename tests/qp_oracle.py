"""Exact reference solution of the constrained regression by active-set enumeration.

Solves ``min ||Yr R - T||_F^2  subject to  Y R >= 0`` column by column, with
Y the (L, P) full-space regressors of full column rank and Yr their (2M, P)
reduced form.  For every set A of at most P constraint rows, the
equality-constrained problem ``min ||Yr r - t||^2  s.t.  Y_A r = 0`` is solved
by least squares on an orthonormal basis of the null space of Y_A; the answer
is the lowest objective among the candidates that satisfy Y r >= 0.

This is exact even when Yr has rank below P and the minimiser is not unique.
The optimal r form the polyhedron {r : Yr r = w, Y r >= 0} for the unique
optimal fit w; it has a vertex because Y has full column rank.  At a vertex
v, take A as a row basis of the constraints active at v: the other
constraints hold strictly, so v minimises the objective over the null space
of Y_A, and it is the only minimiser there because v is a vertex.  So v is
the least-squares solution on that subset, and it is feasible.  Costs one
SVD and one least-squares solve per subset (Nocedal & Wright, Numerical
Optimization, ch. 16), which is 219 subsets at L = 8, P = 5.
``cvxpy_minimum`` gives the same optimum from cvxpy, when it is installed,
as a cross-check.
"""

import itertools

import numpy as np

# A candidate counts as feasible when Y r >= -FEASIBLE_TOL * max(1, max|Y r|).
FEASIBLE_TOL = 1e-9


def qp_minimum(reduced, full, target):
    """Exact minimiser of the constrained regression.

    Returns the coefficients (P, K) and the objective ``||Yr R - T||_F^2``.
    """
    reduced = np.asarray(reduced, dtype=np.float64)
    full = np.asarray(full, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    n_constraints, n_coeff = full.shape
    n_out = target.shape[1]
    best_obj = np.full(n_out, np.inf)
    best = np.zeros((n_coeff, n_out))
    for size in range(n_coeff + 1):
        for active in itertools.combinations(range(n_constraints), size):
            if active:
                _, sing, vt = np.linalg.svd(full[list(active)])
                rank = int(np.sum(sing > 1e-12 * sing[0]))
                null_basis = vt[rank:].T
            else:
                null_basis = np.eye(n_coeff)
            if null_basis.shape[1] == 0:
                coeff = np.zeros((n_coeff, n_out))
            else:
                z = np.linalg.lstsq(reduced @ null_basis, target, rcond=None)[0]
                coeff = null_basis @ z
            recon = full @ coeff
            scale = np.maximum(1.0, np.abs(recon).max(axis=0))
            feasible = recon.min(axis=0) >= -FEASIBLE_TOL * scale
            obj = np.sum((reduced @ coeff - target) ** 2, axis=0)
            better = feasible & (obj < best_obj)
            best_obj[better] = obj[better]
            best[:, better] = coeff[:, better]
    return best, float(np.sum(best_obj))


def cvxpy_minimum(reduced, full, target):
    """The same optimal objective from cvxpy, or None when cvxpy is not installed."""
    try:
        import cvxpy
    except ImportError:
        return None
    coeff = cvxpy.Variable((full.shape[1], target.shape[1]))
    problem = cvxpy.Problem(
        cvxpy.Minimize(cvxpy.sum_squares(reduced @ coeff - target)), [full @ coeff >= 0]
    )
    problem.solve()
    return float(problem.value)
