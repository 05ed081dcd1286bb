#!/usr/bin/env python3
"""The limit MLE along the stabilisation path f + eps * f'.

For every nonzero eps the estimate is unique; as eps -> 0 it converges, and
the limit is computable two independent ways: by extrapolating estimates
along an eps grid, and in closed form.  The closed form is the unique fit
of f where the parent columns have full rank, as at vertex 3 here, and
otherwise comes from the determinant/adjugate expansion of the
parent-column pencil.  When the original sample admits an MLE, the limit
is one.

The sample below has its third column inside the span of the first two, so
no MLE exists given f; the unique edge-weight MLE (1, 1) given f is still
recovered in the limit, even though no single stabilisation attains it.
"""

import numpy as np

from dagstab import (
    Dag,
    InvalidPerturbationError,
    is_perturbation,
    limit_mle,
    limit_mle_numeric,
    mle_at_epsilon,
)

g = Dag(3, [(1, 3), (2, 3)])
f = np.array(
    [[1.0, 1.0, 2.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
)
v = np.array([0.0, 0.0, 1.0, 0.0])
fp = np.column_stack([-v, -v, v])  # the only perturbation direction of f

print("edge-weight estimate at vertex 3 along the path (exact value is")
print("((1 - 2 eps^2) / (1 + eps^2), 1)):\n")
grid = (0.5, 0.2, 0.1, 0.01)
for eps, est in zip(grid, mle_at_epsilon(f, fp, g, grid)):  # one fit for the whole grid
    lam = est.lambda_vector(g, 3)
    print(f"  eps = {eps:<5}: ({lam[0]: .12f}, {lam[1]: .12f})")

analytic = limit_mle(f, fp, g)
numeric = limit_mle_numeric(f, fp, g)
print()
print(f"analytic limit: {analytic.lambda_vector(g, 3)}")
print(f"numeric  limit: {numeric.lambda_vector(g, 3)}")
gap = np.max(np.abs(analytic.lambda_vector(g, 3) - numeric.lambda_vector(g, 3)))
print(f"cross-method deviation: {gap:.2e}")
print(f"variance limit exists at vertex 3: {analytic.omega_exists[3]}")
print("(the residual of column 3 against its parents vanishes, so the")
print(" variance part has no limit MLE: the record is partial)\n")

diag = analytic.diagnostics[3]
print(f"pencil diagnostics at vertex 3: first nonzero det coefficient index")
print(f"l = {diag.first_nonzero}, c_l = {diag.det_coeff:.6f}, D_l = {diag.numerator}")
print()

print("=" * 70)
print("Orthogonality of the perturbation is essential.  On the collider with")
print("parents e1 and eps e2 at vertex 3, a target e2 in f has the weights")
print("(0, 1/eps), which diverge; is_perturbation rejects that f' by name:\n")
f = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
fp = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
print(f"  failed conditions: {is_perturbation(f, fp).failures}")
try:
    limit_mle_numeric(f, fp, g)
except InvalidPerturbationError as exc:
    print(f"  limit_mle_numeric raises: {exc}")

print()
print("With the target in f' instead, as eps (e2 + e3), the weights are (0, 1)")
print("for every eps, and both routes return that limit:\n")
f[:, 2] = 0.0
fp = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]])
print(f"  failed conditions: {is_perturbation(f, fp).failures}")
numeric = limit_mle_numeric(f, fp, g)
print(f"  numeric  limit: {numeric.lambda_vector(g, 3)}, diverged: {numeric.diverged}")
print(f"  analytic limit: {limit_mle(f, fp, g).lambda_vector(g, 3)}")
