#!/usr/bin/env python3
"""Which estimates arise from stabilisations?  Pointwise variety membership.

Candidate perturbations of a fixed sample form a parameter space; inside it
sit the candidates whose stabilised MLE equals a prescribed estimate, and
those whose limit MLE does.  Membership of a given candidate is decided by
linear equations (exact case) or by the normal equations of the sample and
of the perturbation along the kernel of the sample's parent columns (limit
case).

The sample here has first column e1 and zero second and third columns, a
case where the limit-variety slice is a quadric: the limit edge-weight
estimate is (0, b) exactly when v2 . v3 = b (v2 . v2).
"""

import numpy as np

from dagstab import (
    Dag,
    MleEstimate,
    VarietyQuery,
    in_Xf,
    in_Xf_alpha_lim,
    limit_mle,
)

rng = np.random.default_rng(3)
g = Dag(3, [(1, 3), (2, 3)])
f = np.zeros((5, 3))
f[0, 0] = 1.0

v2 = np.concatenate([[0.0], rng.standard_normal(4)])
v3 = np.concatenate([[0.0], rng.standard_normal(4)])
fp = np.column_stack([np.zeros(5), v2, v3])
b_true = float(v2 @ v3 / (v2 @ v2))

print("candidate perturbation columns: (0, v2, v3) with independent v2, v3")
print(f"membership in the perturbation space: {in_Xf(VarietyQuery(f=f, candidate=fp, g=g))}")
print(f"projection ratio b = v2.v3 / v2.v2 = {b_true:+.6f}\n")

limit = limit_mle(f, fp, g)
print(f"limit edge-weight estimate: {limit.lambda_vector(g, 3)}\n")

print("sweep of candidate estimates (0, b) against the limit variety:")
for shift in (-0.1, -0.01, 0.0, 0.01, 0.1):
    alpha = MleEstimate(lam={(3, 1): 0.0, (3, 2): b_true + shift})
    member = in_Xf_alpha_lim(
        VarietyQuery(f=f, candidate=fp, g=g, alpha=alpha, tol=1e-8)
    )
    marker = "<-- the limit estimate" if shift == 0.0 else ""
    print(f"  b {shift:+.2f}: member = {member!s:5} {marker}")

print()
print("Every ratio b is reachable by *some* candidate (scale v3 along v2),")
print("so each estimate (0, b) is a limit MLE of some stabilisation; but a")
print("fixed candidate selects exactly one.")
