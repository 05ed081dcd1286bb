"""Metamorphic properties: changes of the input that the paper's objects do
not see.

* Scaling the pair ``(f, f')`` by ``c`` changes no decision and no edge
  weight, and multiplies every variance by ``c^2``.
* Scaling ``f'`` alone by a power of two changes no span condition: it only
  reparametrises ``eps`` along ``f + eps f'``.  The conditions stay those of
  the referee, the normal equations of ``f`` on the MLE given ``f + f'``.
* Rotating the observations of both, ``(Q f, Q f')`` with ``Q`` orthogonal,
  changes nothing.
* Relabelling the vertices in another topological order permutes every
  output.
* Replacing ``f'`` by ``U f'``, with ``U`` orthogonal and fixing ``im f``
  pointwise, leaves the stabilised MLE and the limit unchanged: both depend
  on ``f'`` only through ``f'^T f'``.
* Scaling a sink column (no vertex's parent) by an exact power of two
  changes no classification, kernel dimension or existence flag.
* ``classify`` and ``full_mle`` never contradict each other, also with every
  column scaled by its own power of two.

Decisions (statuses, witnesses, kernel dimensions, existence flags,
condition dicts, pencil orders, membership and ``is_mle`` answers) must be
equal; values
must agree to ``RTOL``.  DAGs have at most 4 parents per vertex, where the
pencil expansion is accurate.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dagstab import (
    EXISTS_NON_UNIQUE,
    EXISTS_UNIQUE,
    NONEXISTENT,
    Dag,
    MleEstimate,
    VarietyQuery,
    check_full_condition,
    check_lambda_condition,
    classify,
    full_mle,
    image_basis,
    in_Xf,
    in_Xf_alpha,
    in_Xf_alpha_lim,
    is_lambda_mle,
    is_mle,
    is_perturbation,
    limit_mle,
    limit_mle_numeric,
    orth_complement,
    rank,
    stabilize,
)
from dagstab.linalg import _PENCIL_ERRORS, DEFAULT_TOL
from dagstab.mle import _normal_equation_failures
from dagstab.varieties import AlphaNotMleError
from _helpers import random_perturbation, random_rank_deficient

RTOL = 1e-6
MAX_PARENTS = 4


def _orthogonal(rng, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def _dag(rng, m: int) -> Dag:
    """A random DAG on shuffled labels with at most MAX_PARENTS parents."""
    order = rng.permutation(np.arange(1, m + 1)).tolist()
    edges = []
    for k in range(1, m):
        count = int(rng.integers(0, min(k, MAX_PARENTS) + 1))
        for a in rng.choice(k, size=count, replace=False):
            edges.append((order[int(a)], order[k]))
    return Dag(m, edges)


@st.composite
def instances(draw):
    """A seeded ``(f, f', g, rng)``: an ``n x m`` sample with ``n >= m`` of
    rank at most ``r``, in which some vertices have a parent column that is
    a multiple of another, a perturbation drawn from a random lift, and a
    DAG."""
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(2, 6))
    n = m + draw(st.integers(0, 3))
    r = draw(st.one_of(st.just(m), st.integers(0, m)))
    rng = np.random.default_rng(seed)
    g = _dag(rng, m)
    f = random_rank_deficient(rng, n, m, r)
    for _ in range(draw(st.integers(0, 2))):
        parents = g.parents(int(rng.integers(1, m + 1)))
        if len(parents) > 1:
            j, k = rng.choice(parents, size=2, replace=False)
            f[:, k - 1] = rng.uniform(0.5, 2.0) * f[:, j - 1]
    return f, random_perturbation(f, seed), g, rng


def _as_estimate(lim) -> MleEstimate:
    return MleEstimate(lam=lim.lam, omega=lim.omega, omega_exists=lim.omega_exists)


def _moved(d: dict) -> dict:
    """``d`` with its first entry 0.1% off."""
    first = next(iter(d), None)
    return {k: v * 1.001 if k == first else v for k, v in d.items()}


def _witnesses(f, g, status: str, est) -> set:
    """Every vertex that certifies the status: a vanishing residual for
    nonexistence, a rank-deficient parent-and-self submatrix for
    non-uniqueness."""
    if status == NONEXISTENT:
        return {i for i, ok in est.omega_exists.items() if not ok}
    if status == EXISTS_NON_UNIQUE:
        cols = {i: sorted(g.parents(i) + [i]) for i in range(1, g.m + 1)}
        return {i for i, c in cols.items() if rank(f[:, np.subtract(c, 1)]) < len(c)}
    return set()


def _memberships(f, fp, g, alpha) -> tuple:
    q = VarietyQuery(f=f, candidate=fp, g=g, alpha=alpha)
    try:
        fixed = in_Xf_alpha(q)
    except AlphaNotMleError:
        fixed = None
    return in_Xf(q), fixed, in_Xf_alpha_lim(q)


def _outputs(f, fp, g):
    """Every answer on one instance: ``(decisions, values)``.  Decisions
    must match exactly; each value is a dict with its kind, ``"lam"``
    (unchanged by scaling) or ``"omega"`` (scales by ``c^2``)."""
    status = classify(f, g)
    est = full_mle(f, g)
    witnesses = _witnesses(f, g, status.status, est)
    assert status.witness == (min(witnesses) if witnesses else None)
    lim = limit_mle(f, fp, g)
    num = limit_mle_numeric(f, fp, g)
    assert num.epsilon_independent == {}  # the numeric route leaves it empty
    stab = full_mle(stabilize(f, fp), g)
    off = MleEstimate(est.lam, omega=_moved(est.omega), omega_exists=est.omega_exists)
    decisions = {
        "status": status.status,
        "witnesses": witnesses,
        "kernel": est.lambda_kernel_dims,
        "exists": est.omega_exists,
        "lambda-condition": check_lambda_condition(f, fp, g),
        "full-condition": check_full_condition(f, fp, g),
        "limit-exists": lim.omega_exists,
        "limit-order": {i: d.first_nonzero for i, d in lim.diagnostics.items()},
        "limit-independent": lim.epsilon_independent,
        "numeric-exists": num.omega_exists,
        "numeric-diverged": set(num.diverged_vertices),
        "stabilised-kernel": stab.lambda_kernel_dims,
        "stabilised-exists": stab.omega_exists,
        "is-mle": (is_mle(f, g, est), is_mle(f, g, off), is_lambda_mle(f, g, _moved(est.lam))),
        "members-min-norm": _memberships(f, fp, g, est),
        "members-limit": _memberships(f, fp, g, _as_estimate(lim)),
    }
    values = {
        "lam": (est.lam, "lam"),
        "omega": (est.omega, "omega"),
        "limit-lam": (lim.lam, "lam"),
        "limit-omega": (lim.omega, "omega"),
        "numeric-lam": (num.lam, "lam"),
        "numeric-omega": (num.omega, "omega"),
        "stabilised-lam": (stab.lam, "lam"),
        "stabilised-omega": (stab.omega, "omega"),
    }
    return decisions, values


def _assert_same(got, ref, omega_factor: float = 1.0):
    assert got[0] == ref[0]
    for name, (expected, kind) in ref[1].items():
        actual = got[1][name][0]
        assert actual.keys() == expected.keys(), name
        factor = omega_factor if kind == "omega" else 1.0
        floor = 0.0 if kind == "omega" else 1.0
        scale = factor * max([floor] + [abs(v) for v in expected.values()])
        for key, value in expected.items():
            assert abs(actual[key] - factor * value) <= RTOL * scale, (name, key)


def _relabelled(out, sigma: dict):
    """``out`` with every vertex ``v`` renamed ``sigma[v]``."""

    def rename(key):
        return tuple(sigma[v] for v in key) if isinstance(key, tuple) else sigma[key]

    def go(obj):
        if isinstance(obj, dict):
            return {rename(k): v for k, v in obj.items()}
        if isinstance(obj, set):
            return {sigma[v] for v in obj}
        return obj

    decisions, values = out
    return (
        {name: go(d) for name, d in decisions.items()},
        {name: (go(d), kind) for name, (d, kind) in values.items()},
    )


@settings(max_examples=50)
@given(instances(), st.sampled_from(range(-12, 12)), st.floats(1.0, 10.0, exclude_max=True))
def test_scaling_the_pair(inst, exponent, mantissa):
    f, fp, g, rng = inst
    c = mantissa * 10.0**exponent
    _assert_same(_outputs(c * f, c * fp, g), _outputs(f, fp, g), c * c)
    # rotated off the complement of im f, a nonzero f' is no perturbation
    moved = _orthogonal(rng, f.shape[0]) @ fp
    assert is_perturbation(c * f, c * moved).failures == is_perturbation(f, moved).failures


def _referee(f, fp, g) -> dict:
    """Per child vertex: do the edge weights of the MLE given ``f + f'``
    solve the normal equations of ``f`` there?"""
    bad = _normal_equation_failures(f, g, full_mle(f + fp, g).lam, DEFAULT_TOL)
    return {i: i not in bad for i in g.child_vertices()}


@settings(max_examples=50)
@given(instances(), st.sampled_from([-40, -20, 20, 40]))
def test_scaling_the_perturbation_alone(inst, exponent):
    f, fp, g, _ = inst
    scaled = np.ldexp(fp, exponent)
    want = check_lambda_condition(f, fp, g)
    assert want == _referee(f, fp, g)
    assert check_lambda_condition(f, scaled, g) == want
    assert check_full_condition(f, scaled, g) == check_full_condition(f, fp, g)
    try:
        lim = limit_mle(f, scaled, g)
    except ValueError as exc:  # the pencil expansion's own limits (ROADMAP item 1)
        assert str(exc) in _PENCIL_ERRORS or "fails the normal equations" in str(exc)
        return
    assert lim.epsilon_independent == want


@settings(max_examples=50)
@given(instances())
def test_rotating_the_observations(inst):
    f, fp, g, rng = inst
    Q = _orthogonal(rng, f.shape[0])
    _assert_same(_outputs(Q @ f, Q @ fp, g), _outputs(f, fp, g))


def _another_topological_order(rng, g: Dag) -> list[int]:
    waiting = {i: len(g.parents(i)) for i in range(1, g.m + 1)}
    ready = [i for i, k in waiting.items() if k == 0]
    order = []
    while ready:
        v = ready.pop(int(rng.integers(len(ready))))
        order.append(v)
        for c in g.children(v):
            waiting[c] -= 1
            if waiting[c] == 0:
                ready.append(c)
    return order


@settings(max_examples=50)
@given(instances())
def test_relabelling_permutes_the_outputs(inst):
    f, fp, g, rng = inst
    order = _another_topological_order(rng, g)
    sigma = {v: k for k, v in enumerate(order, start=1)}
    relabelled = Dag(g.m, [(sigma[j], sigma[i]) for j, i in g.edges])
    cols = np.subtract(order, 1)
    got = _outputs(f[:, cols], fp[:, cols], relabelled)
    _assert_same(got, _relabelled(_outputs(f, fp, g), sigma))


@settings(max_examples=50)
@given(instances())
def test_rotating_the_perturbation_off_the_image(inst):
    f, fp, g, rng = inst
    n = f.shape[0]
    B = image_basis(f)
    C = orth_complement(B, n)
    U = B @ B.T + C @ _orthogonal(rng, C.shape[1]) @ C.T
    assert np.allclose(U @ f, f)
    _assert_same(_outputs(f, U @ fp, g), _outputs(f, fp, g))


def _decisions(f, g) -> tuple:
    status, est = classify(f, g), full_mle(f, g)
    return status.status, status.witness, est.lambda_kernel_dims, est.omega_exists


@settings(max_examples=50)
@given(instances())
def test_classify_agrees_with_full_mle(inst):
    f, _, g, rng = inst
    for A in (f, np.ldexp(f, rng.integers(-40, 41, g.m))):
        status, witness, kdims, exists = _decisions(A, g)
        absent = [i for i, ok in exists.items() if not ok]
        deficient = [i for i, d in kdims.items() if d > 0]
        if absent:
            assert (status, witness) == (NONEXISTENT, absent[0])
        elif deficient:
            assert (status, witness) == (EXISTS_NON_UNIQUE, deficient[0])
        else:
            assert (status, witness) == (EXISTS_UNIQUE, None)


@settings(max_examples=50)
@given(instances())
def test_scaling_the_sink_columns(inst):
    f, _, g, rng = inst
    sinks = [i - 1 for i in range(1, g.m + 1) if not g.children(i)]
    A = f.copy()
    A[:, sinks] = np.ldexp(f[:, sinks], rng.integers(-60, 61, len(sinks)))
    assert _decisions(A, g) == _decisions(f, g)
