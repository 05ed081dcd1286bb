"""The grouped limit routes against the per-vertex loops they replaced.

The reference functions below are the per-vertex implementations: one
Neville table per vector and per variance, and one ``project`` call per
vertex and per span.  The grouped code must give the numeric route and the
condition dicts exactly, and the analytic route to 1e-12 relative (its
projections now run through batched SVDs and stacked products, which
round differently in the last bits).  Their zero tests follow the rule of
:mod:`dagstab.linalg`: a vector built from the perturbation against its own
norm plus the largest perturbation column norm, a variance against its
largest value along the grid and a normal-equations residual against the
norms of its factors.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from dagstab import (
    Dag,
    MleEstimate,
    VarietyQuery,
    check_full_condition,
    check_lambda_condition,
    full_mle,
    in_Xf_alpha_lim,
    limit_mle,
    limit_mle_numeric,
    mle_at_epsilon,
    omega_mle,
    pencil_expand,
)
from dagstab.limits import DEFAULT_EPS_GRID, _diverging, _neville_zero
from dagstab.linalg import DEFAULT_TOL
from _helpers import project, random_dag, random_perturbation, random_rank_deficient

ANALYTIC_RTOL = 1e-12


# ---------------------------------------------------------------------------
# the per-vertex reference


def _reference_neville(eps_grid, values):
    hs = [e * e for e in eps_grid]
    vals = [np.asarray(v, dtype=float) for v in values]
    if len(vals) == 1:
        return vals[0], 0.0
    best, best_est = vals[0], np.inf
    prev_row = vals
    for j in range(1, len(vals)):
        row = []
        for i in range(len(vals) - j):
            num = hs[i] * prev_row[i + 1] - hs[i + j] * prev_row[i]
            val = num / (hs[i] - hs[i + j])
            est = max(
                float(np.max(np.abs(val - prev_row[i]), initial=0.0)),
                float(np.max(np.abs(val - prev_row[i + 1]), initial=0.0)),
            )
            row.append(val)
            if est < best_est:
                best, best_est = val, est
        prev_row = row
    return best, float(best_est)


def _system(F, P, g, i):
    idx = [j - 1 for j in g.parents(i)]
    return F[:, idx], P[:, idx], F[:, i - 1], P[:, i - 1]


def _floor(P):
    """The largest perturbation column norm."""
    return max(float(np.linalg.norm(P[:, k])) for k in range(P.shape[1]))


def _reference_lambda_condition(F, P, g, tol=DEFAULT_TOL):
    out = {}
    for i in g.child_vertices():
        A, E, b, v = _system(F, P, g, i)
        target = project(b, A, tol) + project(v, E, tol)
        resid = target - project(target, A + E, tol)
        out[i] = float(np.linalg.norm(resid)) <= tol * (
            float(np.linalg.norm(target)) + _floor(P)
        )
    return out


def _reference_full_condition(F, P, g, tol=DEFAULT_TOL):
    out = {}
    for i in g.child_vertices():
        A, E, b, v = _system(F, P, g, i)
        resid_v = v - project(v, E, tol)
        first = float(np.linalg.norm(resid_v)) <= tol * (float(np.linalg.norm(v)) + _floor(P))
        target = project(b, A, tol) + v
        resid_t = target - project(target, A + E, tol)
        second = float(np.linalg.norm(resid_t)) <= tol * (
            float(np.linalg.norm(target)) + _floor(P)
        )
        out[i] = first and second
    return out


def _reference_analytic(F, P, g, tol=DEFAULT_TOL):
    """Edge weights and ``(l, c_l, D_l)`` per child vertex.  Where the parent
    columns of ``F`` have full rank (the fit's cut) the limit is the unique
    fit, with ``l = 0`` and ``c_0 = det(A^T A)`` from the singular values of
    the triangular factor ``T`` of the QR of ``[A | b]``, as the fit takes
    them; elsewhere it comes from the pencil expansion."""
    lam, diagnostics = {}, {}
    for i in g.child_vertices():
        A, E, b, v = _system(F, P, g, i)
        p = A.shape[1]
        T, z = np.hsplit(np.linalg.qr(np.column_stack([A, b]), mode="r"), [p])
        s = np.linalg.svd(T, compute_uv=False)
        if np.all(s > tol * s[0]):
            x = np.linalg.solve(T[:p], z[:p, 0])
            c_l = float(np.prod(s ** 2))
            diagnostics[i] = (0, c_l, c_l * x)
            lam.update(zip([(i, j) for j in g.parents(i)], x.tolist()))
            continue
        fbar = project(b, A, tol)
        vbar = project(v, E, tol)
        pencil = pencil_expand(A, E, tol)
        l = pencil.first_nonzero
        numerator = pencil.adj_coeff(l) @ (A.T @ fbar) + pencil.adj_coeff(l - 1) @ (E.T @ vbar)
        c_l = float(pencil.det_coeffs[l])
        diagnostics[i] = (l, c_l, numerator)
        for j, val in zip(g.parents(i), numerator / c_l):
            lam[(i, j)] = float(val)
    return lam, diagnostics


def _reference_limit_mle_error(F, P, g, tol=DEFAULT_TOL):
    """The message ``limit_mle`` raised at the first failing vertex, or None."""
    lam, _ = _reference_analytic(F, P, g, tol)
    check_tol = max(tol, 1e-8)
    for i in g.child_vertices():
        A, _, b, _ = _system(F, P, g, i)
        lam_i = np.array([lam[(i, j)] for j in g.parents(i)])
        resid = A.T @ (b - A @ lam_i)
        scale = np.linalg.norm(A.T @ b) + np.linalg.norm(A.T @ A) * np.linalg.norm(lam_i)
        if np.linalg.norm(resid) > check_tol * scale:
            return (
                f"limit estimate fails the normal equations at vertex {i}; "
                "input is numerically inconsistent"
            )
    return None


def _reference_numeric(F, P, g, grid=DEFAULT_EPS_GRID, tol=DEFAULT_TOL):
    """``(lam, err, diverged, omega, omega_exists)`` of the numeric route."""
    estimates = [mle_at_epsilon(F, P, g, eps, tol) for eps in grid]
    lam, err, diverged = {}, {}, []
    for i in g.child_vertices():
        vectors = [est.lambda_vector(g, i) for est in estimates]
        norms = [float(np.max(np.abs(x), initial=0.0)) for x in vectors]
        if _diverging(norms, tol):
            diverged.append(i)
            continue
        value, est_err = _reference_neville(grid, vectors)
        err[i] = est_err
        for j, val in zip(g.parents(i), value):
            lam[(i, j)] = float(val)
    omega, omega_exists = {}, {}
    for i in range(1, g.m + 1):
        vals = [est.omega[i] for est in estimates]
        value, est_err = _reference_neville(grid, [np.array(w) for w in vals])
        w = float(value)
        if w > max(tol * max(vals), 10.0 * est_err):
            omega_exists[i] = True
            omega[i] = w
        else:
            omega_exists[i] = False
    return lam, err, tuple(diverged), omega, omega_exists


# ---------------------------------------------------------------------------
# inputs


def _layered_dag(rng, m: int, indegree: int) -> Dag:
    """Vertex ``i`` draws ``min(i - 1, indegree)`` parents among the earlier
    vertices, so parent counts run from 0 up to ``indegree``."""
    edges = []
    for i in range(2, m + 1):
        for j in rng.choice(i - 1, size=min(i - 1, indegree), replace=False):
            edges.append((int(j) + 1, i))
    return Dag(m, edges)


def _random_dag(rng, m: int, edge_prob: float) -> Dag:
    edges = [(j, i) for i in range(2, m + 1) for j in range(1, i) if rng.random() < edge_prob]
    return Dag(m, edges)


def _case(seed, m, rank, indegree=None, edge_prob=0.0, layout="square"):
    """A seeded sample, a lifted perturbation of it and a DAG.

    Sample layouts: ``square``, an ``m x m`` sample of the given rank;
    ``split``, eight leading generic columns (which no perturbation column
    touches) and then a block of the given rank; ``zeros``, generic columns
    with every second column zero, so spans are rank-deficient where the
    conditions hold; ``split-tiny``, the ``split`` pair scaled by 1e-12,
    which must give the answers of the unscaled pair.  All but ``square``
    have four spare rows.
    """
    rng = np.random.default_rng(seed)
    g = _layered_dag(rng, m, indegree) if indegree else _random_dag(rng, m, edge_prob)
    n = m if layout == "square" else m + 4
    if layout == "square":
        f = random_rank_deficient(rng, n, m, rank)
    elif layout == "zeros":
        f = rng.standard_normal((n, m))
        f[:, 1::2] = 0.0
    else:
        f = np.hstack([rng.standard_normal((n, 8)), random_rank_deficient(rng, n, m - 8, rank)])
    fp = random_perturbation(f, seed=seed)
    if layout == "split-tiny":
        return 1e-12 * f, 1e-12 * fp, g
    return f, fp, g


# (label, seed, m, rank, indegree, edge probability, sample layout)
CASES = [
    ("p3-half", 1, 12, 6, 3, 0.0, "square"),
    ("p3-one", 2, 12, 1, 3, 0.0, "square"),
    ("p8-half", 3, 20, 10, 8, 0.0, "square"),
    ("p8-one", 4, 20, 1, 8, 0.0, "square"),
    ("p12-half", 5, 28, 14, 12, 0.0, "square"),
    ("p12-one", 6, 28, 1, 12, 0.0, "square"),
    ("mixed-half", 7, 16, 8, None, 0.35, "square"),
    ("mixed-one", 8, 16, 1, None, 0.35, "square"),
    ("mixed-full", 10, 16, 16, None, 0.35, "square"),
    ("mixed-split", 9, 16, 3, None, 0.35, "split"),
    ("mixed-zeros", 11, 16, 8, None, 0.35, "zeros"),
    ("mixed-tiny", 12, 16, 3, None, 0.35, "split-tiny"),
]


@pytest.fixture(scope="module", params=CASES, ids=[c[0] for c in CASES])
def case(request):
    return _case(*request.param[1:])


def _nearly_dependent_case():
    """The draw of ``test_limits.py``'s nearly dependent parents: vertex 3's
    parents have singular values 5.9 and 2.6e-5, and on the default grid its
    weights grow from 3.4 to 8601 while they converge, so the numeric route
    flags it as diverged."""
    rng = np.random.default_rng(51)
    m = int(rng.integers(3, 8))
    g = random_dag(rng, m, 0.5)
    f = random_rank_deficient(rng, m + 1, m, m - 2)
    return f, random_perturbation(f, seed=51), g


@pytest.fixture(
    scope="module",
    params=[c[1:] for c in CASES] + [None],
    ids=[c[0] for c in CASES] + ["nearly-dependent"],
)
def numeric_case(request):
    """The cases of ``case``, and one that takes the divergence branch."""
    return _case(*request.param) if request.param else _nearly_dependent_case()


def _assert_analytic_close(got: dict, ref: dict):
    assert got.keys() == ref.keys()
    for key, value in ref.items():
        assert abs(got[key] - value) <= ANALYTIC_RTOL * max(1.0, abs(value)), key


class TestGroupedMatchesPerVertexLoops:
    def test_cases_mix_parent_counts_and_condition_outcomes(self):
        outcomes = set()
        for c in CASES:
            f, fp, g = _case(*c[1:])
            assert len({len(g.parents(i)) for i in g.child_vertices()}) > 2
            outcomes |= {
                tuple(_reference_lambda_condition(f, fp, g).values()),
                tuple(_reference_full_condition(f, fp, g).values()),
            }
        # some case holds each condition at some vertices and not at others
        assert any(True in o and False in o for o in outcomes)
        assert any(all(o) for o in outcomes) and any(not any(o) for o in outcomes)

    def test_numeric_route_is_identical(self, numeric_case):
        f, fp, g = numeric_case
        try:
            lam, err, diverged, omega, omega_exists = _reference_numeric(f, fp, g)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                limit_mle_numeric(f, fp, g)
            assert str(info.value) == str(exc)
            return
        res = limit_mle_numeric(f, fp, g)
        assert res.lam == lam
        assert res.extrapolation_error == err
        assert res.diverged_vertices == diverged
        assert res.omega == omega
        assert res.omega_exists == omega_exists
        assert res.epsilon_independent == {}
        assert res.diverged == bool(diverged)

    def test_numeric_route_on_a_relabelled_dag(self):
        # children numbered below their parents, and the edges passed unsorted:
        # the bulk read of the grid's estimates must follow the edge order
        g = Dag(7, [(7, 1), (5, 1), (6, 1), (6, 2), (4, 2), (7, 3), (3, 2), (5, 4), (7, 4)])
        for rank in (7, 4, 2):
            f = random_rank_deficient(np.random.default_rng(rank), 9, 7, rank)
            fp = random_perturbation(f, seed=rank)
            lam, err, diverged, omega, omega_exists = _reference_numeric(f, fp, g)
            res = limit_mle_numeric(f, fp, g)
            assert list(res.lam) == [k for k in g._edge_pairs if k[0] not in diverged]
            assert (res.lam, res.extrapolation_error, res.diverged_vertices) == (lam, err, diverged)
            assert (res.omega, res.omega_exists) == (omega, omega_exists)

    def test_nearly_dependent_case_diverges(self):
        assert limit_mle_numeric(*_nearly_dependent_case()).diverged_vertices == (3,)

    def test_condition_dicts_are_identical(self, case):
        f, fp, g = case
        assert check_lambda_condition(f, fp, g) == _reference_lambda_condition(f, fp, g)
        assert check_full_condition(f, fp, g) == _reference_full_condition(f, fp, g)

    def test_analytic_route_within_tolerance(self, case):
        # a returned limit matches the reference in weights, pencil
        # diagnostics and conditions; weights off the limit variety (a deep
        # pencil whose expansion lost its digits) are never returned
        f, fp, g = case
        if _reference_limit_mle_error(f, fp, g) is not None:
            with pytest.raises(ValueError):
                limit_mle(f, fp, g)
            return
        lam, diagnostics = _reference_analytic(f, fp, g)
        res = limit_mle(f, fp, g)
        _assert_analytic_close(res.lam, lam)
        assert res.epsilon_independent == _reference_lambda_condition(f, fp, g)
        assert res.diagnostics.keys() == diagnostics.keys()
        for i, (l, c_l, numerator) in diagnostics.items():
            d = res.diagnostics[i]
            assert (d.first_nonzero, d.det_coeff) == (l, c_l)
            scale = max(1.0, float(np.max(np.abs(numerator))))
            assert np.max(np.abs(d.numerator - numerator)) <= ANALYTIC_RTOL * scale

    def test_limit_mle_matches_or_raises_alike(self, case):
        f, fp, g = case
        message = _reference_limit_mle_error(f, fp, g)
        if message is not None:
            with pytest.raises(ValueError) as info:
                limit_mle(f, fp, g)
            assert str(info.value) == message
            return
        res = limit_mle(f, fp, g)
        _assert_analytic_close(res.lam, _reference_analytic(f, fp, g)[0])
        assert res.omega == omega_mle(f, g).omega

    def test_full_rank_vertex_the_pencil_failed_returns(self, monkeypatch):
        # expanded through the pencil, vertex 23 of the p12-half draw (12
        # parents, full rank) failed the normal equations; its limit is the fit
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        oracle = importlib.import_module("oracle")
        f, fp, g = _case(*next(c[1:] for c in CASES if c[0] == "p12-half"))
        assert full_mle(f, g).lambda_kernel_dims[23] == 0
        res = limit_mle(f, fp, g)
        assert res.diagnostics[23].first_nonzero == 0
        assert in_Xf_alpha_lim(VarietyQuery(f=f, candidate=fp, g=g, alpha=MleEstimate(lam=res.lam)))
        ref = oracle.limit_lambda(f, fp, oracle.parents(g.edges, g.m))
        for i, x in ref.items():
            assert oracle.rel_err(res.lambda_vector(g, i), x) <= 1e-6, i

    def test_deep_pencil_raises_the_same_message(self):
        # the complete 10-vertex DAG at sample rank 1: the pencil expansion
        # of the 9-parent vertex loses every digit, so the analytic limit
        # fails its normal-equations check
        rng = np.random.default_rng(20231106)
        g = Dag(10, [(j, i) for i in range(2, 11) for j in range(1, i)])
        f = random_rank_deficient(rng, 10, 10, 1)
        fp = random_perturbation(f, seed=3)
        message = _reference_limit_mle_error(f, fp, g)
        assert message is not None
        with pytest.raises(ValueError) as info:
            limit_mle(f, fp, g)
        assert str(info.value) == message


class TestTinyScale:
    def test_tiny_pair_gives_the_unscaled_answers(self):
        # the mixed-tiny draw before and after scaling by 1e-12
        args = next(c[1:] for c in CASES if c[0] == "mixed-tiny")
        f, fp, g = _case(*args[:-1], "split")
        tiny_f, tiny_fp, _ = _case(*args)
        assert np.array_equal(tiny_f, 1e-12 * f) and np.array_equal(tiny_fp, 1e-12 * fp)
        assert check_lambda_condition(tiny_f, tiny_fp, g) == check_lambda_condition(f, fp, g)
        assert check_full_condition(tiny_f, tiny_fp, g) == check_full_condition(f, fp, g)
        ref, got = limit_mle_numeric(f, fp, g), limit_mle_numeric(tiny_f, tiny_fp, g)
        assert got.omega_exists == ref.omega_exists and any(ref.omega_exists.values())
        assert got.diverged_vertices == ref.diverged_vertices
        assert got.epsilon_independent == ref.epsilon_independent == {}
        tiny_lim, lim = limit_mle(tiny_f, tiny_fp, g), limit_mle(f, fp, g)
        assert tiny_lim.epsilon_independent == lim.epsilon_independent
        assert got.lam.keys() == ref.lam.keys()
        for key, value in ref.lam.items():
            assert abs(got.lam[key] - value) <= 1e-6 * max(1.0, abs(value)), key
        for i, value in ref.omega.items():
            assert abs(got.omega[i] - 1e-24 * value) <= 1e-6 * 1e-24 * value, i


class TestStackedNeville:
    @pytest.mark.parametrize("length", [1, 2, 3, 6])
    def test_segments_match_one_table_each(self, length):
        rng = np.random.default_rng(length)
        grid = DEFAULT_EPS_GRID[:length]
        widths = [3, 1, 0, 5, 2, 1]
        columns = [rng.standard_normal((length, w)) * 10.0 ** rng.integers(-3, 4) for w in widths]
        starts = np.cumsum(widths) - widths
        values, errors = _neville_zero(grid, np.hstack(columns), starts)
        for k, (w, col) in enumerate(zip(widths, columns)):
            ref_value, ref_err = _reference_neville(grid, list(col))
            assert values[starts[k]:starts[k] + w].tolist() == ref_value.tolist()
            assert errors[k] == ref_err


    @staticmethod
    def _assert_matches_the_reference(grid, columns):
        """The stacked pick against one reference table per segment, bit for
        bit (NaN included); overflow in huge columns is expected."""
        widths = [col.shape[1] for col in columns]
        starts = np.cumsum(widths) - widths
        with np.errstate(over="ignore", invalid="ignore"):
            values, errors = _neville_zero(grid, np.hstack(columns), starts)
            refs = [_reference_neville(grid, list(col)) for col in columns]
        for k, (w, (ref_value, ref_err)) in enumerate(zip(widths, refs)):
            assert values[starts[k]:starts[k] + w].tobytes() == ref_value.tobytes()
            assert np.float64(errors[k]).tobytes() == np.float64(ref_err).tobytes()
        return refs

    def test_tied_estimates_pick_the_first_entry_in_table_order(self):
        # eps = 2^-k makes every table entry exact in small integers, so
        # estimates tie often, between entries of different values
        grid = (0.5, 0.25, 0.125, 0.0625)
        rng = np.random.default_rng(3)
        columns = [rng.integers(-2, 3, (len(grid), w)).astype(float) for w in [1, 2, 1, 3] * 10]
        self._assert_matches_the_reference(grid, columns)
        hs = [e * e for e in grid]
        ties = 0
        for col in columns:  # entries whose estimate ties the best one with another value
            prev, entries = list(col), []
            for j in range(1, len(grid)):
                row = [(hs[i] * prev[i + 1] - hs[i + j] * prev[i]) / (hs[i] - hs[i + j])
                       for i in range(len(prev) - 1)]
                entries += [(v, np.abs(np.stack([v - prev[i], v - prev[i + 1]])).max())
                            for i, v in enumerate(row)]
                prev = row
            best = min(e for _, e in entries)
            ties += len({v.tobytes() for v, e in entries if e == best}) > 1
        assert ties > 0

    def test_a_segment_with_no_finite_estimate_returns_the_first_point(self):
        # near the float limit every entry overflows: infinite or NaN estimates
        huge = np.array([[1.7e308, -1.7e308], [-1.7e308, 1.7e308], [1.7e308, 1.7e308]])
        grid = DEFAULT_EPS_GRID[:3]
        rng = np.random.default_rng(5)
        columns = [huge, rng.standard_normal((3, 2)), huge[:, :1], rng.standard_normal((3, 1))]
        refs = self._assert_matches_the_reference(grid, columns)
        assert [ref_err for _, ref_err in refs][::2] == [np.inf, np.inf]
        assert np.array_equal(refs[0][0], huge[0])

    def test_nan_estimates_are_never_picked(self):
        # two infinite values give NaN (inf - inf) as the first entry and its
        # estimate; finite estimates come later in the table
        grid = DEFAULT_EPS_GRID[:4]
        columns = [np.array([[np.inf], [np.inf], [1.0], [2.0]]),
                   np.array([[np.inf, 1.0], [np.inf, 2.0], [1.0, 3.0], [2.0, 5.0]])]
        refs = self._assert_matches_the_reference(grid, columns)
        assert all(np.isfinite(ref_err) and np.isfinite(ref[0]).all() for ref, ref_err in refs)

    @pytest.mark.parametrize("length", [1, 3], ids=["one-point", "three-points"])
    @pytest.mark.parametrize("widths", [[0, 0], [2, 0, 0], [0, 3, 0, 1]], ids=str)
    def test_empty_segments(self, length, widths):
        rng = np.random.default_rng(len(widths))
        columns = [rng.standard_normal((length, w)) for w in widths]
        self._assert_matches_the_reference(DEFAULT_EPS_GRID[:length], columns)


class TestEdgeCases:
    def test_dag_without_edges(self):
        rng = np.random.default_rng(11)
        f = random_rank_deficient(rng, 5, 4, 2)
        fp = random_perturbation(f, seed=11)
        g = Dag(4, [])
        res = limit_mle_numeric(f, fp, g)
        lam, err, diverged, omega, omega_exists = _reference_numeric(f, fp, g)
        assert (res.lam, res.extrapolation_error, res.diverged_vertices) == ({}, {}, ())
        assert (lam, err, diverged) == ({}, {}, ())
        assert res.omega == omega
        assert res.omega_exists == omega_exists
        assert res.epsilon_independent == {}
        assert check_lambda_condition(f, fp, g) == check_full_condition(f, fp, g) == {}
        assert limit_mle(f, fp, g).lam == {}

    @pytest.mark.parametrize("grid", [(1e-3,), (1e-2, 1e-3)], ids=["one", "two"])
    def test_short_grids(self, grid):
        f, fp, g = _case(21, 10, 3, 3)
        res = limit_mle_numeric(f, fp, g, eps_grid=grid)
        lam, err, diverged, omega, omega_exists = _reference_numeric(f, fp, g, grid)
        assert res.lam == lam
        assert res.extrapolation_error == err
        assert res.diverged_vertices == diverged
        assert res.omega == omega
        assert res.omega_exists == omega_exists
        if len(grid) == 1:
            assert set(err.values()) == {0.0}


class TestDiverging:
    @pytest.mark.parametrize(
        "norms,expected",
        [
            ((1.0, 10.0, 100.0, 1e3, 1e4, 1e5), True),  # geometric growth to the end
            ((1.0, 1e3, 1e6), True),  # three points are enough
            ((1.0, 10.0, 100.0, 1e3, 1.1e3, 1.11e3), False),  # the tail flattens
            ((1.0, 10.0, 100.0, 1e3, 1e4, 5e3), False),  # the last point falls
            ((3.4, 482.0, 7376.0, 8601.0), True),  # nearly dependent: flagged, yet it converges
            ((1e-12, 1e-10, 1e-8, 1e-6), False),  # roundoff: grows in ratio, not in size
            ((1.0, 100.0, 500.0, 999.0), False),  # above the floor, under 10x in three points
            ((1.0, 100.0, 500.0, 1001.0), True),
            ((1.0, 10.0, 100.0), False),  # 10x, not above the floor 50 (1 + min(norms))
            ((1.0, 10.0, 101.0), True),
            ((10.0, 100.0), False),  # fewer than three points
            ((2e10,) * 6, True),  # flat, above the cap 1 / tol
            ((1.0, 2e10), True),  # the cap on a short grid
            ((1e10,), False),  # at the cap, not above it
        ],
    )
    def test_table(self, norms, expected):
        assert _diverging(norms, DEFAULT_TOL) is expected
