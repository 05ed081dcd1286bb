"""How often one CLI command or one query fits the sample, runs the
perturbation predicate or runs an SVD, and which samples the limit routes
fit."""

import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from dagstab import (
    Dag,
    Perturbation,
    VarietyQuery,
    classify,
    full_mle,
    in_Xf,
    in_Xf_alpha,
    in_Xf_alpha_lim,
    limit_mle,
    limits,
    linalg,
    mle,
    stabilise,
    varieties,
)
from dagstab.cli import EXIT_OK, main
from _helpers import random_perturbation, random_rank_deficient, star_instance, tournament


def star_problem():
    """A star sample whose MLE exists, a perturbation of it and the
    minimum-norm MLE as alpha.  Drawing the perturbation runs the
    perturbation predicate once."""
    f, g = star_instance(np.random.default_rng(5), 4, 6, parent_rank=2)
    fp = random_perturbation(f, seed=9)
    return f, fp, g, full_mle(f, g)


def problem_json(f, fp, g, alpha) -> dict:
    return {
        "graph": {"m": g.m, "edges": [list(e) for e in sorted(g.edges)]},
        "sample": f.tolist(),
        "perturbation": fp.tolist(),
        "alpha": {
            "lambda": [[i, j, v] for (i, j), v in sorted(alpha.lam.items())],
            "omega": [[i, v] for i, v in sorted(alpha.omega.items())],
        },
    }


def run(tmp_path, capsys, data: dict, command: str):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    code = main([command, "--input", str(path)])
    out, _ = capsys.readouterr()
    return code, json.loads(out) if code == EXIT_OK else None


@pytest.fixture
def checks(monkeypatch):
    count = [0]
    original = stabilise.is_perturbation

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(stabilise, "is_perturbation", counted)
    return count


@pytest.fixture
def fits(monkeypatch):
    """The count of ``mle._fit`` calls, wherever ``_fit`` is bound."""
    count = [0]
    original = mle._fit

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    for module in (mle, limits, varieties):
        monkeypatch.setattr(module, "_fit", counted, raising=False)
    return count


class TestMembershipChecksOnce:
    def test_perturbation_candidate_checked_once(self, tmp_path, capsys, checks):
        f, fp, g, alpha = star_problem()
        checks[0] = 0
        code, report = run(tmp_path, capsys, problem_json(f, fp, g, alpha), "membership")
        assert code == EXIT_OK
        assert report["inXf"] is True and report["alphaIsMleGivenF"] is True
        assert report["inXfAlphaLim"] is True
        assert checks[0] == 1

    def test_non_perturbation_no_more_checks_than_before(self, tmp_path, capsys, checks):
        f, fp, g, alpha = star_problem()
        checks[0] = 0
        code, report = run(tmp_path, capsys, problem_json(f, fp + f, g, alpha), "membership")
        assert code == EXIT_OK
        assert (report["inXf"], report["inXfAlpha"], report["inXfAlphaLim"]) == (False,) * 3
        assert checks[0] == 1

    def test_alpha_not_an_mle_no_more_checks_than_before(self, tmp_path, capsys, checks):
        f, fp, g, alpha = star_problem()
        checks[0] = 0
        data = problem_json(f, fp + f, g, alpha)
        data["alpha"]["omega"][0][1] *= 2.0
        code, report = run(tmp_path, capsys, data, "membership")
        assert code == EXIT_OK
        assert report["alphaIsMleGivenF"] is False and report["inXfAlpha"] is None
        assert checks[0] == 1

    @pytest.mark.parametrize("moved", [False, True], ids=["mle", "not-mle"])
    def test_one_fit(self, tmp_path, capsys, fits, moved):
        f, fp, g, alpha = star_problem()
        data = problem_json(f, fp, g, alpha)
        if moved:
            data["alpha"]["omega"][0][1] *= 2.0
        fits[0] = 0
        code, report = run(tmp_path, capsys, data, "membership")
        assert code == EXIT_OK
        assert report["alphaIsMleGivenF"] is not moved
        assert fits[0] == 1

    def test_validated_candidate_is_used_as_it_is(self, checks):
        f, fp, g, alpha = star_problem()
        pert = Perturbation(f, fp)
        checks[0] = 0
        q = VarietyQuery(f=f, candidate=pert, g=g, alpha=alpha)
        raw = VarietyQuery(f=f, candidate=fp, g=g, alpha=alpha)
        assert in_Xf(q) is True
        assert in_Xf_alpha(q) == in_Xf_alpha(raw)
        assert in_Xf_alpha_lim(q) is in_Xf_alpha_lim(raw) is True
        assert checks[0] == 1  # the raw candidate's query, once for all three predicates

    def test_validated_candidate_of_another_sample_rejected(self):
        f, fp, g, alpha = star_problem()
        other = f.copy()
        other[0, 0] += 1.0
        q = VarietyQuery(f=other, candidate=Perturbation(f, fp), g=g, alpha=alpha)
        for query in (in_Xf, in_Xf_alpha_lim):
            with pytest.raises(ValueError, match="does not match"):
                query(q)


def estimate_inputs():
    rng = np.random.default_rng(4)
    full = rng.standard_normal((6, 4))
    deficient = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
    f, _, g, _ = star_problem()
    return [("unique", full, tournament(4)), ("nonexistent", deficient, tournament(4)),
            ("star", f, g)]


class TestEstimateFitsOnce:
    @pytest.mark.parametrize(
        "f,g", [pytest.param(f, g, id=label) for label, f, g in estimate_inputs()]
    )
    def test_one_fit_same_report(self, tmp_path, capsys, fits, f, g):
        data = {"graph": {"m": g.m, "edges": [list(e) for e in sorted(g.edges)]},
                "sample": f.tolist()}
        code, report = run(tmp_path, capsys, data, "estimate")
        assert code == EXIT_OK
        assert fits[0] == 1
        est, status = full_mle(f, g), classify(f, g)
        assert (report["classification"], report["witness"]) == (status.status, status.witness)
        assert report["lambda"] == [[i, j, v] for (i, j), v in sorted(est.lam.items())]
        assert report["omega"] == [[i, v] for i, v in sorted(est.omega.items())]
        assert report["lambdaKernelDims"] == {
            str(i): d for i, d in sorted(est.lambda_kernel_dims.items())
        }
        assert report["omegaExists"] == {str(i): e for i, e in sorted(est.omega_exists.items())}


@pytest.fixture
def fit_samples(monkeypatch):
    """The sample of every ``mle._fit`` call, wherever ``_fit`` is bound."""
    samples = []
    original = mle._fit

    def recorded(A, *args, **kwargs):
        samples.append(np.array(A))
        return original(A, *args, **kwargs)

    monkeypatch.setattr(mle, "_fit", recorded)
    monkeypatch.setattr(limits, "_fit", recorded)
    return samples


@pytest.fixture
def estimates(monkeypatch):
    """Calls of ``omega_mle``, ``full_mle`` and ``mle_at_epsilon`` and
    ``MleEstimate`` objects built."""
    count = {"omega_mle": 0, "full_mle": 0, "MleEstimate": 0, "mle_at_epsilon": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in count:
        wrapper = counted(name, getattr(mle, name, None) or getattr(limits, name))
        monkeypatch.setattr(mle, name, wrapper, raising=False)
        monkeypatch.setattr(limits, name, wrapper, raising=False)
    return count


def limit_problem():
    """The sample and perturbation of ``star_problem``, built with no fit."""
    f, g = star_instance(np.random.default_rng(5), 4, 6, parent_rank=2)
    return Perturbation(f, random_perturbation(f, seed=9)), g


def limit_stack(pert):
    """The one stacked sample that the analytic route and the span conditions
    fit: ``f`` and ``f'``, in that order."""
    return np.stack([pert.base, pert.delta])


class TestLimitFits:
    def test_limit_mle_fits_f_once(self, fit_samples, estimates):
        pert, g = limit_problem()
        limits.limit_mle(None, pert, g)
        assert len(fit_samples) == 1
        assert np.array_equal(fit_samples[0], limit_stack(pert))
        assert estimates == {"omega_mle": 0, "full_mle": 0, "MleEstimate": 0, "mle_at_epsilon": 0}

    @pytest.mark.parametrize("grid", [limits.DEFAULT_EPS_GRID, (1e-2, 1e-3)],
                             ids=["default", "two"])
    def test_numeric_route_fits_each_grid_point_once(self, fit_samples, estimates, grid):
        pert, g = limit_problem()
        res = limits.limit_mle_numeric(None, pert, g, grid)
        assert not res.diverged
        # the whole grid is one stacked fit, through one call of the public
        # mle_at_epsilon and full_mle, the calls the benchmark's trace counts
        assert len(fit_samples) == 1
        assert np.array_equal(fit_samples[0], np.stack([pert.scaled(eps) for eps in grid]))
        assert estimates == {"omega_mle": 0, "full_mle": 1, "MleEstimate": len(grid),
                             "mle_at_epsilon": 1}

    def test_mle_at_epsilon_builds_one_estimate(self, fit_samples, estimates):
        pert, g = limit_problem()
        limits.mle_at_epsilon(None, pert, g, 1e-3)
        assert len(fit_samples) == 1
        assert estimates == {"omega_mle": 0, "full_mle": 1, "MleEstimate": 1, "mle_at_epsilon": 1}

    def test_numeric_route_runs_no_analytic_step(self, monkeypatch):
        pert, g = limit_problem()
        want = limits.limit_mle_numeric(None, pert, g)

        def forbidden(*args, **kwargs):
            raise AssertionError("the numeric route ran a step of the analytic route")

        for name in ("_conditions", "check_lambda_condition", "pencil_expand"):
            monkeypatch.setattr(limits, name, forbidden)
        assert limits.limit_mle_numeric(None, pert, g) == want
        assert want.epsilon_independent == {} and want.diagnostics == {}


class TestCliLimitFits:
    def problem(self):
        pert, g = limit_problem()
        data = {"graph": {"m": g.m, "edges": [list(e) for e in sorted(g.edges)]},
                "sample": pert.base.tolist(), "perturbation": pert.delta.tolist()}
        return data, pert, g

    def test_check_fits_each_sample_once(self, tmp_path, capsys, fit_samples):
        data, pert, g = self.problem()
        code, report = run(tmp_path, capsys, data, "check")
        assert code == EXIT_OK
        assert len(fit_samples) == 1
        assert np.array_equal(fit_samples[0], limit_stack(pert))
        for key, check in (("lambdaCondition", limits.check_lambda_condition),
                           ("fullCondition", limits.check_full_condition)):
            assert report[key] == {str(i): ok for i, ok in sorted(check(None, pert, g).items())}

    @pytest.mark.parametrize("grid", [limits.DEFAULT_EPS_GRID, (1e-2, 1e-3)],
                             ids=["default", "two"])
    def test_limit_fits_each_grid_point_once(self, tmp_path, capsys, fit_samples, grid):
        data, pert, _ = self.problem()
        data["settings"] = {"epsilonGrid": list(grid)}
        code, _ = run(tmp_path, capsys, data, "limit")
        assert code == EXIT_OK
        # the stack of f and f' for limit_mle, then the numeric route's grid stack
        assert len(fit_samples) == 2
        assert np.array_equal(fit_samples[0], limit_stack(pert))
        assert np.array_equal(fit_samples[1], np.stack([pert.scaled(eps) for eps in grid]))


@pytest.fixture
def fit_and_pencil_calls(monkeypatch):
    """The sample of every ``mle._fit`` call and the count of
    ``pencil_expand`` calls, wherever either is bound."""
    samples, pencils = [], [0]
    fit, pencil = mle._fit, linalg.pencil_expand

    def recorded(A, *args, **kwargs):
        samples.append(np.array(A))
        return fit(A, *args, **kwargs)

    def counted(*args, **kwargs):
        pencils[0] += 1
        return pencil(*args, **kwargs)

    for module in (mle, limits, varieties):
        monkeypatch.setattr(module, "_fit", recorded, raising=False)
    for module in (linalg, limits, varieties):
        monkeypatch.setattr(module, "pencil_expand", counted, raising=False)
    return samples, pencils


class TestLimitMembershipFits:
    @pytest.mark.parametrize("deep", [False, True], ids=["star", "complete-10"])
    def test_fits_only_f_and_runs_no_pencil(self, fit_and_pencil_calls, deep):
        if deep:
            g = Dag(10, [(j, i) for i in range(2, 11) for j in range(1, i)])
            f = random_rank_deficient(np.random.default_rng(20231106), 10, 10, 1)
            alpha = full_mle(f, g)
        else:
            f, _, g, alpha = star_problem()
        fp = random_perturbation(f, seed=3)
        samples, pencils = fit_and_pencil_calls
        in_Xf_alpha_lim(VarietyQuery(f=f, candidate=fp, g=g, alpha=alpha))
        assert pencils[0] == 0
        assert samples and all(np.array_equal(A, f) for A in samples)


class TestLimitPencils:
    def test_full_rank_command_runs_no_pencil(
        self, tmp_path, capsys, fit_and_pencil_calls, bench_cli_cases
    ):
        # every parent block of the m = 20 sample has full rank: its limit is the fit
        case = bench_cli_cases["limit-m20"]
        _, pencils = fit_and_pencil_calls
        code, _ = run(tmp_path, capsys, case["problem"], case["command"])
        assert code == EXIT_OK
        assert pencils[0] == 0

    def test_one_pencil_per_parent_count_group(self, fit_and_pencil_calls):
        # one per group with a kernel: at rank 3 a block of up to 3 parents has
        # full rank, so of the groups p = 1..5 only p = 4 (vertex 5) and
        # p = 5 (vertices 6 and 8) run one
        g = Dag(8, tournament(6).edges | {(1, 7), (2, 7), (1, 8), (2, 8), (3, 8), (4, 8), (5, 8)})
        f = random_rank_deficient(np.random.default_rng(4), 9, 8, 3)
        kernels = {len(g.parents(i)) for i, d in full_mle(f, g).lambda_kernel_dims.items() if d}
        fp = random_perturbation(f, seed=4)
        _, pencils = fit_and_pencil_calls
        limit_mle(f, fp, g)
        assert pencils[0] == len(kernels) == 2 < len(g._parent_groups)


@pytest.fixture
def factorisations(monkeypatch):
    """SVDs and QRs run, wherever ``np.linalg.svd`` or ``np.linalg.qr`` is
    called, counting each spectral norm ``np.linalg.norm(M, 2)`` of a matrix
    as one SVD (it runs one)."""
    count = {"svd": 0, "qr": 0}
    svd, qr, norm = np.linalg.svd, np.linalg.qr, np.linalg.norm

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            count[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted_norm(x, ord=None, *args, **kwargs):
        if ord == 2 and np.ndim(x) == 2:
            count["svd"] += 1
        return norm(x, ord, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    monkeypatch.setattr(np.linalg, "qr", counted("qr", qr))
    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    return count


@pytest.fixture
def bench_cli_cases(monkeypatch):
    """The CLI calls of one round of the benchmark's ``cli`` workload, seed 1."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    checks = importlib.import_module("checks")
    return {case["label"]: case for case in checks.cli_cases(1)}


class TestSvdsPerCommand:
    """One SVD per matrix whose rank, image or spectral norm a command reads
    (``is_perturbation``: one each for ``f`` and ``f'``; ``validate_lift``: one
    for ``f`` and one per stage map), on the benchmark's m = 20 problem, a
    rank-1 sample on its DAG and star membership queries.  A stacked call
    counts once: ``pencil_expand`` runs one SVD for ``A``, ``E`` and ``A + E``
    of every pencil of a parent-count group, and the fit, per group, one QR
    of ``[P | y]`` and one values-only SVD of its triangular factor, plus one
    SVD with vectors where some parent block of the group has a kernel.  The
    m = 20 DAG has 3 groups (p = 1, 2, 3), so ``classify`` and ``estimate``
    run 3 QRs and 3 SVDs on its full-rank sample, and 3 QRs and 5 SVDs on a
    rank-1 sample, where the groups p = 2 and 3 have a kernel.
    ``random_lift`` reads each map's rank, image and kernel from one thin SVD.
    ``stabilize`` runs 8 SVDs and no QR: ``random_lift`` 4 (the sample, the
    two of ``orth_complement`` and the one stage map), ``validate_lift`` 2,
    ``is_perturbation`` 1 (of ``f'``: ``build_from_lift`` hands it the
    singular values of ``f`` that ``validate_lift``'s checks computed) and the
    rank of ``f + f'``; the report's stage ranks are the ones ``validate_lift``
    checked.  ``random_lift`` decides a stage
    map's rank from a values-only SVD and ``validate_lift`` the final map's,
    so the counts did not change when they stopped forming its vectors.
    ``limit`` runs 13 SVDs and 6 QRs: ``random_lift`` 4, ``validate_lift``
    2, ``is_perturbation`` 1 and 6 in 2 fits (one stacked fit of ``f`` and
    ``f'`` in ``limit_mle`` and one of the numeric route's whole grid); every
    parent block has full rank, so no fit runs an SVD with vectors, the span
    conditions run no SVD of ``T_E N`` (``N = 0``) and ``pencil_expand`` runs
    none.  ``check`` runs the same 7 outside the fits and the one stacked
    fit: 10 SVDs and 3 QRs.  No QR forms ``Q``.
    ``membership`` runs 4 SVDs and 1 QR: ``is_perturbation`` 2 and the fit of
    the star sample, whose one group has a kernel.  Before the built lift's
    predicate read the sample's singular values from its check, ``stabilize``,
    ``limit`` and ``check`` ran 9, 14 and 11 SVDs.  Before the numeric route
    stacked its grid, ``limit`` ran 29 SVDs and 21 QRs, one fit per grid
    point.  Before ``limit_mle`` stacked its three fits, ``limit`` ran 35
    SVDs and 27 QRs and ``check`` 17 and 9.  Before the fit factored
    ``[P | y]`` by QR it ran one SVD with vectors of every group, and
    ``membership`` ran 3.  At 38 the fit ran once per group (3).  The
    previous counts were 6 and 6 (a second batched SVD per group gave the
    parent-and-self ranks), 17, 11 then 10, 99, 93, 55 then 54, 24 then 18,
    and 6; at 11, 55 and 18 ``random_lift`` still factored the sample twice,
    at 10 the CLI decided each stage map's rank again, and at 54 the pencil
    ran once per child vertex (19 times)."""

    @pytest.mark.parametrize("label,svd,qr", [
        ("classify-m20", 3, 3),
        ("estimate-m20", 3, 3),
        ("stabilize-m20", 8, 0),
        ("limit-m20", 13, 6),
        ("check-m20", 10, 3),
        ("membership-star6-inside", 4, 1),
        ("membership-star6-moved-alpha", 4, 1),
    ])
    def test_count(self, tmp_path, capsys, factorisations, bench_cli_cases, label, svd, qr):
        case = bench_cli_cases[label]
        factorisations.update(svd=0, qr=0)
        code, _ = run(tmp_path, capsys, case["problem"], case["command"])
        assert code == EXIT_OK
        assert factorisations == {"svd": svd, "qr": qr}

    def test_rank_one_estimate(self, tmp_path, capsys, factorisations, bench_cli_cases):
        # the groups p = 2 and p = 3 have a kernel at rank 1; p = 1 has none
        data = dict(bench_cli_cases["estimate-m20"]["problem"])
        rng = np.random.default_rng(1)
        data["sample"] = np.outer(rng.standard_normal(20), rng.standard_normal(20)).tolist()
        factorisations.update(svd=0, qr=0)
        code, report = run(tmp_path, capsys, data, "estimate")
        assert code == EXIT_OK
        assert report["classification"] == "nonexistent"
        assert sorted(set(report["lambdaKernelDims"].values())) == [0, 1, 2]
        assert factorisations == {"svd": 5, "qr": 3}
