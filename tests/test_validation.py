"""Input validation: each input kind has one check, run once per call.

Covers the finite-matrix check shared by every layer, the sample /
perturbation pair, the epsilon grid, ``tol`` at every public entry, the
CLI's alpha indices, and the number of perturbation-predicate runs per CLI
command.
"""

import inspect
import json
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import dagstab
from dagstab import (
    Dag,
    MleEstimate,
    Perturbation,
    VarietyQuery,
    check_alpha_fixed,
    check_full_condition,
    check_lambda_condition,
    classify,
    in_Xf_alpha_lim,
    is_lambda_mle,
    is_mle,
    limit_mle,
    limit_mle_numeric,
    loglik,
    mle_at_epsilon,
    regime,
    stabilize,
    star,
)
from dagstab import duplicate, full_mle, random_lift, stabilise
from dagstab.cli import EXIT_OK, EXIT_SEMANTIC, main
from dagstab.linalg import DEFAULT_TOL
from _helpers import collider

LINE_SAMPLE = [[1.0, 1.0, 2.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
LINE_PERT = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [-1.0, -1.0, 1.0], [0.0, 0.0, 0.0]]
LINE_ALPHA = MleEstimate(lam={(3, 1): 1.0, (3, 2): 1.0})
Y_ID = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def problem(sample=LINE_SAMPLE, **kw):
    out = {"graph": {"m": 3, "edges": [[1, 3], [2, 3]]}, "sample": sample}
    out.update(kw)
    return out


def run(tmp_path, capsys, data: dict, command: str):
    """Run the CLI in process; an uncaught exception fails the test."""
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))  # writes NaN and Infinity as such
    code = main([command, "--input", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def assert_semantic_error(result, message):
    code, out, err = result
    assert code == EXIT_SEMANTIC
    assert out == ""
    assert err.startswith("error:") and message in err


def with_nan(M) -> np.ndarray:
    M = np.array(M, dtype=float)
    M.flat[0] = np.nan
    return M


def nan_entry_points() -> dict:
    """Per public function that takes a matrix, and per matrix argument, a
    call with a NaN in that argument.  The sample has full column rank, so
    its perturbation is zero and the full MLE is an MLE."""
    f, fp, g = np.array(Y_ID + [[0.0, 0.0, 0.0]]), np.zeros((4, 3)), collider()
    alpha = full_mle(f, g)
    A, E = f[:, :2], fp[:, :2]
    lift = random_lift(f, 1)
    calls = {
        "rank": lambda: dagstab.rank(with_nan(f)),
        "image_basis": lambda: dagstab.image_basis(with_nan(f)),
        "kernel_basis": lambda: dagstab.kernel_basis(with_nan(f)),
        "orth_complement": lambda: dagstab.orth_complement(with_nan(f), 4),
        "pencil_expand-A": lambda: dagstab.pencil_expand(with_nan(A), E),
        "pencil_expand-E": lambda: dagstab.pencil_expand(A, with_nan(E)),
        "duplicate": lambda: duplicate(with_nan(f), 2),
        "lambda_kernel_basis": lambda: dagstab.lambda_kernel_basis(with_nan(f), g, 3),
        "is_lambda_mle": lambda: is_lambda_mle(with_nan(f), g, alpha.lam),
        "is_mle": lambda: is_mle(with_nan(f), g, alpha),
        "loglik-Sigma": lambda: loglik(with_nan(np.eye(3)), f),
        "loglik-Y": lambda: loglik(np.eye(3), with_nan(f)),
        "random_lift": lambda: random_lift(with_nan(f), 1),
        "validate_lift": lambda: dagstab.validate_lift(replace(lift, base=with_nan(f))),
        "build_from_lift": lambda: dagstab.build_from_lift(replace(lift, base=with_nan(f))),
        "check_alpha_fixed": lambda: check_alpha_fixed(with_nan(fp), alpha.lam, g),
        "star_min_norm_mle": lambda: dagstab.star_min_norm_mle(with_nan(f), star(3)),
        "mle_at_epsilon-f": lambda: mle_at_epsilon(with_nan(f), fp, g, 0.1),
        "mle_at_epsilon-fp": lambda: mle_at_epsilon(f, with_nan(fp), g, 0.1),
    }
    for fn in (classify, full_mle, dagstab.lambda_mle, dagstab.omega_mle):
        calls[fn.__name__] = lambda fn=fn: fn(with_nan(f), g)
    for fn in (dagstab.is_perturbation, Perturbation, stabilize):
        calls[f"{fn.__name__}-f"] = lambda fn=fn: fn(with_nan(f), fp)
        calls[f"{fn.__name__}-fp"] = lambda fn=fn: fn(f, with_nan(fp))
    for fn in (check_full_condition, check_lambda_condition, limit_mle, limit_mle_numeric):
        calls[f"{fn.__name__}-f"] = lambda fn=fn: fn(with_nan(f), fp, g)
        calls[f"{fn.__name__}-fp"] = lambda fn=fn: fn(f, with_nan(fp), g)
    for fn in (dagstab.in_Xf, dagstab.in_Xf_alpha, in_Xf_alpha_lim):
        calls[f"{fn.__name__}-f"] = lambda fn=fn: fn(VarietyQuery(with_nan(f), fp, g, alpha))
        calls[f"{fn.__name__}-candidate"] = lambda fn=fn: fn(
            VarietyQuery(f, with_nan(fp), g, alpha)
        )
    return calls


NAN_ENTRY_POINTS = nan_entry_points()


class TestFiniteMatrix:
    def test_names_the_input_in_errors(self):
        f = np.array(LINE_SAMPLE)
        with pytest.raises(ValueError, match="perturbation entries must be finite"):
            stabilise.is_perturbation(f, np.full(f.shape, np.nan))
        with pytest.raises(ValueError, match="sample must be a 2-d array"):
            classify(np.ones(3), collider())
        with pytest.raises(ValueError, match="sample must be non-empty"):
            classify(np.zeros((0, 3)), collider())

    @pytest.mark.parametrize("call", NAN_ENTRY_POINTS.values(), ids=NAN_ENTRY_POINTS.keys())
    def test_every_matrix_entry_point_rejects_nan(self, call):
        with pytest.raises(ValueError, match="entries must be finite"):
            call()


LIMITS_ENTRY_POINTS = [
    lambda f, p, g: limit_mle(f, p, g),
    lambda f, p, g: limit_mle_numeric(f, p, g),
    lambda f, p, g: check_lambda_condition(f, p, g),
    lambda f, p, g: check_full_condition(f, p, g),
    lambda f, p, g: mle_at_epsilon(f, p, g, 0.1),
]
LIMITS_IDS = [
    "limit_mle", "limit_mle_numeric", "check_lambda_condition", "check_full_condition",
    "mle_at_epsilon",
]


class TestPerturbationPair:
    def setup_method(self):
        self.f = np.array(LINE_SAMPLE)
        self.pert = Perturbation(self.f, np.array(LINE_PERT))
        self.other = self.f.copy()
        self.other[0, 0] = 2.0

    def test_stabilize_rejects_other_sample(self):
        with pytest.raises(ValueError, match="does not match"):
            stabilize(self.other, self.pert)
        assert np.array_equal(stabilize(self.f, self.pert), self.f + self.pert.delta)

    @pytest.mark.parametrize("call", LIMITS_ENTRY_POINTS, ids=LIMITS_IDS)
    def test_limits_reject_other_sample(self, call):
        with pytest.raises(ValueError, match="does not match"):
            call(self.other, self.pert, collider())
        call(self.f, self.pert, collider())
        call(None, self.pert, collider())

    @pytest.mark.parametrize("call", LIMITS_ENTRY_POINTS, ids=LIMITS_IDS)
    @pytest.mark.parametrize(
        "g", [Dag(2, [(1, 2)]), Dag(4, [(1, 3), (2, 3), (3, 4)])], ids=["smaller", "larger"]
    )
    def test_limits_reject_other_vertex_count(self, call, g):
        with pytest.raises(ValueError, match="3 columns but the DAG has"):
            call(None, self.pert, g)
        with pytest.raises(ValueError, match="3 columns but the DAG has"):
            call(self.f, np.array(LINE_PERT), g)


class TestCheckAlphaFixed:
    def test_rejects_too_few_columns(self):
        with pytest.raises(ValueError, match="2 columns but the DAG has 3"):
            check_alpha_fixed(np.zeros((3, 2)), {}, Dag(3, [(1, 3), (2, 3)]))

    def test_rejects_non_finite_perturbation(self):
        with pytest.raises(ValueError, match="perturbation entries must be finite"):
            check_alpha_fixed(np.full((3, 3), np.nan), {}, Dag(3, [(1, 3), (2, 3)]))

    @pytest.mark.parametrize("s", [1e150, 1e-150, 1e200, 1e-200])
    def test_squared_norm_range(self, s):
        # v_2 = 2 v_1: the weight 2 holds and 3 fails; at 1e+-200 both used to hold
        P, g = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]), Dag(2, [(1, 2)])
        if s in (1e150, 1e-150):
            for weight, holds in ((2.0, True), (3.0, False)):
                assert check_alpha_fixed(P, {(2, 1): weight}, g) == {2: holds}
                assert check_alpha_fixed(s * P, {(2, 1): weight}, g) == {2: holds}
        else:
            with pytest.raises(ValueError, match="perturbation has a column whose squared norm"):
                check_alpha_fixed(s * P, {(2, 1): 3.0}, g)


class TestEpsilonGrid:
    @pytest.mark.parametrize("grid", [(np.nan, 1e-3), (np.inf, 1e-3)], ids=["nan", "inf"])
    def test_library_rejects_non_finite_grid(self, grid):
        pert = Perturbation(np.array(LINE_SAMPLE), np.array(LINE_PERT))
        with pytest.raises(ValueError, match="epsilon grid entries must be finite"):
            limit_mle_numeric(None, pert, collider(), eps_grid=grid)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf])
    def test_mle_at_epsilon_rejects_non_finite_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be finite"):
            mle_at_epsilon(np.array(LINE_SAMPLE), np.array(LINE_PERT), collider(), eps)

    @pytest.mark.parametrize("eps", [1e160, -1e200, 1e300, 1.7e308])
    def test_mle_at_epsilon_names_eps_when_the_sum_overflows(self, eps):
        # the sample is at scale 1; only f + eps f' leaves the float range
        with pytest.raises(ValueError, match=re.escape(f"f + eps f' at eps={eps!r} has a column")):
            mle_at_epsilon(np.array(LINE_SAMPLE), np.array(LINE_PERT), collider(), eps)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_cli_file_rejects_non_finite_grid(self, tmp_path, capsys, value):
        data = problem(perturbation=LINE_PERT, settings={"epsilonGrid": [value, 1e-3]})
        result = run(tmp_path, capsys, data, "limit")
        assert_semantic_error(result, "epsilon grid entries must be finite")


def tol_entry_points() -> dict:
    """Per public function that takes ``tol``, a call with valid arguments at
    a given ``tol``; the three predicates take it through a ``VarietyQuery``.
    As in :func:`nan_entry_points`, the full MLE is an MLE."""
    f, fp, g = np.array(Y_ID + [[0.0, 0.0, 0.0]]), np.zeros((4, 3)), collider()
    alpha = full_mle(f, g)
    lam = alpha.lam
    lift = random_lift(f, 1)
    A, E = f[:, :2], fp[:, :2]
    calls = {
        "orth_complement": lambda tol: dagstab.orth_complement(f, 4, tol),
        "pencil_expand": lambda tol: dagstab.pencil_expand(A, E, tol),
        "lambda_kernel_basis": lambda tol: dagstab.lambda_kernel_basis(f, g, 3, tol),
        "is_lambda_mle": lambda tol: is_lambda_mle(f, g, lam, tol),
        "is_mle": lambda tol: is_mle(f, g, alpha, tol),
        "loglik": lambda tol: loglik(np.eye(3), f, tol),
        "random_lift": lambda tol: random_lift(f, 1, tol),
        "check_alpha_fixed": lambda tol: check_alpha_fixed(fp, lam, g, tol),
        "mle_at_epsilon": lambda tol: mle_at_epsilon(f, fp, g, 0.1, tol),
        "star_min_norm_mle": lambda tol: dagstab.star_min_norm_mle(f, star(3), tol),
    }
    for fn in (dagstab.rank, dagstab.image_basis, dagstab.kernel_basis):
        calls[fn.__name__] = lambda tol, fn=fn: fn(f, tol)
    for fn in (classify, full_mle, dagstab.lambda_mle, dagstab.omega_mle):
        calls[fn.__name__] = lambda tol, fn=fn: fn(f, g, tol)
    for fn in (dagstab.is_perturbation, Perturbation, stabilize):
        calls[fn.__name__] = lambda tol, fn=fn: fn(f, fp, tol)
    for fn in (dagstab.validate_lift, dagstab.build_from_lift):
        calls[fn.__name__] = lambda tol, fn=fn: fn(lift, tol)
    for fn in (check_full_condition, check_lambda_condition, limit_mle, limit_mle_numeric):
        calls[fn.__name__] = lambda tol, fn=fn: fn(f, fp, g, tol=tol)
    for fn in (dagstab.in_Xf, dagstab.in_Xf_alpha, in_Xf_alpha_lim):
        calls[f"VarietyQuery-{fn.__name__}"] = lambda tol, fn=fn: fn(
            VarietyQuery(f, fp, g, alpha, tol)
        )
    return calls


TOL_ENTRY_POINTS = tol_entry_points()


class TestTol:
    def test_every_public_tol_has_a_call(self):
        takes_tol = set()
        for name in dagstab.__all__:
            obj = getattr(dagstab, name)
            if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
                if "tol" in inspect.signature(obj).parameters:
                    takes_tol.add(name)
        assert {name.split("-")[0] for name in TOL_ENTRY_POINTS} == takes_tol

    @pytest.mark.parametrize("tol", [0, 1, -1, 2, np.nan, np.inf])
    @pytest.mark.parametrize("call", TOL_ENTRY_POINTS.values(), ids=TOL_ENTRY_POINTS.keys())
    def test_outside_unit_interval_raises(self, call, tol):
        call(DEFAULT_TOL)
        with pytest.raises(ValueError, match=r"tol must lie strictly between 0 and 1, got"):
            call(tol)

    @pytest.mark.parametrize("command", ["classify", "estimate"])
    def test_file_nan(self, tmp_path, capsys, command):
        data = problem(Y_ID, settings={"tol": float("nan")})
        result = run(tmp_path, capsys, data, command)
        assert_semantic_error(result, "tol must lie strictly between 0 and 1")


class TestAlpha:
    def test_infinite_vertex_index(self, tmp_path, capsys):
        data = problem(
            perturbation=LINE_PERT,
            alpha={"lambda": [[float("inf"), 1, 1.0]]},
        )
        assert_semantic_error(run(tmp_path, capsys, data, "membership"), "is not an integer")

    @pytest.mark.parametrize(
        "alpha,message",
        [
            ({"lambda": [[3, 1, float("nan")], [3, 2, 1.0]]}, "must be finite"),
            ({"omega": [[1, float("inf")]]}, "must be positive and finite"),
        ],
        ids=["lambda", "omega"],
    )
    def test_non_finite_values(self, tmp_path, capsys, alpha, message):
        data = problem(perturbation=LINE_PERT, alpha=alpha)
        assert_semantic_error(run(tmp_path, capsys, data, "membership"), message)

    def test_nan_estimate_is_not_an_mle(self):
        Y = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        g = collider()
        est = MleEstimate(
            lam={(3, 1): np.nan, (3, 2): 1.0},
            omega={1: 0.5, 2: 0.5, 3: np.nan},
            omega_exists={1: True, 2: True, 3: True},
        )
        assert not is_mle(Y, g, est)


class TestCliErrorBranches:
    """Each semantic check of the CLI's own parsing exits 3 with one ``error:`` line."""

    @pytest.mark.parametrize(
        "data,command,message",
        [
            (problem(perturbation=LINE_PERT[:3]), "limit",
             "perturbation must have the same shape as the sample"),
            (problem(perturbation=[row[:2] for row in LINE_PERT]), "limit",
             "perturbation must have the same shape as the sample"),
            (problem(perturbation=LINE_PERT, alpha={"lambda": [[4, 1, 1.0]]}), "membership",
             "alpha lambda child index 4 outside 1..3"),
            (problem(perturbation=LINE_PERT, alpha={"omega": [[0, 1.0]]}), "membership",
             "alpha omega vertex index 0 outside 1..3"),
            (problem(settings={"seed": 2**64}), "stabilize",
             "seed must fit in an unsigned 64-bit integer"),
            (problem(alpha={"lambda": [[3, 1, 1.0], [3, 2, 1.0]]}), "membership",
             "membership queries need an explicit perturbation"),
        ],
        ids=[
            "perturbation-rows", "perturbation-columns", "alpha-lambda-index",
            "alpha-omega-index", "seed-file", "membership-without-perturbation",
        ],
    )
    def test_exits_semantic(self, tmp_path, capsys, data, command, message):
        result = run(tmp_path, capsys, data, command)
        assert_semantic_error(result, message)
        assert result[2].count("\n") == 1


class TestLibraryErrorBranches:
    """Each of these checks raises its own ``ValueError`` message."""

    @pytest.mark.parametrize(
        "call,message",
        [
            (lambda: mle_at_epsilon(np.array(LINE_SAMPLE), np.array(LINE_PERT), collider(), 1e-200),
             "is not a unique MLE at vertices [3]"),
            (lambda: in_Xf_alpha_lim(VarietyQuery(np.array(LINE_SAMPLE), np.array(LINE_PERT),
                                                  collider())),
             "membership in the alpha-indexed variety needs alpha"),
            (lambda: star(1), "a star-shaped DAG needs at least 2 vertices"),
            (lambda: loglik(np.eye(2), np.array(Y_ID)), "covariance must be 3 x 3, got (2, 2)"),
            (lambda: dagstab.orth_complement(np.eye(3), 4), "basis lives in R^3, ambient dim is 4"),
            (lambda: dagstab.pencil_expand(np.eye(3)[:, :2], np.eye(3)),
             "shape mismatch: A is (3, 2), E is (3, 3)"),
        ],
        ids=["mle_at_epsilon", "in_Xf_alpha_lim", "star", "loglik", "orth_complement",
             "pencil_expand"],
    )
    def test_raises(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


class TestPerturbationChecksPerCall:
    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        original = stabilise.is_perturbation

        def counted(*args, **kwargs):
            count[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(stabilise, "is_perturbation", counted)
        return count

    @pytest.mark.parametrize(
        "command,data",
        [
            ("stabilize", problem(settings={"seed": 7})),
            ("stabilize", problem(perturbation=LINE_PERT)),
            ("limit", problem(settings={"seed": 7})),
            ("limit", problem(perturbation=LINE_PERT)),
            ("check", problem(settings={"seed": 7})),
            ("check", problem(perturbation=LINE_PERT)),
        ],
        ids=["stabilize-seed", "stabilize-explicit", "limit-seed", "limit-explicit",
             "check-seed", "check-explicit"],
    )
    def test_cli_command_checks_once(self, tmp_path, capsys, calls, command, data):
        code, _, _ = run(tmp_path, capsys, data, command)
        assert code == EXIT_OK
        assert calls[0] == 1

    def test_in_Xf_alpha_lim_checks_once(self, calls):
        q = VarietyQuery(np.array(LINE_SAMPLE), np.array(LINE_PERT), collider(), LINE_ALPHA)
        assert in_Xf_alpha_lim(q)
        assert calls[0] == 1


class TestIntegralArguments:
    """Counts and seeds accept any integral type; floats stay rejected."""

    def test_numpy_vertex_count(self):
        g = Dag(np.int64(3), [(1, 3), (2, 3)])
        assert g == collider() and type(g.m) is int

    def test_numpy_duplication_count(self):
        assert np.array_equal(duplicate(LINE_SAMPLE, np.int64(2)), duplicate(LINE_SAMPLE, 2))

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint64(7), np.int32(7)])
    def test_numpy_seed(self, seed):
        lift = random_lift(duplicate(Y_ID, 2), seed)
        ref = random_lift(duplicate(Y_ID, 2), 7)
        assert lift.seed == 7 and type(lift.seed) is int
        assert len(lift.stages) == len(ref.stages)
        for a, b in zip(lift.stages, ref.stages):
            assert np.array_equal(a.stage_map, b.stage_map)

    def test_largest_numpy_seed(self):
        assert random_lift(duplicate(Y_ID, 2), np.uint64(2**64 - 1)).seed == 2**64 - 1

    @pytest.mark.parametrize("m", [3.0, np.float64(3.0), np.int64(0)])
    def test_rejects_non_integral_or_small_vertex_count(self, m):
        with pytest.raises(ValueError, match="vertex count must be a positive integer"):
            Dag(m)

    @pytest.mark.parametrize("k", [2.0, np.float64(2.0), np.int64(0)])
    def test_rejects_non_integral_or_small_duplication_count(self, k):
        with pytest.raises(ValueError, match="duplication count must be a positive integer"):
            duplicate(LINE_SAMPLE, k)

    @pytest.mark.parametrize(
        "n", [np.nan, np.inf, 2.5, 3.0, np.int64(0)], ids=["nan", "inf", "2.5", "3.0", "int64-0"]
    )
    def test_rejects_non_integral_or_small_sample_count(self, n):
        with pytest.raises(ValueError, match="sample count must be a positive integer"):
            regime(star(5), n)
        assert regime(star(5), np.int64(3)) == regime(star(5), 3)

    @pytest.mark.parametrize("seed", [7.0, np.float64(7.0), np.int64(-1), 2**64])
    def test_rejects_bad_seeds(self, seed):
        with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
            random_lift(duplicate(Y_ID, 2), seed)


class TestSquaredNormRange:
    """Fits decide from squared column norms, so a sample or perturbation
    whose nonzero column has a square outside the normal float range is
    rejected instead of classified wrongly (it came out ``nonexistent`` at
    witness 1 before)."""

    Y = np.array([[1.0, 3.0], [2.0, -1.0], [0.5, 0.1]])
    G = Dag(2, [(1, 2)])

    def decisions(self, Y):
        est = full_mle(Y, self.G)
        return classify(Y, self.G), est.lambda_kernel_dims, est.omega_exists

    @pytest.mark.parametrize("s", [1e160, 1e-160, 1e200, 1e-200])
    def test_extreme_scales_raise(self, s):
        for call in (classify, full_mle):
            with pytest.raises(ValueError, match="sample has a column whose squared norm"):
                call(s * self.Y, self.G)
        f, fp = np.array(LINE_SAMPLE), np.array(LINE_PERT)
        with pytest.raises(ValueError, match="sample has a column whose squared norm"):
            Perturbation(s * f, s * fp)
        with pytest.raises(ValueError, match="perturbation has a column whose squared norm"):
            Perturbation(f, s * fp)

    @pytest.mark.parametrize("s", [1e150, 1e-150])
    def test_representable_scales_keep_the_decisions(self, s):
        assert self.decisions(s * self.Y) == self.decisions(self.Y)
        assert self.decisions(self.Y)[0].status == "exists-unique"
        f, fp, g = np.array(LINE_SAMPLE), np.array(LINE_PERT), collider()
        pert = Perturbation(s * f, s * fp)
        assert check_lambda_condition(None, pert, g) == check_lambda_condition(f, fp, g)
        assert check_full_condition(None, pert, g) == check_full_condition(f, fp, g)

    @pytest.mark.parametrize("s", [1e200, 1e-200])
    def test_loglik_raises(self, s):
        # the sample covariance overflowed to inf, and loglik returned nan
        assert np.isfinite(loglik(np.eye(2), self.Y))
        with pytest.raises(ValueError, match="sample has a column whose squared norm"):
            loglik(np.eye(2), s * self.Y)

    def test_zero_columns_pass(self):
        Y = np.column_stack([1e-150 * self.Y[:, 0], np.zeros(3)])
        assert classify(Y, self.G).status == "nonexistent"

    @pytest.mark.parametrize("s", [1e160, 1e-170])
    @pytest.mark.parametrize("command", ["classify", "estimate", "check"])
    def test_cli_exits_semantic(self, tmp_path, capsys, s, command):
        data = {"graph": {"m": 2, "edges": [[1, 2]]}, "sample": (s * self.Y).tolist(),
                "settings": {"seed": 3}}
        assert_semantic_error(run(tmp_path, capsys, data, command), "squared norm overflows")


class TestNormalEquationsAtExtremeScales:
    """The normal-equations check reads products of two columns, which
    overflowed to ``inf <= tol * inf`` above entries of about 1e77 and
    underflowed to ``0 <= 0`` below about 1e-77, so a wrong edge weight
    passed there."""

    Y = TestSquaredNormRange.Y
    G = TestSquaredNormRange.G

    def wrong(self, Y):
        """The MLE given ``Y`` with its edge weight scaled by 1.5."""
        est = full_mle(Y, self.G)
        return replace(est, lam={(2, 1): 1.5 * est.lam[(2, 1)]})

    @pytest.mark.parametrize("s", [1e80, 1e-80, 1e150, 1e-150])
    def test_wrong_weight_rejected(self, s):
        est = full_mle(s * self.Y, self.G)
        assert is_mle(s * self.Y, self.G, est) and is_lambda_mle(s * self.Y, self.G, est.lam)
        wrong = self.wrong(s * self.Y)
        assert not is_mle(s * self.Y, self.G, wrong)
        assert not is_lambda_mle(s * self.Y, self.G, wrong.lam)

    @pytest.mark.parametrize("s", [1e150, 1e-150])
    def test_cli_membership_says_not_an_mle(self, tmp_path, s):
        wrong = self.wrong(s * self.Y)
        data = {
            "graph": {"m": 2, "edges": [[1, 2]]},
            "sample": (s * self.Y).tolist(),
            "perturbation": np.zeros((3, 2)).tolist(),
            "alpha": {"lambda": [[2, 1, wrong.lam[(2, 1)]]],
                      "omega": [[i, v] for i, v in sorted(wrong.omega.items())]},
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data))
        command = ["-W", "error", "-m", "dagstab.cli", "membership", "--input", str(path)]
        proc = subprocess.run(
            [sys.executable, *command],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        report = json.loads(proc.stdout)
        assert report["alphaIsMleGivenF"] is False and report["inXfAlphaLim"] is False


BIG = 10**400  # an integer literal beyond the float range


class TestOversizedIntegers:
    """A JSON integer beyond the float range is read as an infinite float, so
    every field that holds one exits with one ``error:`` line, not a
    traceback; the library's own checks reject such a Python integer."""

    @pytest.mark.parametrize(
        "data,message",
        [
            (problem([[BIG, 1.0, 2.0], *LINE_SAMPLE[1:]], perturbation=LINE_PERT),
             "sample entries must be finite"),
            (problem(perturbation=[*LINE_PERT[:2], [-BIG, -1.0, 1.0], LINE_PERT[3]]),
             "perturbation entries must be finite"),
            (problem(perturbation=LINE_PERT, settings={"epsilonGrid": [BIG, 1e-3]}),
             "epsilon grid entries must be finite"),
            (problem(perturbation=LINE_PERT, alpha={"lambda": [[3, 1, BIG], [3, 2, 1.0]]}),
             "alpha lambda entry for 1 -> 3 must be finite"),
            (problem(perturbation=LINE_PERT, alpha={"omega": [[1, BIG]]}),
             "alpha omega at vertex 1 must be positive and finite"),
            (problem(perturbation=LINE_PERT, alpha={"lambda": [[BIG, 1, 1.0]]}),
             "alpha lambda child index inf is not an integer"),
        ],
        ids=["sample", "perturbation", "epsilonGrid", "alpha-lambda", "alpha-omega", "alpha-index"],
    )
    @pytest.mark.parametrize("command", ["classify", "limit", "membership"])
    def test_cli_exits_semantic(self, tmp_path, capsys, data, message, command):
        result = run(tmp_path, capsys, data, command)
        assert_semantic_error(result, message)
        assert result[2].count("\n") == 1

    def test_cli_integer_longer_than_int_parsing_allows(self, tmp_path, capsys):
        # Python parses at most 4300 digits into an int
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(problem(Y_ID)).replace("1.0", "1" + "0" * 5000, 1))
        assert main(["classify", "--input", str(path)]) == EXIT_SEMANTIC
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: sample entries must be finite\n")

    def test_library_checks(self):
        with pytest.raises(ValueError, match="sample entries must be finite"):
            classify([[1.0, 0.0, -BIG]], collider())
        with pytest.raises(ValueError, match="epsilon grid entries must be finite"):
            limit_mle_numeric(Y_ID, np.zeros((3, 3)), collider(), eps_grid=(BIG, 1.0))


class TestUndecodableInput:
    def test_exits_schema_with_one_line(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_bytes(b'{"graph": \xff}')
        assert main(["classify", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: cannot read input:") and err.count("\n") == 1


class TestPerturbationAtExtremeScales:
    """``is_perturbation`` compared ``max |f^T f'|`` with ``tol |f| |f'|``, and
    that product of spectral norms overflowed to ``inf`` near 1.7e154, where
    a non-perturbation then passed every condition."""

    f = np.array([[0.7, 0.7, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    # the third column meets the image of f
    fp = np.array([[0.0, 0.0, 0.3], [0.0, 0.0, 0.7], [-0.7, 0.7, 0.0]])

    @pytest.mark.parametrize("s", [1.0, 1e150, 1.7e154])
    def test_rejected_at_every_scale(self, s):
        check = stabilise.is_perturbation(s * self.f, s * self.fp)
        assert not check and check.failures == ("column-orthogonality",)
        assert (check.expected_rank, check.actual_rank) == (2, 2)
        # the products are reported in the caller's units
        assert check.max_column_product == pytest.approx(0.21 * s * s, rel=1e-12)
        with pytest.raises(stabilise.InvalidPerturbationError):
            Perturbation(s * self.f, s * self.fp)
