import numpy as np
import pytest

from dagstab import (
    CollineationLift,
    InvalidLiftError,
    InvalidPerturbationError,
    LiftStage,
    Perturbation,
    build_from_lift,
    image_basis,
    is_perturbation,
    kernel_basis,
    orth_complement,
    random_lift,
    rank,
    stabilize,
    validate_lift,
)
from dagstab.linalg import DEFAULT_TOL
from dagstab.stabilise import _image
from _helpers import random_rank_deficient

# Coordinate-projection sample: columns e1, e2, 0 in R^4, rank 2.
F_EXAMPLE = np.array(
    [
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ]
)


def example_lift(c1=1.0, c2=0.0) -> CollineationLift:
    """Hand-built one-extra-stage lift for F_EXAMPLE: b3 -> c1 e3 + c2 e4."""
    K = np.array([[0.0], [0.0], [1.0]])
    C = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    M = np.array([[c1], [c2]])
    return CollineationLift(F_EXAMPLE, (LiftStage(K, C, M),))


# Rank-1 sample: only the first column is nonzero.  Its kernel is span{b2, b3}
# and its cokernel span{e2, e3, e4}.
F_RANK_ONE = np.zeros((4, 3))
F_RANK_ONE[0, 0] = 1.0
K2 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
C2 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
M2 = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])  # rank 1: b2 -> e2, b3 -> 0
# stage 3 on ker M2 = span{b3}; the cokernel shrinks to span{e3, e4}
K3 = np.array([[0.0], [0.0], [1.0]])
C3 = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
M3 = np.array([[1.0], [2.0]])


def two_stage_lift(stage2=(K2, C2, M2), stage3=(K3, C3, M3)):
    """A valid lift of ``F_RANK_ONE`` with a rank-1 first stage map and a
    full-rank final one; an argument replaces its stage, ``None`` drops it."""
    stages = tuple(LiftStage(*st) for st in (stage2, stage3) if st is not None)
    return CollineationLift(F_RANK_ONE, stages)


class TestIsPerturbation:
    def test_single_extra_column(self):
        fp = np.zeros((4, 3))
        fp[2, 2], fp[3, 2] = 1.0, -2.0
        assert bool(is_perturbation(F_EXAMPLE, fp))

    def test_zero_fails_rank_for_deficient_sample(self):
        check = is_perturbation(F_EXAMPLE, np.zeros((4, 3)))
        assert not check
        assert check.failures == ("rank",)
        assert (check.expected_rank, check.actual_rank) == (1, 0)

    def test_sample_itself_fails_orthogonality(self):
        check = is_perturbation(F_EXAMPLE, F_EXAMPLE)
        assert not check
        assert "column-orthogonality" in check.failures

    def test_zero_is_valid_for_full_rank_sample(self):
        f = np.vstack([np.eye(3), np.zeros((1, 3))])
        assert bool(is_perturbation(f, np.zeros((4, 3))))

    def test_rejects_wide_sample(self):
        with pytest.raises(ValueError, match="duplicate"):
            is_perturbation(np.ones((2, 3)), np.zeros((2, 3)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            is_perturbation(F_EXAMPLE, np.zeros((4, 2)))

    def test_scaling_invariance(self):
        fp = np.zeros((4, 3))
        fp[2, 2], fp[3, 2] = 0.5, 1.5
        for eps in (0.5, 2.0, -1.0):
            assert bool(is_perturbation(F_EXAMPLE, eps * fp))
        assert not is_perturbation(F_EXAMPLE, 0.0 * fp)


class TestPerturbationType:
    def test_validates_on_construction(self):
        with pytest.raises(InvalidPerturbationError):
            Perturbation(F_EXAMPLE, np.zeros((4, 3)))

    def test_stores_readonly_copies(self):
        fp = np.zeros((4, 3))
        fp[2, 2] = 1.0
        pert = Perturbation(F_EXAMPLE, fp)
        with pytest.raises(ValueError):
            pert.delta[0, 0] = 5.0
        assert np.allclose(pert.delta[:, 2], [0.0, 0.0, 1.0, 0.0])
        assert np.allclose(pert.scaled(2.0), F_EXAMPLE + 2.0 * fp)


class TestBuildFromLift:
    def test_full_rank_sample_trivial_lift(self):
        f = np.vstack([np.eye(3), np.ones((1, 3))])
        lift = CollineationLift(f, ())
        pert = build_from_lift(lift)
        assert np.allclose(pert.delta, 0.0)
        assert np.allclose(stabilize(f, pert), f)

    def test_example_lift_matrix(self):
        pert = build_from_lift(example_lift(c1=2.0, c2=3.0))
        expect = np.zeros((4, 3))
        expect[2, 2], expect[3, 2] = 2.0, 3.0
        assert np.allclose(pert.delta, expect)

    def test_two_stage_lift(self):
        pert = build_from_lift(two_stage_lift())
        assert rank(pert.delta) == 2
        assert bool(is_perturbation(F_RANK_ONE, pert.delta))
        assert rank(stabilize(F_RANK_ONE, pert)) == 3

    def test_rejects_degenerate_final_stage(self):
        bad = example_lift(c1=0.0, c2=0.0)
        with pytest.raises(InvalidLiftError, match="zero"):
            build_from_lift(bad)

    def test_rejects_missing_stages(self):
        with pytest.raises(InvalidLiftError, match="stage"):
            build_from_lift(CollineationLift(F_EXAMPLE, ()))

    def test_rejects_non_orthonormal_basis(self):
        lift = example_lift()
        st = lift.stages[0]
        bad = CollineationLift(
            F_EXAMPLE, (LiftStage(2.0 * st.kernel_basis, st.cokernel_basis, st.stage_map),)
        )
        with pytest.raises(InvalidLiftError, match="orthonormal"):
            validate_lift(bad)

    def test_rejects_cokernel_meeting_image(self):
        lift = example_lift()
        st = lift.stages[0]
        C_bad = np.array(
            [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 1.0]]
        )  # first column lies in im f
        bad = CollineationLift(
            F_EXAMPLE, (LiftStage(st.kernel_basis, C_bad, st.stage_map),)
        )
        with pytest.raises(InvalidLiftError, match="image"):
            validate_lift(bad)


class TestStabilize:
    def test_example_coordinates(self):
        pert = build_from_lift(example_lift(c1=1.0, c2=0.0))
        out = stabilize(F_EXAMPLE, pert)
        expect = np.zeros((4, 3))
        expect[0, 0] = expect[1, 1] = expect[2, 2] = 1.0
        assert np.allclose(out, expect)
        assert rank(out) == 3

    def test_raw_matrix_argument_validated(self):
        with pytest.raises(InvalidPerturbationError):
            stabilize(F_EXAMPLE, np.zeros((4, 3)))

    def test_seeded_rank_deficient(self):
        rng = np.random.default_rng(314)
        f = random_rank_deficient(rng, 6, 4, 2)
        lift = random_lift(f, seed=99)
        out = stabilize(f, build_from_lift(lift))
        assert rank(out) == 4


class TestRandomLift:
    def test_full_rank_gives_single_term(self):
        f = np.vstack([np.eye(3), np.zeros((1, 3))])
        lift = random_lift(f, seed=1)
        assert lift.length == 1 and lift.stages == ()

    def test_zero_sample_generically_two_terms(self):
        for seed in range(100):
            lift = random_lift(np.zeros((5, 3)), seed)
            assert lift.length == 2
            st = lift.stages[0]
            assert st.stage_map.shape == (5, 3)
            assert rank(st.stage_map) == 3

    def test_rank_two_sample_perturbation_rank(self):
        rng = np.random.default_rng(8)
        f = random_rank_deficient(rng, 6, 4, 2)
        for seed in (0, 1, 2, 3, 4):
            delta = build_from_lift(random_lift(f, seed)).delta
            assert rank(delta) == 2

    def test_columns_vanish_on_row_space(self):
        rng = np.random.default_rng(44)
        for seed in range(10):
            n, m = 7, 4
            r = int(rng.integers(1, m))
            f = random_rank_deficient(rng, n, m, r)
            delta = build_from_lift(random_lift(f, seed)).delta
            # perturbation kills every row-space vector of f
            row_basis = np.linalg.svd(f)[2][:r].T
            assert np.max(np.abs(delta @ row_basis)) < 1e-9 * (1 + np.max(np.abs(delta)))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        f = random_rank_deficient(rng, 6, 4, 1)
        a = build_from_lift(random_lift(f, seed=123)).delta
        b = build_from_lift(random_lift(f, seed=123)).delta
        assert np.array_equal(a, b)
        c = build_from_lift(random_lift(f, seed=124)).delta
        assert not np.array_equal(a, c)

    def test_lift_records_seed(self):
        assert random_lift(np.zeros((4, 2)), seed=7).seed == 7

    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError, match="64-bit"):
            random_lift(np.zeros((4, 2)), seed=-1)

    def test_wide_sample_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            random_lift(np.zeros((2, 4)), seed=0)

    @pytest.mark.parametrize("tol", [1.0, 1.5, 0.0, -1e-10])
    def test_rejects_tol_outside_unit_interval(self, tol):
        with pytest.raises(ValueError, match="tol"):
            random_lift(np.zeros((4, 2)), seed=7, tol=tol)

    @pytest.mark.xfail(
        strict=True,
        raises=ValueError,
        reason="random_lift draws its stage maps at unit scale, not in the sample's units, "
        "so far from unit scale f + f' loses rank to roundoff",
    )
    @pytest.mark.parametrize("k", [40, -40])
    def test_stabilises_the_sample_in_any_units(self, k):
        f = np.array([[1.0, 1.0, 2.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        F = np.ldexp(f, k)
        out = stabilize(F, build_from_lift(random_lift(F, seed=7)))
        assert rank(out) == 3


def test_deep_lift_chain():
    # force a five-term lift on a rank-1 sample with a four-dimensional
    # kernel: every stage map is a rank-1 outer product until the kernel is
    # exhausted, exercising the nesting and embedding bookkeeping deeply
    from dagstab import image_basis, kernel_basis, orth_complement

    rng = np.random.default_rng(77)
    f = np.outer(rng.standard_normal(9), rng.standard_normal(5))
    K = kernel_basis(f)
    C = orth_complement(image_basis(f), 9)
    stages = []
    while K.shape[1] > 0:
        d, k = C.shape[1], K.shape[1]
        if k == 1:
            M = rng.standard_normal((d, 1))  # final stage, injective
        else:
            M = np.outer(rng.standard_normal(d), rng.standard_normal(k))
        stages.append(LiftStage(K, C, M))
        rk = rank(M)
        if rk == k:
            break
        K = K @ kernel_basis(M)
        C = C @ orth_complement(image_basis(M), d)
    lift = CollineationLift(f, tuple(stages))
    assert lift.length == 5  # kernel dims 4 -> 3 -> 2 -> 1 -> 0
    pert = build_from_lift(lift)
    assert rank(pert.delta) == 4
    assert rank(stabilize(f, pert)) == 5


def test_stabilisation_rank_sweep():
    # ranks 0..m-1 at n = m and n = m + 2; stabilised rank is always m
    rng = np.random.default_rng(2024)
    count = 0
    for m in (3, 4, 5):
        for extra in (0, 2):
            n = m + extra
            for r in range(m):
                f = random_rank_deficient(rng, n, m, r)
                seed = int(rng.integers(0, 2**32))
                out = stabilize(f, build_from_lift(random_lift(f, seed)))
                assert rank(out) == m
                count += 1
    assert count == 24


def _reference_delta(f, seed):
    """``random_lift`` then ``build_from_lift`` stage by stage from the public
    bases: ``kernel_basis`` of each map and ``orth_complement`` of its
    ``image_basis``, each stage ``C M K^T`` added to zeros in order."""
    rng = np.random.default_rng(seed)
    K = kernel_basis(f)
    C = orth_complement(image_basis(f), f.shape[0])
    delta = np.zeros(f.shape)
    while K.shape[1] > 0:
        M = rng.standard_normal((C.shape[1], K.shape[1]))
        assert np.any(M)  # an all-zero draw, redrawn by random_lift, has measure zero
        delta += C @ M @ K.T
        if rank(M) == K.shape[1]:
            break
        K = K @ kernel_basis(M)
        C = C @ orth_complement(image_basis(M), C.shape[1])
    return delta


class TestLiftBits:
    """The drawn perturbation is fixed bit for bit by the seed: the benchmark
    counts its known-failing inputs, and whether a deep pencil fails depends
    on the last bits of ``delta``."""

    @pytest.mark.parametrize("extra", [0, 3], ids=["square", "tall"])
    def test_seeded_samples(self, extra):
        rng = np.random.default_rng(31 + extra)
        for m in (2, 5, 9):
            for r in range(m + 1):
                f = random_rank_deficient(rng, m + extra, m, r)
                seed = int(rng.integers(2**32))
                delta = build_from_lift(random_lift(f, seed)).delta
                assert np.array_equal(delta, _reference_delta(f, seed))

    def test_known_failures(self, perfbench_inputs):
        for spec in perfbench_inputs.KNOWN_FAILURES:
            case = perfbench_inputs._known_failure(*spec)
            delta = build_from_lift(random_lift(case.sample, case.lift_seed)).delta
            assert np.array_equal(delta, _reference_delta(case.sample, case.lift_seed))


class TestImage:
    """``random_lift`` reads rank, image and kernel of each stage map from the
    one thin SVD of ``_image``; they must be the ones the public helpers give."""

    @pytest.mark.parametrize("shape", [(6, 6), (9, 6), (4, 7)], ids=["square", "tall", "wide"])
    def test_rank_and_image_match_the_helpers(self, shape):
        rng = np.random.default_rng(sum(shape))
        n, p = shape
        for r in range(min(n, p) + 1):
            M = random_rank_deficient(rng, n, p, r)
            rk, image, norm, _ = _image(M, DEFAULT_TOL)
            assert rk == rank(M) == r
            assert np.array_equal(image, image_basis(M))
            assert abs(norm - np.linalg.norm(M, 2)) <= 1e-12 * max(1.0, norm)

    @pytest.mark.parametrize("extra", [0, 3], ids=["square", "tall"])
    def test_kernel_matches_kernel_basis_bit_for_bit(self, extra):
        rng = np.random.default_rng(41 + extra)
        for p in (1, 4, 8):
            for r in range(p + 1):
                M = random_rank_deficient(rng, p + extra, p, r)
                assert np.array_equal(_image(M, DEFAULT_TOL)[3], kernel_basis(M))


E1 = np.array([[1.0], [0.0], [0.0]])
# one broken variant per InvalidLiftError raised by validate_lift
BROKEN_LIFTS = {
    "no-stages": (two_stage_lift(stage2=None, stage3=None), "needs at least one stage"),
    "ambient": (two_stage_lift(stage3=(np.vstack([K3, [[0.0]]]), C3, M3)),
                "stage 3: basis ambient dimensions wrong"),
    "no-columns": (two_stage_lift(stage3=(K3, np.zeros((4, 0)), np.zeros((0, 1)))),
                   "stage 3 cokernel basis has no columns"),
    "not-orthonormal": (two_stage_lift(stage2=(2.0 * K2, C2, M2)),
                        "stage 2 kernel basis does not have orthonormal columns"),
    "kernel-dim": (two_stage_lift(stage3=(K2, C3, np.ones((2, 2)))),
                   "stage 3: kernel basis has 2 columns, expected 1"),
    "cokernel-dim": (two_stage_lift(stage3=(K3, C2, np.ones((3, 1)))),
                     "stage 3: cokernel basis has 3 columns, expected 2"),
    "map-shape": (two_stage_lift(stage3=(K3, C3, np.ones((1, 1)))),
                  r"stage 3: stage map shape \(1, 1\) does not match bases"),
    "not-annihilated": (two_stage_lift(stage2=(np.eye(3)[:, :2], C2, M2)),
                        "stage 2: kernel basis does not span the previous kernel"),
    # b1 is annihilated by the stage 2 map, which vanishes off span{b2, b3}
    "not-nested": (two_stage_lift(stage3=(E1, C3, M3)),
                   "stage 3: kernel basis is not nested in the previous one"),
    # e2 is the image of the stage 2 map
    "meets-image": (two_stage_lift(stage3=(K3, C2[:, [0, 2]], M3)),
                    "stage 3: cokernel embedding meets an earlier image"),
    "zero-map": (two_stage_lift(stage2=(K2, C2, np.zeros((3, 2)))), "stage 2: stage map is zero"),
    "degenerate-final": (two_stage_lift(stage3=None),
                         "final stage map must have full column rank"),
    "non-degenerate-early": (two_stage_lift(stage2=(K2, C2, np.eye(3)[:, :2])),
                             "stage 2: only the final stage map may be non-degenerate"),
}


class TestValidateLift:
    def test_two_stage_lift_is_valid(self):
        lift = two_stage_lift()
        assert validate_lift(lift) is None
        pert = build_from_lift(lift)
        assert isinstance(pert, Perturbation)
        expect = np.zeros((4, 3))
        expect[1, 1], expect[2, 2], expect[3, 2] = 1.0, 1.0, 2.0
        assert np.array_equal(pert.delta, expect)

    @pytest.mark.parametrize("name", BROKEN_LIFTS)
    def test_each_violation_raises_its_own_message(self, name):
        lift, message = BROKEN_LIFTS[name]
        with pytest.raises(InvalidLiftError, match=message):
            validate_lift(lift)
        with pytest.raises(InvalidLiftError, match=message):
            build_from_lift(lift)

    def test_random_lift_with_degenerate_draws_is_valid(self):
        # near tol = 1 a Gaussian 4 x 2 draw is usually cut to rank 1, so the
        # sampler runs its multi-stage branch
        f = np.zeros((4, 2))
        tol = 0.9
        lengths = set()
        for seed in range(8):
            lift = random_lift(f, seed, tol)
            validate_lift(lift, tol)
            lengths.add(lift.length)
            dims = [st.kernel_basis.shape[1] for st in lift.stages]
            assert dims == list(range(2, 2 - len(dims), -1))
        assert 3 in lengths
