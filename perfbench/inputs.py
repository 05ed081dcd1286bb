"""Seeded inputs for the three workloads.

Every generator takes the benchmark seed and returns the same list, in the
same order, for the same seed.  Structure (sizes, parent counts, sample
ranks) is fixed per workload; the seed only draws which parents each vertex
gets and the sample values, so the work per round does not depend on the
seed.  Only numpy is used here, so the in-process worker can build its own
copy of the inputs without importing anything the program does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Parents per vertex of the sparse DAGs.  Pencils of at most 4 parents count
# as shallow; the deep ones here have 7 to 12.
SPARSE_INDEGREE = 3


@dataclass(frozen=True)
class Case:
    """One input of the in-process workloads.

    ``edges`` are ``(parent, child)`` pairs on vertices ``1..m``;
    ``lift_seed`` is the seed handed to the lift sampler (limit workload
    only); ``known_failure`` marks the fixed deep-pencil inputs on which the
    analytic limit route is known to raise.
    """

    label: str
    m: int
    edges: tuple[tuple[int, int], ...]
    sample: np.ndarray
    lift_seed: int = 0
    known_failure: bool = False


def random_edges(m: int, indegree: int, rng) -> tuple[tuple[int, int], ...]:
    """Vertex ``i`` gets ``min(indegree, i - 1)`` parents drawn from ``1..i-1``."""
    edges = []
    for i in range(2, m + 1):
        k = min(indegree, i - 1)
        for j in sorted(rng.choice(i - 1, size=k, replace=False) + 1):
            edges.append((int(j), i))
    return tuple(edges)


def low_rank_sample(n: int, m: int, r: int, rng) -> np.ndarray:
    """An ``n x m`` sample of rank ``r``: a product of Gaussian factors."""
    return rng.standard_normal((n, r)) @ rng.standard_normal((r, m))


def _rng(seed: int, *stream: int):
    return np.random.default_rng([seed, *stream])


def estimate_cases(seed: int, smoke: bool = False) -> list[Case]:
    """Sparse (3 parents) and dense (m/4 parents) DAGs at m in {20, 60, 150};
    n = m and n = m/2; sample rank n, n/2 and 1.  Then the complete DAG at
    m = 20 with a full-rank sample, which also makes the number of inputs
    odd: with whole rounds, the median operation then lies inside one
    input's times rather than between two inputs'."""
    sizes = (20,) if smoke else (20, 60, 150)
    cases = []
    for m in sizes:
        for density, indegree in (("sparse", SPARSE_INDEGREE), ("dense", m // 4)):
            for n in (m, m // 2):
                for r in (n, n // 2, 1):
                    rng = _rng(seed, 1, len(cases))
                    cases.append(
                        Case(
                            f"m{m}-{density}-n{n}-r{r}",
                            m,
                            random_edges(m, indegree, rng),
                            low_rank_sample(n, m, r, rng),
                        )
                    )
    if not smoke:
        rng = _rng(seed, 1, len(cases))
        cases.append(Case("m20-complete-n20-r20", 20, random_edges(20, 19, rng), low_rank_sample(20, 20, 20, rng)))
    return cases


# Deep-pencil inputs on which limit_mle raises "fails the normal equations":
# the Vandermonde interpolation in linalg.pencil_expand loses every digit.
# They are drawn from a fixed stream, not from the benchmark seed, so the
# same operations fail in every run.  (label, m, parent count, rank, stream)
KNOWN_FAILURES = (
    ("fixed-complete10-r1", 10, 9, 1, 0),
    ("fixed-complete10-r5", 10, 9, 5, 5),
    ("fixed-sparse30-p7-r1", 30, 7, 1, 0),
    ("fixed-deep40-p10-r8", 40, 10, 8, 0),
)
FIXED_SEED = 20231106


def _known_failure(label, m, indegree, r, stream) -> Case:
    rng = _rng(FIXED_SEED, m, indegree, r, stream)
    return Case(
        label,
        m,
        random_edges(m, indegree, rng),
        low_rank_sample(m, m, r, rng),
        lift_seed=FIXED_SEED + stream,
        known_failure=True,
    )


def limit_cases(seed: int, smoke: bool = False) -> list[Case]:
    """Rank-deficient square samples.  Shallow pencils: 3 parents at m in
    {20, 60, 150}, rank m/2 and 1.  Deep pencils: 8, 10 and 12 parents at
    m = 40, rank m/2.  Then the fixed known-failing deep pencils: 13 inputs
    in all, an odd number, as in ``estimate_cases``."""
    if smoke:
        shallow, deep, failing = ((20, 10),), (), KNOWN_FAILURES[:1]
    else:
        shallow = tuple((m, r) for m in (20, 60, 150) for r in (m // 2, 1))
        deep = ((40, 8, 20), (40, 10, 20), (40, 12, 20))
        failing = KNOWN_FAILURES
    plan = [(f"m{m}-p{SPARSE_INDEGREE}-r{r}", m, SPARSE_INDEGREE, r) for m, r in shallow]
    plan += [(f"m{m}-p{k}-r{r}", m, k, r) for m, k, r in deep]
    cases = []
    for idx, (label, m, indegree, r) in enumerate(plan):
        rng = _rng(seed, 2, idx)
        cases.append(
            Case(
                label,
                m,
                random_edges(m, indegree, rng),
                low_rank_sample(m, m, r, rng),
                lift_seed=int(rng.integers(2**32)),
            )
        )
    cases += [_known_failure(*spec) for spec in failing]
    return cases
