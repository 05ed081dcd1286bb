"""Reference per-layer figures at m in {5, 20, 60, 150}.

    python3 perfbench/reference.py

For each size, one sparse DAG (3 parents per vertex) with a square sample
of rank m/2 and lift seed 1 runs through the ``estimate`` operation and the
``limit`` operation under the tracer.  Prints a markdown table of per-call
medians over ``REPS`` repetitions.  The figures are for reading, not gating.
"""

import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import statistics  # noqa: E402

import dagstab  # noqa: E402
import inputs  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

SIZES = (5, 20, 60, 150)
REPS = 5
COLUMNS = (
    ("op ms", lambda s, t: t * 1e3),
    ("classify ms", lambda s, t: s["time"].get("mle.classify", 0) * 1e3),
    ("full_mle ms", lambda s, t: s["time"].get("mle.full_mle", 0) * 1e3),
    ("svd", lambda s, t: s["counts"].get("numpy.linalg.svd", 0)),
    ("lstsq", lambda s, t: s["counts"].get("numpy.linalg.lstsq", 0)),
    ("fact/vertex", lambda s, t: (s["counts"].get("numpy.linalg.svd", 0) + s["counts"].get("numpy.linalg.lstsq", 0))
     / max(1, sum(v for v, _ in s["tags"].get("mle.full_mle", ())))),
    ("linalg self ms", lambda s, t: s["self"].get("linalg", 0) * 1e3),
    ("pencils", lambda s, t: s["calls"].get("linalg.pencil_expand", 0)),
    ("pencil ms", lambda s, t: s["time"].get("linalg.pencil_expand", 0) * 1e3),
    ("lift ms", lambda s, t: s["time"].get("stabilise.random_lift", 0) * 1e3),
    ("analytic ms", lambda s, t: s["time"].get("limits.limit_mle", 0) * 1e3),
    ("numeric ms", lambda s, t: s["time"].get("limits.limit_mle_numeric", 0) * 1e3),
    ("finite scans / input", None),
)


def measure(op, case) -> list:
    g = dagstab.Dag(case.m, case.edges)
    rows = []
    for _ in range(REPS):
        tr = tracer.Tracer()
        tr.install()
        try:
            with tr.span("op"):
                op(case, g, [])
        finally:
            tr.uninstall()
        s = tracer.summarise(tr.data())
        t = s["time"]["op"]
        row = [f(s, t) for _, f in COLUMNS[:-1]]
        row.append(s["counts"].get("numpy.isfinite.entries", 0) / case.sample.size)
        rows.append(row)
    return [statistics.median(col) for col in zip(*rows)]


def main() -> int:
    print("| workload | m | " + " | ".join(name for name, _ in COLUMNS) + " |")
    print("|---" * (len(COLUMNS) + 2) + "|")
    for name, op in (("estimate", worker.run_estimate), ("limit", worker.run_limit)):
        for m in SIZES:
            rng = inputs.np.random.default_rng([1, m])
            case = inputs.Case(f"m{m}", m, inputs.random_edges(m, inputs.SPARSE_INDEGREE, rng),
                               inputs.low_rank_sample(m, m, m // 2, rng), lift_seed=1)
            cells = measure(op, case)
            print(f"| {name} | {m} | " + " | ".join(f"{c:.3g}" for c in cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
