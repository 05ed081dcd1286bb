"""In-process worker of the ``estimate`` and ``limit`` workloads.

Started by ``run.py`` as a fresh interpreter with ``src/`` on the path.  It
builds the inputs from the seed, then runs whole rounds over them, one
operation at a time, until the time is up.  Each operation's wall time,
the host-speed reference time taken just before it (``calibrate``) and its
outcome go to stdout as a pickle, with the full result on the first round
and a digest of it afterwards; ``run.py`` checks them after this process
has ended, so the checks cost this process nothing.

Between operations it pauses ``--probes`` times, spread evenly over the
run, so that ``run.py`` can time a fresh interpreter start with the host to
itself: the worker sends a ``probe`` message and waits for a line on stdin.
Paused time does not count towards ``--seconds``.

With ``--trace 1`` odd rounds run under the tracer and even rounds without
it, so the tracing overhead is measured on the same inputs; the spans are
written to ``--spans`` at the end.
"""

import dagstab  # first, so that ``-X importtime`` charges numpy to the package
from dagstab import limits, mle, stabilise

import argparse
import hashlib
import pickle
import sys
import time

import inputs
from calibrate import Reference
from tracer import Tracer


def _vectors(result, g) -> dict:
    return {
        i: [float(x) for x in result.lambda_vector(g, i)]
        for i in g.child_vertices()
        if all((i, j) in result.lam for j in g.parents(i))
    }


def _estimate_record(out, g) -> dict | None:
    if out is None:
        return None
    status, est = out
    return {
        "status": status.status,
        "witness": status.witness,
        "lam": _vectors(est, g),
        "kdims": dict(est.lambda_kernel_dims),
        "omega": dict(est.omega),
        "exists": dict(est.omega_exists),
    }


def _limit_part(res, g) -> dict | None:
    if res is None:
        return None
    return {
        "lam": _vectors(res, g),
        "omega": dict(res.omega),
        "exists": dict(res.omega_exists),
        "diverged": res.diverged,
    }


def _limit_record(out, g) -> dict:
    pert, analytic, numeric = out
    return {
        "delta": None if pert is None else pert.delta.copy(),
        "analytic": _limit_part(analytic, g),
        "numeric": _limit_part(numeric, g),
    }


def _stage(errors: list, what: str, fn):
    """Run one program call; a raised exception is recorded, not fatal, so
    the remaining stages of the operation still run and are timed."""
    try:
        return fn()
    except Exception as exc:  # the operation's boundary: record and go on
        errors.append(f"{what}: {type(exc).__name__}: {exc}")
        return None


def run_estimate(case, g, errors):
    status = _stage(errors, "classify", lambda: mle.classify(case.sample, g))
    est = _stage(errors, "full_mle", lambda: mle.full_mle(case.sample, g))
    return None if errors else (status, est)


def run_limit(case, g, errors):
    lift = _stage(errors, "random_lift", lambda: stabilise.random_lift(case.sample, case.lift_seed))
    if lift is None:
        return None, None, None
    pert = _stage(errors, "build_from_lift", lambda: stabilise.build_from_lift(lift))
    if pert is None:
        return None, None, None
    analytic = _stage(errors, "limit_mle", lambda: limits.limit_mle(case.sample, pert, g))
    numeric = _stage(errors, "limit_mle_numeric", lambda: limits.limit_mle_numeric(case.sample, pert, g))
    return pert, analytic, numeric


WORKLOADS = {
    "estimate": (inputs.estimate_cases, run_estimate, _estimate_record),
    "limit": (inputs.limit_cases, run_limit, _limit_record),
}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--probes", type=int, default=0)
    args = ap.parse_args()

    make_cases, run_op, to_record = WORKLOADS[args.workload]
    cases = make_cases(args.seed, smoke=args.smoke)
    graphs = [dagstab.Dag(c.m, c.edges) for c in cases]
    out = sys.stdout.buffer
    tracer = Tracer() if args.trace else None
    reference = Reference()

    def send(msg) -> None:
        pickle.dump(msg, out, protocol=pickle.HIGHEST_PROTOCOL)
        out.flush()

    probes, paused = 0, 0.0

    def probe() -> None:
        nonlocal probes, paused
        start = time.perf_counter()
        send(("probe",))
        if not sys.stdin.readline():
            raise SystemExit("run.py closed the probe channel")
        probes += 1
        paused += time.perf_counter() - start

    def active() -> float:
        return time.perf_counter() - t0 - paused

    rounds = 0
    t0 = time.perf_counter()
    while rounds < 2 or (not args.smoke and active() < args.seconds):
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        for idx, (case, g) in enumerate(zip(cases, graphs)):
            if probes < args.probes and active() >= probes * args.seconds / args.probes:
                probe()
            errors: list[str] = []
            ref_s = reference()
            if traced:
                with tracer.span("op"):
                    start = time.perf_counter()
                    result = run_op(case, g, errors)
                    elapsed = time.perf_counter() - start
            else:
                start = time.perf_counter()
                result = run_op(case, g, errors)
                elapsed = time.perf_counter() - start
            record = to_record(result, g)
            digest = hashlib.sha256(pickle.dumps(record)).hexdigest()
            send(("op", idx, case.label, elapsed, ref_s, traced, errors, record if rounds == 0 else None, digest))
        if traced:
            tracer.uninstall()
        rounds += 1
    while probes < args.probes:  # a run shorter than --seconds, as in smoke mode
        probe()
    if tracer is not None:
        tracer.dump(args.spans)
    send(("end", rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
