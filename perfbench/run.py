"""Benchmark of dagstab, run against the checkout's own ``src/``.

    python3 perfbench/run.py --workload {cli,estimate,limit} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Each workload is a closed loop, one operation in flight, cycling a fixed
seeded list of inputs in whole rounds until ``--seconds`` have passed (at
least two rounds).  Every output is checked against ``oracle`` or against
properties the method must have.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics).  Failed
operations and check problems are listed on stderr.  ``--smoke`` runs two
rounds of a small input list with every check on.
"""

import os
import sys

# BLAS is pinned to one thread here and in every child: the matrices are small.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import pickle
import resource
import shutil
import statistics
import subprocess
import threading
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PY = sys.executable

# Fresh interpreter starts timed per untraced run, at even steps of its
# operation time, the first before the first operation.
SETUP_PROBES = 11
CLI_TIMEOUT = 120.0
SHALLOW_MAX_PARENTS = 4
# The stage in which the known-failing ``limit`` inputs raise (README.md).
KNOWN_FAILURE_STAGE = "limit_mle"

WORKLOAD_IMPORT = {"cli": "dagstab.cli", "estimate": "dagstab", "limit": "dagstab"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


ENV = _env()


def setup_time(module: str) -> tuple[float, float]:
    """Seconds from launching a fresh interpreter until ``module`` is
    imported and the interpreter reports ready, and the host's bare
    interpreter start just before (``calibrate.bare_start``)."""
    reference = calibrate.bare_start(PY, ENV, ROOT)
    code = f"import {module}, sys; sys.stdout.write(dagstab.__file__ + '\\n'); sys.stdout.flush()"
    t0 = time.perf_counter()
    proc = subprocess.Popen([PY, "-c", code], stdout=subprocess.PIPE, env=ENV, cwd=ROOT)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=CLI_TIMEOUT) != 0 or not line.decode().startswith(str(SRC)):
        raise RuntimeError(f"importing {module} from {SRC} failed")
    return elapsed, reference


# ---------------------------------------------------------------------------
# Running the workloads


def run_inprocess(args, out_dir: Path, probes: int) -> dict:
    """Run the worker; collect per-operation timings, first-round results
    and the set-up times of the ``probes`` starts it pauses for."""
    spans = out_dir / "spans.pkl"
    cmd = [PY] + (["-X", "importtime"] if args.trace else []) + [
        str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--spans", str(spans),
        "--probes", str(probes),
    ] + (["--smoke"] if args.smoke else [])
    ops, first, setup = [], {}, []
    with open(out_dir / "worker.err", "wb") as err:
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, env=ENV, cwd=ROOT)
        watchdog = threading.Timer(args.seconds + CLI_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            while True:
                msg = pickle.load(proc.stdout)
                if msg[0] == "end":
                    break
                if msg[0] == "probe":
                    setup.append(setup_time(WORKLOAD_IMPORT[args.workload]))
                    proc.stdin.write(b"\n")
                    proc.stdin.flush()
                    continue
                _, idx, label, secs, ref_s, traced, errors, record, digest = msg
                ops.append({"idx": idx, "label": label, "seconds": secs, "reference": ref_s,
                            "traced": traced, "errors": errors, "digest": digest})
                if record is not None or idx not in first:
                    first[idx] = record
        except EOFError:
            raise RuntimeError(f"worker ended early; see {out_dir / 'worker.err'}") from None
        finally:
            proc.stdin.close()
            proc.stdout.close()
            proc.wait()
            watchdog.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}; see {out_dir / 'worker.err'}")
    result = {"ops": ops, "first": first, "setup": setup}
    if args.trace:
        import tracer

        result["summary"] = tracer.summarise(tracer.load(spans))
        result["imports"] = [tracer.parse_importtime((out_dir / "worker.err").read_text())]
    return result


def run_cli(args, cases: list[dict], out_dir: Path, probes: int) -> dict:
    """One ``python -m dagstab.cli`` process per operation, each after a
    bare interpreter start as its host-speed reference, with ``probes``
    set-up starts between operations; their time does not count towards
    ``--seconds``."""
    paths, written = [], {}
    for case in cases:
        key = id(case["problem"])
        if key not in written:
            written[key] = out_dir / f"problem-{len(written)}.json"
            written[key].write_text(json.dumps(case["problem"]))
        paths.append(written[key])
    ops, first, span_files, imports, setup = [], {}, [], [], []
    paused = 0.0

    def probe() -> None:
        nonlocal paused
        start = time.perf_counter()
        setup.append(setup_time(WORKLOAD_IMPORT["cli"]))
        paused += time.perf_counter() - start

    def active() -> float:
        return time.perf_counter() - t0 - paused

    rounds = 0
    t0 = time.perf_counter()
    while rounds < 2 or (not args.smoke and active() < args.seconds):
        traced = bool(args.trace) and rounds % 2 == 1
        for idx, (case, path) in enumerate(zip(cases, paths)):
            if len(setup) < probes and active() >= len(setup) * args.seconds / probes:
                probe()
            tail = [case["command"], "--input", str(path)]
            if traced:
                spans = out_dir / f"spans-{rounds}-{idx}.pkl"
                span_files.append(spans)
                cmd = [PY, "-X", "importtime", str(HERE / "cli_child.py"), str(spans)] + tail
            else:
                cmd = [PY, "-m", "dagstab.cli"] + tail
            errors = []
            reference = calibrate.bare_start(PY, ENV, ROOT)
            start = time.perf_counter()
            try:
                proc = subprocess.run(cmd, capture_output=True, env=ENV, cwd=ROOT, timeout=CLI_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc = None
            secs = time.perf_counter() - start
            if proc is None:
                errors.append(f"timed out after {CLI_TIMEOUT} s")
                stdout = b""
            else:
                stdout = proc.stdout
                if proc.returncode != 0:
                    errors.append(f"exit {proc.returncode}: {proc.stderr.decode()[-500:]}")
                if traced:
                    import tracer

                    imports.append(tracer.parse_importtime(proc.stderr.decode()))
            ops.append({"idx": idx, "label": case["label"], "seconds": secs, "reference": reference, "traced": traced,
                        "errors": errors, "digest": hashlib.sha256(stdout).hexdigest(),
                        "bytes": len(stdout)})
            if idx not in first and not errors:
                first[idx] = json.loads(stdout)
        rounds += 1
    while len(setup) < probes:  # a run shorter than --seconds, as in smoke mode
        probe()
    result = {"ops": ops, "first": first, "setup": setup}
    if args.trace:
        import tracer

        result["summary"] = tracer.merge(tracer.summarise(tracer.load(p)) for p in span_files)
        result["imports"] = imports
    return result


# ---------------------------------------------------------------------------
# Checks


def check_failures(args, run: dict, cases) -> list[str]:
    """Every round must give the same result and the same errors for the
    same input, and exactly the known-failing inputs must fail: in every
    round, and only in ``limit_mle``.  ``cli`` and ``estimate`` have none."""
    known = {c.label for c in cases if c.known_failure} if args.workload == "limit" else set()
    problems, seen = [], {}
    for op in run["ops"]:
        if seen.setdefault(op["idx"], (op["digest"], op["errors"])) != (op["digest"], op["errors"]):
            problems.append(f"{op['label']}: result differs between rounds")
        stages = [e.split(":", 1)[0] for e in op["errors"]]
        if op["label"] in known and stages != [KNOWN_FAILURE_STAGE]:
            problems.append(f"{op['label']}: known failure failed in {stages or 'no stage'}, "
                            f"expected {KNOWN_FAILURE_STAGE} alone")
        elif op["label"] not in known and stages:
            problems.append(f"{op['label']}: failed in {stages}, and is not a known failure")
    return problems


def check(args, run: dict, cases) -> tuple[list[str], dict]:
    """Problems found in the outputs, and the worst limit errors."""
    import checks

    problems, errs = check_failures(args, run, cases), {}
    if args.workload == "cli":
        import jsonschema

        schema = json.loads((ROOT / "schema" / "report.json").read_text())
        validator = jsonschema.Draft7Validator(schema)
        done = sorted(run["first"])
        more, errs = checks.check_cli([cases[i] for i in done], [run["first"][i] for i in done], validator)
        problems += more
    else:
        failed = {op["idx"] for op in run["ops"] if op["errors"]}
        for idx, record in sorted(run["first"].items()):
            case = cases[idx]
            if args.workload == "estimate":
                if idx not in failed:
                    problems += [f"{case.label}: {p}" for p in checks.check_estimate(case, record)]
                continue
            more, e = checks.check_limit(case, record)
            # A failed operation is still held to the parts that completed.
            problems += [f"{case.label}: {p}" for p in more]
            for k, v in e.items():
                if idx not in failed or k == "numeric":
                    errs[k] = max(errs.get(k, 0.0), v)
    return problems, errs


# ---------------------------------------------------------------------------
# Metrics


def rescaled(args, ops: list[dict]) -> list[float]:
    """Operation times rescaled to a fixed reference host speed by the
    reference time taken just before each (see ``calibrate``):
    ``Reference`` for in-process operations, a bare interpreter start for
    CLI calls."""
    reference_s = calibrate.BARE_START_S if args.workload == "cli" else calibrate.REFERENCE_S
    return [op["seconds"] * reference_s / op["reference"] for op in ops]


def end_to_end(args, run: dict, rss_mb: float) -> dict:
    """Rescaled operation times, and set-up times rescaled by the bare
    interpreter start just before each.  The raw figures go to stderr."""
    raw = [op["seconds"] for op in run["ops"]]
    times = rescaled(args, run["ops"])
    setup = [secs * calibrate.BARE_START_S / ref for secs, ref in run["setup"]]
    print(f"raw: op_p50_s {statistics.median(raw):.6g} ops_per_s {len(raw) / sum(raw):.6g} "
          f"setup_s {statistics.median(s for s, _ in run['setup']):.6g}", file=sys.stderr)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "op_p50_s": {"value": statistics.median(times), "unit": "s"},
        "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(args, run: dict, cases, errs: dict) -> dict:
    traced = [op for op in run["ops"] if op["traced"]]
    untraced = [op for op in run["ops"] if not op["traced"]]
    n = len(traced)
    s = run["summary"]

    def time_of(name):
        return s["time"].get(name, 0.0) / n

    def calls_of(name):
        return s["calls"].get(name, 0) / n

    counts = s["counts"]
    imports = run["imports"]
    vertex_evals = sum(t for t, _ in s["tags"].get("mle.full_mle", ()))
    pencils = s["tags"].get("linalg.pencil_expand", ())
    shallow = [d for p, d in pencils if p <= SHALLOW_MAX_PARENTS]
    deep = [d for p, d in pencils if p > SHALLOW_MAX_PARENTS]
    factorisations = counts.get("numpy.linalg.svd", 0) + counts.get("numpy.linalg.lstsq", 0)
    if args.workload == "cli":
        entries = sum(
            sum(len(r) * len(r[0]) for r in (cases[op["idx"]]["problem"]["sample"],
                                            cases[op["idx"]]["problem"].get("perturbation", [[]])))
            for op in traced
        )
    else:
        entries = sum(cases[op["idx"]].sample.size for op in traced)
    values = {
        "cli.import_s": statistics.fmean(i["dagstab"] for i in imports),
        "cli.import_numpy_s": statistics.fmean(i["numpy"] for i in imports),
        "cli.import_jsonschema_s": statistics.fmean(i["jsonschema"] for i in imports),
        "cli.validate_s": time_of("cli.validate"),
        "cli.parse_s": time_of("cli.Problem"),
        "cli.command_s": time_of("cli.command"),
        "cli.serialise_s": time_of("cli.dumps_report"),
        "cli.report_kb": sum(op.get("bytes", 0) for op in traced) / 1024 / n,
        "mle.classify_s": time_of("mle.classify"),
        "mle.full_mle_s": time_of("mle.full_mle"),
        "mle.vertex_evals": vertex_evals / n,
        "linalg.svd_calls": counts.get("numpy.linalg.svd", 0) / n,
        "linalg.lstsq_calls": counts.get("numpy.linalg.lstsq", 0) / n,
        "linalg.factorisations_per_vertex": factorisations / vertex_evals if vertex_evals else 0.0,
        "linalg.self_s": s["self"].get("linalg", 0.0) / n,
        "linalg.pencil_s": time_of("linalg.pencil_expand"),
        "linalg.pencil_calls": calls_of("linalg.pencil_expand"),
        "linalg.pencil_shallow_s": sum(shallow) / n,
        "linalg.pencil_shallow_calls": len(shallow) / n,
        "linalg.pencil_deep_s": sum(deep) / n,
        "linalg.pencil_deep_calls": len(deep) / n,
        "validation.finite_scan_ratio": counts.get("numpy.isfinite.entries", 0) / entries,
        "stabilise.random_lift_s": time_of("stabilise.random_lift"),
        "stabilise.build_s": time_of("stabilise.build_from_lift"),
        "stabilise.perturbation_checks": calls_of("stabilise.is_perturbation"),
        "limits.analytic_s": time_of("limits.limit_mle"),
        "limits.numeric_s": time_of("limits.limit_mle_numeric"),
        "limits.grid_evals": calls_of("limits.mle_at_epsilon"),
        "limits.err_analytic": errs.get("analytic", 0.0),
        "limits.err_numeric": errs.get("numeric", 0.0),
        "varieties.membership_s": time_of("varieties.membership"),
        "trace.overhead": statistics.median(rescaled(args, traced)) / statistics.median(rescaled(args, untraced)) - 1.0,
    }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("cli", "estimate", "limit"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="two rounds of a small input list")
    args = ap.parse_args()
    if not (SRC / "dagstab" / "__init__.py").is_file():
        print(f"error: no dagstab package under {SRC}", file=sys.stderr)
        return 2

    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    sys.path.insert(0, str(HERE))
    import checks
    import inputs

    if args.workload == "cli":
        cases = checks.cli_cases(args.seed, args.smoke)
    elif args.workload == "estimate":
        cases = inputs.estimate_cases(args.seed, args.smoke)
    else:
        cases = inputs.limit_cases(args.seed, args.smoke)

    probes = 0 if args.trace else SETUP_PROBES
    if args.workload == "cli":
        run = run_cli(args, cases, out_dir, probes)
    else:
        run = run_inprocess(args, out_dir, probes)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    problems, errs = check(args, run, cases)
    problems = list(dict.fromkeys(problems))
    failed = [op for op in run["ops"] if op["errors"]]
    for label in sorted({op["label"] for op in failed}):
        example = next(op for op in failed if op["label"] == label)
        print(f"failed: {label}: {example['errors'][0][:300]}", file=sys.stderr)
    for p in problems[:50]:
        print(f"check: {p}", file=sys.stderr)
    rounds = len(run["ops"]) // len(cases)
    print(f"{args.workload}: {rounds} rounds of {len(cases)} operations", file=sys.stderr)

    metrics = per_layer(args, run, cases, errs) if args.trace else end_to_end(args, run, rss_mb)
    result = {"correct": not problems, "attempted": len(run["ops"]), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
