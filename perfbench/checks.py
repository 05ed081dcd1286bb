"""Checks of the program's outputs against ``oracle`` and against
properties the method must have.  Each check returns a list of problems;
an empty list means the output passed.

Tolerances: estimates and limits must lie within the repository's 1e-6
bound of the oracle, relative to ``1 + max|reference|``; identities that
hold exactly in the method (normal equations, orthogonality to the kernel)
are checked at 1e-8 at the scale of the data.
"""

from __future__ import annotations

import numpy as np

import inputs
import oracle

BOUND = 1e-6
IDENTITY_TOL = 1e-8


def _close(x, ref) -> bool:
    return abs(x - ref) <= BOUND * (1.0 + abs(ref))


def check_lambda(Y, pa, lam: dict, ref: dict, where: str, min_norm: bool = True) -> list[str]:
    """Edge weights solve the normal equations, match the oracle and, with
    ``min_norm``, are orthogonal to the kernel of the parent columns."""
    out = []
    for i, p in pa.items():
        if not p:
            continue
        if i not in lam:
            out.append(f"{where}: no edge weights at vertex {i}")
            continue
        P = Y[:, [j - 1 for j in p]]
        y = Y[:, i - 1]
        x = np.asarray(lam[i], dtype=float)
        normal = P.T @ (y - P @ x)
        scale = 1.0 + np.linalg.norm(P.T @ y) + np.linalg.norm(P.T @ P) * np.linalg.norm(x)
        if np.linalg.norm(normal) > IDENTITY_TOL * scale:
            out.append(f"{where}: edge weights at vertex {i} fail the normal equations")
        N = oracle.null_space(P) if min_norm else P[:0].T
        if N.shape[1] and np.linalg.norm(N.T @ x) > IDENTITY_TOL * (1.0 + np.linalg.norm(x)):
            out.append(f"{where}: edge weights at vertex {i} are not minimum-norm")
        if oracle.rel_err(x, ref[i]) > BOUND:
            out.append(f"{where}: edge weights at vertex {i} differ from the oracle")
    return out


def check_omega(omega: dict, exists: dict, ref: dict, where: str) -> list[str]:
    out = []
    for i, flag in ref["exists"].items():
        if exists.get(i) != flag:
            out.append(f"{where}: variance existence at vertex {i} is {exists.get(i)}, expected {flag}")
        elif flag and not _close(omega[i], ref["omega"][i]):
            out.append(f"{where}: variance at vertex {i} differs from the oracle")
    return out


def check_estimate(case, rec) -> list[str]:
    Y = case.sample
    pa = oracle.parents(case.edges, case.m)
    status, witness = oracle.classify(Y, pa)
    ref = oracle.mle(Y, pa)
    out = []
    if (rec["status"], rec["witness"]) != (status, witness):
        out.append(f"classified {rec['status']} at {rec['witness']}, expected {status} at {witness}")
    if rec["kdims"] != ref["kdims"]:
        out.append("kernel dimensions differ from the oracle")
    out += check_lambda(Y, pa, rec["lam"], ref["lam"], "estimate")
    out += check_omega(rec["omega"], rec["exists"], ref, "estimate")
    return out


def limit_reference(F, D, pa) -> dict:
    """Oracle limit of the MLE along ``F + eps D``: nullspace-method edge
    weights, and variances ``|b - A lam|^2 / n`` where ``b`` is outside the
    span of its parents."""
    lam = oracle.limit_lambda(F, D, pa)
    n = F.shape[0]
    exists, omega = {}, {}
    for i, p in pa.items():
        A = F[:, [j - 1 for j in p]]
        b = F[:, i - 1]
        exists[i] = not oracle.in_span(b, A)
        if exists[i]:
            r = b - A @ lam[i] if p else b
            omega[i] = float(r @ r) / n
    return {"lam": lam, "omega": omega, "exists": exists}


def check_limit_parts(F, pa, ref, analytic, numeric, where: str) -> tuple[list[str], dict]:
    """Both limit routes against the oracle and each other.  Returns the
    problems and the worst relative errors of each route."""
    out, errs = [], {}
    for name, part in (("analytic", analytic), ("numeric", numeric)):
        if part is None:
            continue
        if part["diverged"]:
            out.append(f"{where}: {name} limit diverged")
            continue
        errs[name] = max(
            (oracle.rel_err(part["lam"].get(i, ()), x) for i, x in ref["lam"].items()), default=0.0
        )
        # The limit solves the normal equations of F but is not, in general,
        # their minimum-norm solution.
        out += check_lambda(F, pa, part["lam"], ref["lam"], f"{where} {name}", min_norm=False)
        if "omega" in part:
            out += check_omega(part["omega"], part["exists"], ref, f"{where} {name}")
    if len(errs) == 2:
        gap = max(
            (oracle.rel_err(analytic["lam"][i], numeric["lam"].get(i, ())) for i in analytic["lam"]),
            default=0.0,
        )
        if gap > BOUND:
            out.append(f"{where}: analytic and numeric limits differ by {gap:.3g}")
    return out, errs


def check_limit(case, rec) -> tuple[list[str], dict]:
    if rec["delta"] is None:
        return [], {}
    F, D = case.sample, rec["delta"]
    pa = oracle.parents(case.edges, case.m)
    out = [f"lift: {f}" for f in oracle.perturbation_failures(F, D)]
    more, errs = check_limit_parts(F, pa, limit_reference(F, D, pa), rec["analytic"], rec["numeric"], "limit")
    return out + more, errs


# ---------------------------------------------------------------------------
# cli workload

CLI_SIZES = (20, 150)
STAR_M = 6
STAR_RANK = 3


def _star_problem(seed: int) -> tuple[dict, np.ndarray, np.ndarray, dict]:
    """A star graph (hub ``STAR_M``) whose parent columns are rank
    deficient while the hub column lies outside their span, a perturbation
    of it, and the oracle's minimum-norm MLE."""
    rng = np.random.default_rng([seed, 3])
    m = STAR_M
    X = inputs.low_rank_sample(m, m - 1, STAR_RANK, rng)
    F = np.column_stack([X, rng.standard_normal(m)])
    pa = {i: [] for i in range(1, m)}
    pa[m] = list(range(1, m))
    ref = oracle.mle(F, pa)
    D = oracle.random_perturbation(F, rng)
    return {"m": m, "edges": [[j, m] for j in range(1, m)]}, F, D, ref


def _alpha(lam: np.ndarray, ref: dict, m: int) -> dict:
    return {
        "lambda": [[m, j, float(v)] for j, v in enumerate(lam, start=1)],
        "omega": [[i, ref["omega"][i]] for i in range(1, m + 1)],
    }


def cli_cases(seed: int, smoke: bool = False) -> list[dict]:
    """The CLI calls of one round: five subcommands on one problem per size
    (sparse DAG, square sample of rank m/2, lift seed in the settings), then
    three membership queries on a star graph: a perturbation with the
    minimum-norm alpha (inside every variety), the same perturbation with an
    alpha moved along the kernel (an MLE, but outside both alpha-indexed
    varieties), and a matrix that is not a perturbation."""
    cases = []
    for k, m in enumerate(CLI_SIZES[:1] if smoke else CLI_SIZES):
        rng = np.random.default_rng([seed, 4, k])
        edges = inputs.random_edges(m, inputs.SPARSE_INDEGREE, rng)
        Y = inputs.low_rank_sample(m, m, m // 2, rng)
        problem = {
            "graph": {"m": m, "edges": [list(e) for e in edges]},
            "sample": Y.tolist(),
            "settings": {"seed": int(rng.integers(2**32))},
        }
        for command in ("classify", "estimate", "stabilize", "limit", "check"):
            cases.append({"label": f"{command}-m{m}", "command": command, "problem": problem,
                          "sample": Y, "edges": edges, "m": m})
    graph, F, D, ref = _star_problem(seed)
    m = STAR_M
    lam = ref["lam"][m]
    kernel = oracle.null_space(F[:, : m - 1])[:, 0]
    queries = (
        ("inside", D, lam, {"inXf": True, "alphaIsMleGivenF": True, "inXfAlpha": True, "inXfAlphaLim": True}),
        ("moved-alpha", D, lam + kernel, {"inXf": True, "alphaIsMleGivenF": True, "inXfAlpha": False, "inXfAlphaLim": False}),
        ("not-perturbation", D + F, lam, {"inXf": False, "alphaIsMleGivenF": True, "inXfAlpha": False, "inXfAlphaLim": False}),
    )
    for name, cand, alpha, expect in queries[:1] if smoke else queries:
        problem = {"graph": graph, "sample": F.tolist(), "perturbation": cand.tolist(), "alpha": _alpha(alpha, ref, m)}
        cases.append({"label": f"membership-star{m}-{name}", "command": "membership", "problem": problem,
                      "expect": expect})
    return cases


def check_cli(cases: list[dict], reports: list[dict], validator) -> tuple[list[str], dict]:
    """Check every report against the report schema, the oracle and the
    membership expectations.  ``limit`` and ``check`` reports are checked
    with the perturbation from the ``stabilize`` report of the same problem
    and seed."""
    problems, errs = [], {}
    perturbation = {}
    for case, rep in zip(cases, reports):
        where = case["label"]
        problems += [f"{where}: schema: {e.message}" for e in validator.iter_errors(rep)]
        command = case["command"]
        if command == "membership":
            got = {k: rep.get(k) for k in case["expect"]}
            if got != case["expect"]:
                problems.append(f"{where}: answered {got}, expected {case['expect']}")
            continue
        Y, m = case["sample"], case["m"]
        pa = oracle.parents(case["edges"], m)
        if command == "classify":
            status, witness = oracle.classify(Y, pa)
            if (rep["classification"], rep["witness"]) != (status, witness):
                problems.append(f"{where}: {rep['classification']} at {rep['witness']}, expected {status} at {witness}")
        elif command == "estimate":
            ref = oracle.mle(Y, pa)
            lam = {i: [] for i in pa if pa[i]}
            for i, _, v in rep["lambda"]:
                lam[int(i)].append(v)
            omega = {int(i): v for i, v in rep["omega"]}
            exists = {int(i): v for i, v in rep["omegaExists"].items()}
            kdims = {int(i): v for i, v in rep["lambdaKernelDims"].items()}
            if kdims != ref["kdims"]:
                problems.append(f"{where}: kernel dimensions differ from the oracle")
            problems += check_lambda(Y, pa, lam, ref["lam"], where)
            problems += check_omega(omega, exists, ref, where)
        elif command == "stabilize":
            D = np.array(rep["perturbation"])
            perturbation[m] = D
            problems += [f"{where}: {f}" for f in oracle.perturbation_failures(Y, D)]
            if np.max(np.abs(np.array(rep["stabilised"]) - (Y + D))) > 1e-12 * (1.0 + np.max(np.abs(Y))):
                problems.append(f"{where}: stabilised sample is not f + f'")
            if rep["rank"] != m:
                problems.append(f"{where}: stabilised rank {rep['rank']} != {m}")
        elif command == "limit":
            D = perturbation[m]
            ref = limit_reference(Y, D, pa)
            analytic = {
                "lam": {int(i): v for i, v in rep["lambdaLimit"].items()},
                "omega": {int(i): v for i, v in rep["omegaLimit"]},
                "exists": {int(i): v for i, v in rep["omegaExists"].items()},
                "diverged": False,
            }
            numeric = {
                "lam": {int(i): v for i, v in (rep["numericLambdaLimit"] or {}).items()},
                "diverged": rep["diverged"],
            }
            more, e = check_limit_parts(Y, pa, ref, analytic, numeric, where)
            problems += more
            for k, v in e.items():
                errs[k] = max(errs.get(k, 0.0), v)
            if rep["agreement"] is None or rep["agreement"] >= BOUND:
                problems.append(f"{where}: reported agreement {rep['agreement']}")
        elif command == "check":
            D = perturbation[m]
            for key, fn in (("lambdaCondition", oracle.lambda_condition), ("fullCondition", oracle.full_condition)):
                want = {str(i): v for i, v in fn(Y, D, pa).items()}
                if rep[key] != want:
                    problems.append(f"{where}: {key} differs from the oracle")
    return problems, errs

