"""Command-line front end with JSON input and output.

Subcommand-first syntax; every subcommand reads one problem file (JSON,
``--input PATH`` or ``-`` for stdin) and writes one report (JSON, ``--output
PATH`` or stdout).  Problem files are validated against
``schema/problem.json`` by jsonschema's Draft 7 validator (exit code 2 on
violation, with jsonschema's own message, as on an unreadable input or an
unwritable output); semantic errors such as cycles or shape mismatches exit
with code 3.  Reports validate against
``schema/report.json``.  :func:`main` writes each report's first two keys,
``command`` and ``tol``, and a ``stabilize`` stage's ``mapRank`` is the rank
that :func:`dagstab.stabilise.build_from_lift` validated.  Validation makes
one pass over the entries: an array of plain numbers is checked without a
call per entry.

The file is the one source of settings: ``tol`` (default ``DEFAULT_TOL``),
the lift's seed and the epsilon grid (default ``DEFAULT_EPS_GRID``) come
from its ``settings``.  The library's own checks reject a ``tol`` outside
(0, 1), such as a NaN that passes the schema, and a grid that is not finite,
positive and strictly decreasing; both exit with code 3.

Reports are written by :func:`json.dumps`, two spaces per level.  Each float
is its shortest text that reads back to the same double, so identical input
and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources

import jsonschema
import numpy as np

from . import graph, limits, mle, stabilise, varieties
from .linalg import DEFAULT_TOL, _as_matrix

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_SEMANTIC = 3


class SemanticError(ValueError):
    """Problem file is schema-valid but semantically unusable."""


# ---------------------------------------------------------------------------
# Problem file loading


def load_schema(name: str) -> dict:
    text = resources.files("dagstab").joinpath(f"schema/{name}").read_text()
    return json.loads(text)


# item schemas of plain numbers, with the Python types json.loads gives such a number
_PLAIN_LEAVES = (({"type": "number"}, {int, float}), ({"type": "integer"}, {int}))
_draft7_items = jsonschema.Draft7Validator.VALIDATORS["items"]


def _items(validator, items, instance, schema):
    """Draft 7 ``items``, except that an array under a plain-number item schema
    whose entries all have the plain types is valid without a descent into
    each entry.  All else, every error included, goes through Draft 7's own
    ``items``."""
    for leaf, kinds in _PLAIN_LEAVES:
        if items == leaf and isinstance(instance, list) and set(map(type, instance)) <= kinds:
            return
    yield from _draft7_items(validator, items, instance, schema)


_ProblemValidator = jsonschema.validators.extend(jsonschema.Draft7Validator, {"items": _items})


def _validate_schema(data) -> None:
    jsonschema.validate(instance=data, schema=load_schema("problem.json"), cls=_ProblemValidator)


class Problem:
    """Parsed, semantically validated problem file."""

    def __init__(self, data: dict):
        gdef = data["graph"]
        m = int(gdef["m"])  # the schema's "integer" admits integral floats such as 3.0
        rows = data["sample"]
        # the rows first: building the DAG costs time and memory in proportion to m
        if any(len(r) != m for r in rows):
            raise SemanticError(f"every sample row must have {m} entries")
        self.g = graph.Dag(m, [tuple(e) for e in gdef["edges"]])
        self.sample = _as_matrix(rows, "sample")

        self.perturbation = None
        if "perturbation" in data:
            prows = data["perturbation"]
            if len(prows) != len(rows) or any(len(r) != m for r in prows):
                raise SemanticError("perturbation must have the same shape as the sample")
            self.perturbation = _as_matrix(prows, "perturbation")

        self.alpha = None
        if "alpha" in data:
            self.alpha = self._parse_alpha(data["alpha"])

        settings = data.get("settings", {})
        self.tol = settings.get("tol", DEFAULT_TOL)
        seed = settings.get("seed")
        self.seed = None if seed is None else int(seed)
        if self.seed is not None and not 0 <= self.seed < 2**64:
            raise SemanticError("seed must fit in an unsigned 64-bit integer")
        self.eps_grid = limits._check_grid(settings.get("epsilonGrid", limits.DEFAULT_EPS_GRID))

    def _vertex(self, value, what: str) -> int:
        if not float(value).is_integer():
            raise SemanticError(f"{what} index {value} is not an integer")
        i = int(value)
        if not (1 <= i <= self.g.m):
            raise SemanticError(f"{what} index {i} outside 1..{self.g.m}")
        return i

    def _parse_alpha(self, adef: dict) -> mle.MleEstimate:
        lam = {}
        for triple in adef.get("lambda", []):
            i = self._vertex(triple[0], "alpha lambda child")
            j = self._vertex(triple[1], "alpha lambda parent")
            if not self.g.has_edge(j, i):
                raise SemanticError(f"alpha lambda entry for non-edge {j} -> {i}")
            value = float(triple[2])
            if not math.isfinite(value):
                raise SemanticError(f"alpha lambda entry for {j} -> {i} must be finite")
            lam[(i, j)] = value
        omega = {}
        for pair in adef.get("omega", []):
            i = self._vertex(pair[0], "alpha omega vertex")
            value = float(pair[1])
            if not 0 < value < math.inf:
                raise SemanticError(f"alpha omega at vertex {i} must be positive and finite")
            omega[i] = value
        exists = {i: True for i in omega}
        return mle.MleEstimate(lam=lam, omega=omega, omega_exists=exists)


def _read_input(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    # an integer of 309 characters or more, invalid in every field, may overflow: read a float
    return json.loads(text, parse_int=lambda s: int(s) if len(s) < 309 else float(s))


# ---------------------------------------------------------------------------
# Report fragments


def _lambda_triples(lam: dict) -> list:
    return [[i, j, float(v)] for (i, j), v in sorted(lam.items())]


def _omega_pairs(omega: dict) -> list:
    return [[i, float(v)] for i, v in sorted(omega.items())]


def _vertex_map(d: dict) -> dict:
    return {str(i): d[i] for i in sorted(d)}


def _vertex_vectors(result, g) -> dict:
    out = {}
    for i in g.child_vertices():
        if all((i, j) in result.lam for j in g.parents(i)):
            out[str(i)] = [float(x) for x in result.lambda_vector(g, i)]
    return out


def _maybe_duplicate(problem: Problem) -> tuple[np.ndarray, dict | None]:
    Y = problem.sample
    n, m = Y.shape
    if n >= m:
        return Y, None
    k = -(-m // n)  # ceil
    return mle.duplicate(Y, k), {"k": k}


def _resolve_perturbation(problem: Problem):
    """Explicit perturbation, or one drawn from the seed (with duplication
    when observations are scarce), validated once.  Returns
    (perturbation, dup, lift), the lift ``None`` for an explicit
    perturbation."""
    tol = problem.tol
    if problem.perturbation is not None and problem.seed is not None:
        raise SemanticError("give either a perturbation or a seed, not both")
    if problem.perturbation is not None:
        return stabilise.Perturbation(problem.sample, problem.perturbation, tol), None, None
    if problem.seed is None:
        raise SemanticError("this command needs a perturbation or a seed")
    Y, dup = _maybe_duplicate(problem)
    lift = stabilise.random_lift(Y, problem.seed, tol)
    return stabilise.build_from_lift(lift, tol), dup, lift


# ---------------------------------------------------------------------------
# Commands


def cmd_classify(problem: Problem) -> dict:
    Y, dup = _maybe_duplicate(problem)
    g = problem.g
    status = mle.classify(Y, g, problem.tol)
    transitive = graph.is_transitive(g)
    reg = None
    if transitive:
        r = graph.regime(g, problem.sample.shape[0])
        reg = {"label": r.label, "outcomes": sorted(r.outcomes)}
    return {
        "n": problem.sample.shape[0],
        "m": g.m,
        "duplicated": dup,
        "classification": status.status,
        "gitLabel": status.git_label,
        "witness": status.witness,
        "mlt": graph.mlt(g),
        "depth": graph.depth(g),
        "transitive": transitive,
        "regime": reg,
    }


def cmd_estimate(problem: Problem) -> dict:
    g = problem.g
    est, status = mle._classified_mle(problem.sample, g, problem.tol)
    return {
        "n": problem.sample.shape[0],
        "m": g.m,
        "classification": status.status,
        "gitLabel": status.git_label,
        "witness": status.witness,
        "lambda": _lambda_triples(est.lam),
        "lambdaKernelDims": _vertex_map(est.lambda_kernel_dims),
        "omega": _omega_pairs(est.omega),
        "omegaExists": _vertex_map(est.omega_exists),
    }


def cmd_stabilize(problem: Problem) -> dict:
    pert, dup, lift = _resolve_perturbation(problem)
    stabilised = stabilise.stabilize(None, pert, problem.tol)
    dims = [] if lift is None else [st.kernel_basis.shape[1] for st in lift.stages]
    stages = None if lift is None else [
        {"kernelDim": k, "cokernelDim": st.cokernel_basis.shape[1], "mapRank": k - k_next}
        for st, k, k_next in zip(lift.stages, dims, dims[1:] + [0])
    ]
    return {
        "seed": problem.seed,
        "duplicated": dup,
        "perturbation": pert.delta.tolist(),
        "stabilised": stabilised.tolist(),
        "rank": stabilised.shape[1],  # stabilize asserts full column rank
        "stages": stages,
    }


def cmd_limit(problem: Problem) -> dict:
    g, tol, grid = problem.g, problem.tol, problem.eps_grid
    pert, _, _ = _resolve_perturbation(problem)
    analytic = limits.limit_mle(None, pert, g, tol)
    numeric = limits.limit_mle_numeric(None, pert, g, grid, tol)
    agreement = None
    numeric_map = None
    if not numeric.diverged:
        numeric_map = _vertex_vectors(numeric, g)
        agreement = max(
            (abs(analytic.lam[k] - numeric.lam[k]) for k in analytic.lam), default=0.0
        )
    diagnostics = {
        str(i): {
            "l": d.first_nonzero,
            "cl": float(d.det_coeff),
            "Dl": [float(x) for x in d.numerator],
        }
        for i, d in sorted(analytic.diagnostics.items())
    }
    return {
        "seed": problem.seed,
        "epsilonGrid": [float(e) for e in grid],
        "lambdaLimit": _vertex_vectors(analytic, g),
        "numericLambdaLimit": numeric_map,
        "omegaLimit": _omega_pairs(analytic.omega),
        "omegaExists": _vertex_map(analytic.omega_exists),
        "partial": analytic.partial,
        "diverged": numeric.diverged,
        "divergedVertices": list(numeric.diverged_vertices),
        "agreement": agreement,
        "epsilonIndependent": _vertex_map(analytic.epsilon_independent),
        "diagnostics": diagnostics,
    }


def cmd_check(problem: Problem) -> dict:
    g, tol = problem.g, problem.tol
    pert, _, _ = _resolve_perturbation(problem)
    _, lambda_cond, full_cond = limits._conditions(pert, g, tol)
    alpha_fixed = None
    if problem.alpha is not None:
        alpha_fixed = _vertex_map(limits.check_alpha_fixed(pert, problem.alpha.lam, g, tol))
    return {
        "lambdaCondition": _vertex_map(lambda_cond),
        "fullCondition": _vertex_map(full_cond),
        "alphaFixed": alpha_fixed,
    }


def cmd_membership(problem: Problem) -> dict:
    g = problem.g
    if problem.perturbation is None:
        raise SemanticError("membership queries need an explicit perturbation")
    if problem.alpha is None:
        raise SemanticError("membership queries need alpha")
    query = varieties.VarietyQuery(
        f=problem.sample,
        candidate=problem.perturbation,
        g=g,
        alpha=problem.alpha,
        tol=problem.tol,
    )
    member = varieties.in_Xf(query)
    try:
        in_alpha, alpha_is_mle = varieties.in_Xf_alpha(query), True
    except varieties.AlphaNotMleError:
        in_alpha, alpha_is_mle = None, False
    return {
        "inXf": member,
        "alphaIsMleGivenF": alpha_is_mle,
        "inXfAlpha": in_alpha,
        "inXfAlphaLim": varieties.in_Xf_alpha_lim(query),
    }


COMMANDS = {
    "classify": cmd_classify,
    "estimate": cmd_estimate,
    "stabilize": cmd_stabilize,
    "limit": cmd_limit,
    "check": cmd_check,
    "membership": cmd_membership,
}


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dagstab",
        description="Gaussian DAG model MLEs, sample stabilisations and limit MLEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--input", required=True, help="problem file, or - for stdin")
        p.add_argument("--output", default="stdout", help="report path, or stdout")
    return parser


def dumps_report(report) -> str:
    """Serialise a report, two spaces per level; non-finite numbers raise ``ValueError``."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        data = _read_input(args.input)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        _validate_schema(data)
    except jsonschema.ValidationError as exc:
        print(f"error: problem file violates the schema: {exc.message}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        problem = Problem(data)
        report = COMMANDS[args.command](problem)
    except (SemanticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC
    text = dumps_report({"command": args.command, "tol": problem.tol, **report})
    if args.output == "stdout":
        sys.stdout.write(text)
        return EXIT_OK
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
