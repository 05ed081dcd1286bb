import contextlib
import io
import json
import math
import re
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dagstab import cli, graph
from dagstab.cli import EXIT_OK, EXIT_SCHEMA, EXIT_SEMANTIC, dumps_report, load_schema, main
from dagstab.linalg import DEFAULT_TOL

REPORT_SCHEMA = load_schema("report.json")


def run_cli(tmp_path, problem: dict, command: str):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem))
    out = tmp_path / "report.json"
    code = main([command, "--input", str(path), "--output", str(out)])
    report = json.loads(out.read_text()) if code == EXIT_OK else None
    return code, report


def collider_problem(sample, **kw):
    problem = {
        "graph": {"m": 3, "edges": [[1, 3], [2, 3]]},
        "sample": sample,
    }
    problem.update(kw)
    return problem


Y_DEP = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
Y_ID = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

# columns (1,0,..), (1,1,0,..), (2,1,0,..) with forced perturbation (-e3,-e3,e3)
LINE_SAMPLE = [
    [1.0, 1.0, 2.0],
    [0.0, 1.0, 1.0],
    [0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0],
]
LINE_PERT = [
    [0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0],
    [-1.0, -1.0, 1.0],
    [0.0, 0.0, 0.0],
]


def assert_valid_report(report):
    jsonschema.validate(instance=report, schema=REPORT_SCHEMA)


class TestClassify:
    def test_dependent_sample(self, tmp_path):
        code, report = run_cli(tmp_path, collider_problem(Y_DEP), "classify")
        assert code == EXIT_OK
        assert_valid_report(report)
        assert report["classification"] == "nonexistent"
        assert report["gitLabel"] == "unstable"
        assert report["witness"] == 3
        assert report["duplicated"] == {"k": 2}  # n=2 < m=3
        assert report["mlt"] == 3 and report["depth"] == 1

    def test_identity_sample(self, tmp_path):
        code, report = run_cli(tmp_path, collider_problem(Y_ID), "classify")
        assert code == EXIT_OK
        assert_valid_report(report)
        assert report["classification"] == "exists-unique"
        assert report["duplicated"] is None
        assert report["regime"]["label"] == "above-with-colliders"

    def test_regime_of_the_given_sample_count(self, tmp_path):
        # the sample is duplicated to n >= m for the fit; the regime is for n = 2
        code, report = run_cli(tmp_path, collider_problem(Y_DEP), "classify")
        assert code == EXIT_OK
        assert report["n"] == 2 and report["duplicated"] == {"k": 2}
        assert report["regime"]["label"] == "between"
        complete = {
            "graph": {"m": 4, "edges": [[j, i] for i in range(2, 5) for j in range(1, i)]},
            "sample": [[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 3.0, 1.0]],
        }
        code, report = run_cli(tmp_path, complete, "classify")
        assert code == EXIT_OK
        assert_valid_report(report)
        assert report["n"] == 2 and report["duplicated"] == {"k": 2}
        assert report["regime"]["label"] == "below-depth"

    def test_single_observation_star(self, tmp_path):
        problem = {
            "graph": {"m": 3, "edges": [[1, 3], [2, 3]]},
            "sample": [[1.0, 2.0, 3.0]],
        }
        code, report = run_cli(tmp_path, problem, "classify")
        assert code == EXIT_OK
        assert report["duplicated"] == {"k": 3}

    def test_non_transitive_regime_omitted(self, tmp_path):
        problem = {
            "graph": {"m": 3, "edges": [[1, 2], [2, 3]]},
            "sample": Y_ID,
        }
        code, report = run_cli(tmp_path, problem, "classify")
        assert code == EXIT_OK
        assert_valid_report(report)
        assert report["transitive"] is False and report["regime"] is None


class TestEstimate:
    def test_values(self, tmp_path):
        code, report = run_cli(tmp_path, collider_problem(Y_DEP), "estimate")
        assert code == EXIT_OK
        assert_valid_report(report)
        lam = {(int(i), int(j)): v for i, j, v in report["lambda"]}
        assert lam[(3, 1)] == pytest.approx(1.0) and lam[(3, 2)] == pytest.approx(1.0)
        omega = {int(i): v for i, v in report["omega"]}
        assert omega == {1: pytest.approx(0.5), 2: pytest.approx(0.5)}
        assert report["omegaExists"]["3"] is False


class TestStabilize:
    def test_seeded_structure(self, tmp_path):
        f = [
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
        problem = {"graph": {"m": 3, "edges": [[1, 3], [2, 3]]}, "sample": f,
                   "settings": {"seed": 7}}
        code, report = run_cli(tmp_path, problem, "stabilize")
        assert code == EXIT_OK
        assert_valid_report(report)
        pert = np.array(report["perturbation"])
        assert np.allclose(pert[:, :2], 0.0)  # only the kernel column moves
        assert np.allclose(pert[:2, :], 0.0)  # support inside coordinates 3..4
        assert np.any(pert[2:, 2] != 0.0)
        assert report["rank"] == 3
        assert report["stages"] == [{"kernelDim": 1, "cokernelDim": 2, "mapRank": 1}]

    def test_deterministic_bytes(self, tmp_path):
        problem = collider_problem(Y_DEP, settings={"seed": 11})
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem))
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(["stabilize", "--input", str(path), "--output", str(out)])
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_explicit_perturbation(self, tmp_path):
        problem = collider_problem(LINE_SAMPLE, perturbation=LINE_PERT)
        code, report = run_cli(tmp_path, problem, "stabilize")
        assert code == EXIT_OK
        assert report["stages"] is None and report["seed"] is None
        assert report["rank"] == 3

    def test_requires_seed_or_perturbation(self, tmp_path):
        code, _ = run_cli(tmp_path, collider_problem(Y_DEP), "stabilize")
        assert code == EXIT_SEMANTIC

    def test_rejects_both_seed_and_perturbation(self, tmp_path):
        problem = collider_problem(LINE_SAMPLE, perturbation=LINE_PERT, settings={"seed": 1})
        code, _ = run_cli(tmp_path, problem, "stabilize")
        assert code == EXIT_SEMANTIC

    def test_rejects_tol_of_one_or_more(self, tmp_path):
        # at tol >= 1 the lift sampler would never terminate
        path = tmp_path / "p.json"
        path.write_text(json.dumps(collider_problem(Y_DEP, settings={"tol": 1.5, "seed": 7})))
        proc = subprocess.run(
            [sys.executable, "-m", "dagstab.cli", "stabilize", "--input", str(path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_SCHEMA
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and "maximum of 1" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestLimit:
    def test_overflowing_determinant_is_one_error_line(self, tmp_path):
        # a full-rank collider sample at 1e80, which estimate handles: the
        # analytic limit's det(A^T A) overflows, under -W error too
        sample = (1e80 * np.random.default_rng(7).standard_normal((6, 3))).tolist()
        path = tmp_path / "p.json"
        path.write_text(json.dumps(collider_problem(sample, settings={"seed": 7})))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "dagstab.cli", "limit", "--input", str(path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_SEMANTIC
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: all determinant coefficients vanish; input is numerically invalid\n"
        )

    def test_dependent_line(self, tmp_path):
        problem = collider_problem(LINE_SAMPLE, perturbation=LINE_PERT)
        code, report = run_cli(tmp_path, problem, "limit")
        assert code == EXIT_OK
        assert_valid_report(report)
        assert report["lambdaLimit"]["3"] == pytest.approx([1.0, 1.0], abs=1e-10)
        assert report["agreement"] is not None and report["agreement"] < 1e-6
        assert report["diverged"] is False
        assert report["omegaExists"]["3"] is False and report["partial"] is True
        assert report["diagnostics"]["3"]["l"] == 0

    def test_eps_grid_setting(self, tmp_path):
        settings = {"epsilonGrid": [1e-1, 1e-2, 1e-3, 1e-4]}
        problem = collider_problem(LINE_SAMPLE, perturbation=LINE_PERT, settings=settings)
        code, report = run_cli(tmp_path, problem, "limit")
        assert code == EXIT_OK
        assert report["epsilonGrid"] == [0.1, 0.01, 0.001, 0.0001]

    def test_bad_eps_grid(self, tmp_path):
        settings = {"epsilonGrid": [1e-3, 1e-2]}
        problem = collider_problem(LINE_SAMPLE, perturbation=LINE_PERT, settings=settings)
        code, _ = run_cli(tmp_path, problem, "limit")
        assert code == EXIT_SEMANTIC

    def test_seed_driven_with_duplication(self, tmp_path):
        # two observations of three variables: the seed path duplicates the
        # sample before drawing a lift, then both limit routes run
        problem = collider_problem(Y_DEP, settings={"seed": 5})
        code, report = run_cli(tmp_path, problem, "limit")
        assert code == EXIT_OK
        assert_valid_report(report)
        assert report["seed"] == 5
        assert report["agreement"] is not None and report["agreement"] < 1e-6
        # the dependent sample has no variance MLE at the hub
        assert report["omegaExists"]["3"] is False and report["partial"] is True
        assert report["lambdaLimit"]["3"] == pytest.approx([1.0, 1.0], abs=1e-8)


class TestCheck:
    def test_conditions_on_line_instance(self, tmp_path):
        problem = collider_problem(LINE_SAMPLE, perturbation=LINE_PERT)
        code, report = run_cli(tmp_path, problem, "check")
        assert code == EXIT_OK
        assert_valid_report(report)
        assert report["lambdaCondition"]["3"] is False
        assert report["fullCondition"]["3"] is False
        assert report["alphaFixed"] is None

    def test_alpha_fixed_reported(self, tmp_path):
        problem = collider_problem(
            LINE_SAMPLE,
            perturbation=LINE_PERT,
            alpha={"lambda": [[3, 1, 1.0], [3, 2, 1.0]]},
        )
        code, report = run_cli(tmp_path, problem, "check")
        assert code == EXIT_OK
        assert report["alphaFixed"]["3"] is False


class TestMembership:
    def make_problem(self, b_shift=0.0):
        rng = np.random.default_rng(40)
        f = np.zeros((5, 3))
        f[0, 0] = 1.0
        v2 = np.concatenate([[0.0], rng.standard_normal(4)])
        v3 = np.concatenate([[0.0], rng.standard_normal(4)])
        fp = np.column_stack([np.zeros(5), v2, v3])
        b = float(v2 @ v3 / (v2 @ v2)) + b_shift
        return collider_problem(
            f.tolist(),
            perturbation=fp.tolist(),
            alpha={"lambda": [[3, 1, 0.0], [3, 2, b]]},
        )

    def test_limit_variety_membership(self, tmp_path):
        code, report = run_cli(tmp_path, self.make_problem(), "membership")
        assert code == EXIT_OK
        assert_valid_report(report)
        assert report["inXf"] is True
        assert report["inXfAlphaLim"] is True
        # no MLE exists given this sample, so the exact-alpha predicate is
        # reported as undecidable rather than erroring
        assert report["alphaIsMleGivenF"] is False
        assert report["inXfAlpha"] is None

    @pytest.mark.parametrize("command", ["check", "membership"])
    def test_huge_alpha_is_rejected_without_a_warning(self, tmp_path, command):
        # 1e308 weights overflowed P L^T and the weight norm, under -W error
        # a RuntimeWarning traceback, and membership accepted them
        alpha = {"lambda": [[3, 1, 1e308], [3, 2, 1e308]]}
        path = tmp_path / "p.json"
        problem = collider_problem(LINE_SAMPLE, perturbation=LINE_PERT, alpha=alpha)
        path.write_text(json.dumps(problem))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "dagstab.cli", command, "--input", str(path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        report = json.loads(proc.stdout)
        if command == "check":
            assert report["alphaFixed"] == {"3": False}
        else:
            assert report["alphaIsMleGivenF"] is False and report["inXfAlphaLim"] is False

    def test_limit_variety_rejects_wrong_ratio(self, tmp_path):
        code, report = run_cli(tmp_path, self.make_problem(0.01), "membership")
        assert code == EXIT_OK
        assert report["inXfAlphaLim"] is False

    def test_requires_alpha(self, tmp_path):
        problem = collider_problem(LINE_SAMPLE, perturbation=LINE_PERT)
        code, _ = run_cli(tmp_path, problem, "membership")
        assert code == EXIT_SEMANTIC

    def test_alpha_missing_a_weight_exits_semantic(self, tmp_path, capsys):
        problem = self.make_problem()
        problem["alpha"]["lambda"] = problem["alpha"]["lambda"][1:]  # drops 1 -> 3
        code, _ = run_cli(tmp_path, problem, "membership")
        assert code == EXIT_SEMANTIC
        err = capsys.readouterr().err
        assert err == "error: alpha is missing edge weights at vertex 3\n"


class TestErrorHandling:
    def test_schema_violation_missing_sample(self, tmp_path):
        code, _ = run_cli(tmp_path, {"graph": {"m": 2, "edges": []}}, "classify")
        assert code == EXIT_SCHEMA

    def test_schema_violation_bad_edge(self, tmp_path):
        problem = {"graph": {"m": 2, "edges": [[1]]}, "sample": [[1.0, 2.0]]}
        code, _ = run_cli(tmp_path, problem, "classify")
        assert code == EXIT_SCHEMA

    @pytest.mark.parametrize(
        "flag,value", [("--tol", "1e-9"), ("--seed", "7"), ("--eps-grid", "1e-1,1e-2")]
    )
    def test_settings_come_from_the_file_only(self, tmp_path, capsys, flag, value):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(collider_problem(Y_ID)))
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--input", str(path), flag, value])
        assert exc.value.code == EXIT_SCHEMA
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_help_lists_only_input_and_output(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == EXIT_OK
        assert set(re.findall(r"--[\w-]+", capsys.readouterr().out)) == {
            "--help", "--input", "--output"
        }

    def test_unparseable_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["classify", "--input", str(path)]) == EXIT_SCHEMA

    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_unwritable_output(self, tmp_path, capsys, where):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(collider_problem(Y_ID)))
        out = tmp_path / "missing" / "r.json" if where == "missing-dir" else tmp_path
        assert main(["estimate", "--input", str(path), "--output", str(out)]) == EXIT_SCHEMA
        stdout, err = capsys.readouterr()
        assert stdout == "" and err.startswith("error: cannot write output:")
        assert err.count("\n") == 1

    def test_semantic_cycle(self, tmp_path):
        problem = {
            "graph": {"m": 2, "edges": [[1, 2], [2, 1]]},
            "sample": [[1.0, 2.0]],
        }
        code, _ = run_cli(tmp_path, problem, "classify")
        assert code == EXIT_SEMANTIC

    def test_semantic_ragged_rows(self, tmp_path):
        problem = {"graph": {"m": 3, "edges": []}, "sample": [[1.0, 2.0]]}
        code, _ = run_cli(tmp_path, problem, "classify")
        assert code == EXIT_SEMANTIC

    def test_rows_checked_before_the_dag_is_built(self, tmp_path, capsys, monkeypatch):
        # building the DAG costs time and memory in proportion to m
        def no_dag(*args, **kwargs):
            raise AssertionError("the DAG was built before the sample rows were checked")

        monkeypatch.setattr(graph, "Dag", no_dag)
        problem = {"graph": {"m": 300000, "edges": []}, "sample": [[1.0]]}
        code, _ = run_cli(tmp_path, problem, "classify")
        assert code == EXIT_SEMANTIC
        assert capsys.readouterr().err == "error: every sample row must have 300000 entries\n"

    def test_semantic_alpha_non_edge(self, tmp_path):
        problem = collider_problem(Y_ID, alpha={"lambda": [[2, 1, 0.5]]})
        code, _ = run_cli(tmp_path, problem, "estimate")
        assert code == EXIT_SEMANTIC

    def test_wide_sample_with_explicit_perturbation(self, tmp_path):
        problem = collider_problem(
            [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
            perturbation=[[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        )
        code, _ = run_cli(tmp_path, problem, "check")
        assert code == EXIT_SEMANTIC


class TestIntegralFloats:
    """The schema's "integer" admits JSON numbers such as 3.0; they must
    give the same report as 3."""

    @pytest.mark.parametrize("command", ["classify", "estimate", "stabilize", "limit", "check"])
    def test_same_report_as_the_integer(self, tmp_path, command):
        reports = []
        for m, seed in ((3, 7), (3.0, 7.0)):
            problem = {"graph": {"m": m, "edges": [[1, 3], [2, 3]]}, "sample": Y_DEP,
                       "settings": {"seed": seed}}
            path = tmp_path / "p.json"
            path.write_text(json.dumps(problem))
            out = tmp_path / "r.json"
            assert main([command, "--input", str(path), "--output", str(out)]) == EXIT_OK
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


class TestSerialisation:
    def test_all_reports_validate_and_roundtrip(self, tmp_path):
        problems = {
            "classify": collider_problem(Y_ID),
            "estimate": collider_problem(Y_DEP),
            "stabilize": collider_problem(LINE_SAMPLE, perturbation=LINE_PERT),
            "limit": collider_problem(LINE_SAMPLE, perturbation=LINE_PERT),
            "check": collider_problem(LINE_SAMPLE, perturbation=LINE_PERT),
            "membership": collider_problem(
                LINE_SAMPLE,
                perturbation=LINE_PERT,
                alpha={"lambda": [[3, 1, 1.0], [3, 2, 1.0]]},
            ),
        }
        for command, problem in problems.items():
            code, report = run_cli(tmp_path, problem, command)
            assert code == EXIT_OK, command
            assert_valid_report(report)

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize(
        "settings,tol", [({"tol": 1e-8}, 1e-8), ({}, DEFAULT_TOL)], ids=["file", "default"]
    )
    def test_envelope_first(self, tmp_path, command, settings, tol):
        problem = collider_problem(
            LINE_SAMPLE,
            perturbation=LINE_PERT,
            alpha={"lambda": [[3, 1, 1.0], [3, 2, 1.0]]},
            settings=settings,
        )
        code, report = run_cli(tmp_path, problem, command)
        assert code == EXIT_OK
        assert list(report)[:2] == ["command", "tol"]
        assert report["command"] == command and report["tol"] == tol

    def test_shortest_round_trip_floats(self, tmp_path):
        problem = collider_problem([[1.0, 0.0, 1 / 3], [0.0, 1.0, 0.123456789012345678]])
        path = tmp_path / "p.json"
        path.write_text(json.dumps(problem))
        out = tmp_path / "r.json"
        assert main(["estimate", "--input", str(path), "--output", str(out)]) == EXIT_OK
        text = out.read_text()
        # each float is its shortest text that reads back to the same double
        assert "      0.3333333333333333\n" in text and "0.33333333333333331" not in text
        assert "      0.12345678901234568\n" in text
        assert json.loads(text)["lambda"][0][2] == 1 / 3

    def test_stdin_and_stdout(self, tmp_path, capsys, monkeypatch):
        import io

        problem = collider_problem(Y_ID)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(problem)))
        assert main(["classify", "--input", "-"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["classification"] == "exists-unique"


def test_console_entry_point(tmp_path):
    problem = collider_problem(Y_ID)
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    proc = subprocess.run(
        [sys.executable, "-m", "dagstab.cli", "classify", "--input", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["classification"] == "exists-unique"


def test_repo_schemas_match_packaged_schemas():
    # the root schema/, which the benchmark reads, links to the packaged tree
    from pathlib import Path

    repo_root = Path(__file__).resolve().parents[1]
    packaged = repo_root / "src" / "dagstab" / "schema"
    for name in ("problem.json", "report.json"):
        assert (repo_root / "schema" / name).resolve() == (packaged / name).resolve()
        assert load_schema(name) == json.loads((packaged / name).read_text())


# ---------------------------------------------------------------------------
# The validator against plain Draft 7, on valid documents and mutations of them

PROBLEM_SCHEMA = load_schema("problem.json")
BIG_M = 150
BIG_SAMPLE = np.random.default_rng(0).standard_normal((BIG_M, BIG_M)).round(6).tolist()
# every kind of entry a document may carry where a number belongs
MUTANTS = [True, False, None, "1.0", [1.0], [], {}, 3.0, 2.5, 3, 0, -1e-3, -2, math.nan, math.inf]
MUTATION_SITES = ["sample", "perturbation", "row", "edge", "epsilon", "alpha", "m", "tol"]
DEEP_MUTATIONS = [
    ("sample", True), ("sample", "1.0"), ("sample", None), ("sample", [1.0]), ("sample", {}),
    ("sample", 3), ("sample", math.nan), ("perturbation", False), ("perturbation", "x"),
    ("row", []), ("row", 3.0), ("edge", 3.0), ("edge", 2.5), ("edge", 0), ("edge", True),
    ("epsilon", 0), ("epsilon", -1e-3), ("alpha", True), ("m", 2.5), ("tol", 1),
]


def _best_error(validator_cls, doc):
    error = jsonschema.exceptions.best_match(validator_cls(PROBLEM_SCHEMA).iter_errors(doc))
    return None if error is None else (error.message, list(error.path), list(error.schema_path))


def _document(m, sample, perturbation=False, alpha=False, settings_=False):
    doc = {"graph": {"m": m, "edges": [[j, j + 1] for j in range(1, min(m, 4))]}, "sample": sample}
    if perturbation:
        doc["perturbation"] = [list(row) for row in sample]
    if alpha:
        doc["alpha"] = {"lambda": [[2, 1, 0.5]], "omega": [[1, 1.0]]}
    if settings_:
        doc["settings"] = {"tol": 1e-10, "seed": 3, "epsilonGrid": [0.1, 0.01]}
    return doc


def _mutate(doc, site, value, row, col):
    """Put ``value`` at ``site``; ``row`` and ``col`` pick the entry, modulo the sizes."""
    sample = doc["sample"]
    row %= len(sample)
    if site == "sample":
        sample[row] = list(sample[row])
        sample[row][col % len(sample[row])] = value
    elif site == "perturbation":
        pert = doc.setdefault("perturbation", [list(r) for r in sample])
        pert[row] = list(pert[row])
        pert[row][col % len(pert[row])] = value
    elif site == "row":
        sample[row] = value
    elif site == "edge":
        doc["graph"]["edges"].append([value, 1] if col % 2 else [1, value])
    elif site == "epsilon":
        doc.setdefault("settings", {})["epsilonGrid"] = [0.1, value]
    elif site == "alpha":
        doc["alpha"] = {"lambda": [[2, 1, value]]} if col % 2 else {"omega": [[value, 1.0]]}
    elif site == "m":
        doc["graph"]["m"] = value
    else:
        doc.setdefault("settings", {})["tol"] = value
    return doc


def assert_validates_like_draft7(tmp_path, doc):
    """Same verdict, message, path and schema path as plain Draft 7; an
    invalid document makes ``main`` exit 2 with that message."""
    ref = _best_error(jsonschema.Draft7Validator, doc)
    assert _best_error(cli._ProblemValidator, doc) == ref
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", "--input", str(path)])
    out, err = out.getvalue(), err.getvalue()
    if ref is None:
        assert code in (EXIT_OK, EXIT_SEMANTIC)
    else:
        assert (code, out) == (EXIT_SCHEMA, "")
        assert err == f"error: problem file violates the schema: {ref[0]}\n"


@st.composite
def problem_documents(draw):
    """A valid problem document, small or with the 150 x 150 sample, and
    with one entry mutated unless ``site`` is drawn as ``None``."""
    small = st.one_of(st.integers(-5, 5), st.floats(-10, 10, allow_nan=False))
    if draw(st.booleans()):
        m, sample = BIG_M, list(BIG_SAMPLE)
    else:
        m = draw(st.integers(1, 4))
        sample = draw(st.lists(st.lists(small, min_size=m, max_size=m), min_size=1, max_size=4))
    flags = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    doc = _document(m, sample, *flags)
    site = draw(st.sampled_from([None] + MUTATION_SITES))
    if site is not None:
        value = draw(st.sampled_from(MUTANTS))
        doc = _mutate(doc, site, value, draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6)))
    return doc


class TestValidatorMatchesDraft7:
    @settings(max_examples=30)
    @given(doc=problem_documents())
    def test_documents_and_mutations(self, tmp_path_factory, doc):
        assert_validates_like_draft7(tmp_path_factory.mktemp("doc"), doc)

    @pytest.mark.parametrize("site, value", DEEP_MUTATIONS, ids=lambda x: repr(x))
    def test_deep_inside_the_big_sample(self, tmp_path, site, value):
        doc = _document(BIG_M, list(BIG_SAMPLE), False, True, True)
        assert_validates_like_draft7(tmp_path, _mutate(doc, site, value, 97, 113))

    def test_first_of_two_bad_entries(self, tmp_path):
        doc = _mutate(_document(BIG_M, list(BIG_SAMPLE)), "sample", "a", 120, 9)
        assert_validates_like_draft7(tmp_path, _mutate(doc, "sample", None, 3, 4))

    @pytest.mark.parametrize("leaf", [{"type": "number"}, {"type": "integer"}])
    @pytest.mark.parametrize(
        "instance", [[1, 2.5, 3], [1, 2, 3.0], [1, True], [1, "2"], [1, [2]], [], [1, 2**70]]
    )
    def test_leaf_items_alone(self, leaf, instance):
        inner = {"type": "array", "items": leaf}
        for schema, doc in ((inner, instance), ({"type": "array", "items": inner}, [instance])):
            errors = [
                [(e.message, list(e.path)) for e in cls(schema).iter_errors(doc)]
                for cls in (jsonschema.Draft7Validator, cli._ProblemValidator)
            ]
            assert errors[0] == errors[1]

    def test_validation_goes_through_jsonschema_validate(self, tmp_path, monkeypatch):
        # perfbench's tracer times cli.jsonschema.validate; the CLI must call it
        calls = []
        real = jsonschema.validate
        monkeypatch.setattr(cli.jsonschema, "validate", lambda *a, **k: calls.append(k) or real(*a, **k))
        code, _ = run_cli(tmp_path, collider_problem(Y_ID), "classify")
        assert code == EXIT_OK and calls[0]["cls"] is cli._ProblemValidator


# ---------------------------------------------------------------------------
# The serialiser against a recursive layout oracle


def _reference_scalar(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None:
        return "null"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("reports must not contain non-finite numbers")
        return repr(float(x))
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"cannot serialise {type(x).__name__}")


def _reference_dumps(obj, indent: int = 2) -> str:
    def go(node, level):
        pad = " " * (indent * level)
        inner = " " * (indent * (level + 1))
        if isinstance(node, dict):
            if not node:
                return "{}"
            parts = [f"{inner}{json.dumps(str(k))}: {go(v, level + 1)}" for k, v in node.items()]
            return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
        if isinstance(node, (list, tuple)):
            if not len(node):
                return "[]"
            parts = [f"{inner}{go(v, level + 1)}" for v in node]
            return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
        return _reference_scalar(node)

    return go(obj, 0) + "\n"


def _both(obj):
    """Both serialisers' output, or the type of what each raised."""
    out = []
    for dumps in (_reference_dumps, dumps_report):
        try:
            out.append(dumps(obj))
        except (TypeError, ValueError) as exc:
            out.append(type(exc))
    return out


report_leaves = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    st.text(max_size=5),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
reports = st.recursive(
    report_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), kids, max_size=4),
    ),
    max_leaves=30,
)


class TestSerialiserMatchesReference:
    @settings(max_examples=100)
    @given(obj=reports)
    def test_byte_identical(self, obj):
        ref, got = _both(obj)
        assert got == ref

    @settings(max_examples=100)
    @given(obj=reports)
    def test_floats_read_back_bit_for_bit(self, obj):
        def leaves(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, (list, tuple)):
                return [x for v in node for x in leaves(v)]
            return [node]

        back = leaves(json.loads(dumps_report(obj)))
        for want, got in zip(leaves(obj), back, strict=True):
            if isinstance(want, float):
                assert type(got) is float and got.hex() == float(want).hex()
            else:
                assert got == want

    @pytest.mark.parametrize(
        "obj",
        [
            [0.1, -0.0, 1e-320, 1.7976931348623157e308, 1 / 3],
            [[1.5, 2.5], [3.0, -4.0]],
            {"a": [1.0, 2, 3.0], "b": [1.0, True], "c": [None, 2.0], "d": [2.0, "x"]},
            [np.float64(0.1), 0.2],
            (0.5, 0.25),
            [],
            {},
            [[], {}, [0.0]],
            np.arange(4.0).reshape(2, 2).tolist(),
        ],
    )
    def test_fixed_cases(self, obj):
        ref, got = _both(obj)
        assert isinstance(ref, str) and got == ref

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
    @pytest.mark.parametrize("where", ["alone", "float-list", "mixed-list"])
    def test_non_finite_raises(self, bad, where):
        obj = {"alone": bad, "float-list": [1.0, bad, 2.0], "mixed-list": [1, bad]}[where]
        ref, got = _both(obj)
        assert ref == got == ValueError
