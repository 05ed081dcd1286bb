#!/usr/bin/env python3
"""Batch use through the command-line interface.

Writes a problem file, then drives the classify / stabilize / limit
subcommands as separate processes, exactly as a shell pipeline would.
Reports are JSON written by ``json.dumps``; each float is its shortest text
that reads back to the same double, so identical inputs and seeds are
byte-reproducible.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

problem = {
    "graph": {"m": 3, "edges": [[1, 3], [2, 3]]},
    "sample": [
        [1.0, 1.0, 2.0],
        [0.0, 1.0, 1.0],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ],
    "settings": {"seed": 7},
}


def run(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "dagstab.cli", *args],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"command failed ({proc.returncode}): {proc.stderr}")
    return json.loads(proc.stdout)


with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "problem.json"
    path.write_text(json.dumps(problem, indent=2))
    print(f"problem file: {path}\n")

    report = run("classify", "--input", str(path))
    print("classify:")
    print(f"  classification = {report['classification']} ({report['gitLabel']})")
    print(f"  witness vertex = {report['witness']}")
    print(f"  regime = {report['regime']['label']}\n")

    report = run("stabilize", "--input", str(path))
    print("stabilize (seed from the problem file):")
    print(f"  lift stages = {report['stages']}")
    print(f"  stabilised rank = {report['rank']}\n")

    report = run("limit", "--input", str(path))
    print("limit:")
    print(f"  analytic lambda limit at vertex 3 = {report['lambdaLimit']['3']}")
    print(f"  analytic vs numeric agreement = {report['agreement']:.2e}")
    print(f"  variance limit exists per vertex = {report['omegaExists']}")
    print(f"  partial record = {report['partial']}")
