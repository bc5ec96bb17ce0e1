"""No pipeline process loads scipy: numpy is the only runtime dependency."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TINY_SYNTH = {"n_firms": 12, "packages_per_firm_mean": 6.0, "seed": 5}

# Runs the given CLI arguments (or none) in a fresh interpreter, then prints
# the exit code and every loaded scipy module as JSON.
PROBE = """
import json, sys
from patchscale import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"code": code, "scipy": loaded}))
"""


def _probe(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True, check=True
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["code"] == 0, done.stderr
    return result["scipy"]


def test_cli_import_loads_no_scipy():
    assert _probe() == []


def test_no_stage_loads_scipy(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"synth": TINY_SYNTH, "bootstrap_samples": 200}))
    shared = ["--config", str(config), "--output-dir", str(tmp_path / "out")]
    for stage in ("synth", "ingest", "segment", "analyze", "report"):
        assert _probe(stage, *shared) == [], stage
    assert _probe("all", "--config", str(config), "--output-dir", str(tmp_path / "all")) == []


def _is_scipy(name) -> bool:
    return isinstance(name, str) and (name == "scipy" or name.startswith("scipy."))


def test_no_scipy_import_in_src():
    # Any import statement, at any depth, and importlib or __import__ calls
    # naming scipy.
    offending = []
    for path in sorted((SRC / "patchscale").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
                names = [node.args[0].value]
            else:
                continue
            if any(map(_is_scipy, names)):
                offending.append(f"{path.name}:{node.lineno}")
    assert offending == []
