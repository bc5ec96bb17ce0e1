"""No pipeline process loads scipy, or any module outside the standard library but numpy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TINY_SYNTH = {"n_firms": 12, "packages_per_firm_mean": 6.0, "seed": 5}
# The only top-level modules outside the standard library a process may load.
RUNTIME = ["numpy", "patchscale"]

# Runs the given CLI arguments (or none) in a fresh interpreter, then prints
# the exit code and every top-level module outside the standard library that
# the CLI import and the run loaded after start-up, as JSON.  Only modules an
# import found count: numpy's Cython extensions also register a module of
# shared types, such as _cython_3_2_4, which has no spec.
PROBE = """
import json, sys
start = set(sys.modules)
from patchscale import cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
new = [name for name, module in list(sys.modules.items()) if name not in start and getattr(module, "__spec__", None)]
loaded = sorted({name.partition(".")[0] for name in new} - sys.stdlib_module_names)
print(json.dumps({"code": code, "loaded": loaded}))
"""


def _probe(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True, check=True
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["code"] == 0, done.stderr
    return result["loaded"]


def test_cli_import_loads_no_scipy():
    assert _probe() == RUNTIME


def test_no_stage_loads_scipy(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"synth": TINY_SYNTH, "bootstrap_samples": 200}))
    shared = ["--config", str(config), "--output-dir", str(tmp_path / "out")]
    for stage in ("synth", "ingest", "segment", "analyze", "report"):
        assert _probe(stage, *shared) == RUNTIME, stage
    assert _probe("all", "--config", str(config), "--output-dir", str(tmp_path / "all")) == RUNTIME


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
