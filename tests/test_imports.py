"""Which processes load scipy: only the one that scores cuts in closed form."""

import json
import os
import re
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


def test_only_segment_loads_scipy_and_never_stats(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"synth": TINY_SYNTH, "bootstrap_samples": 200}))
    shared = ["--config", str(config), "--output-dir", str(tmp_path / "out")]
    assert _probe("synth", *shared) == []
    assert _probe("ingest", *shared) == []
    segment_loaded = _probe("segment", "--significance-mode", "closed-form", *shared)
    assert "scipy.special" in segment_loaded
    assert not [m for m in segment_loaded if m == "scipy.stats" or m.startswith("scipy.stats.")]
    assert _probe("analyze", *shared) == []
    assert _probe("report", *shared) == []


def test_no_module_level_scipy_import_in_src():
    pattern = re.compile(r"^(from|import) scipy")
    offending = [
        f"{path.name}:{number}"
        for path in sorted((SRC / "patchscale").glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.match(line)
    ]
    assert offending == []
