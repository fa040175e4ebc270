"""What a fresh interpreter loads and pays before the search runs.

Each check runs in a new ``python`` process, because ``sys.modules`` of
the test process already holds every module the suite imported.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")


def run_fresh(code: str) -> dict:
    """Run *code* in a new interpreter with the checkout's ``src/`` on
    the path; it prints one JSON object, which is returned."""
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n"
         + code],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_compiler_import_does_not_load_networkx():
    loaded = run_fresh(
        "import json, sys\n"
        "import repro.compiler\n"
        "print(json.dumps({'networkx': 'networkx' in sys.modules}))\n")
    assert loaded == {"networkx": False}


def test_zero_budget_times_out_before_the_first_model_fit():
    # The deadline is checked before each execution-model fit, so the
    # search gives up before the fit's lazy scipy import.
    outcome = run_fresh(
        "import json, sys\n"
        "from repro import PremCompiler, make_kernel\n"
        "from repro.errors import OptimizerTimeout\n"
        "try:\n"
        "    PremCompiler().compile(make_kernel('rnn', 'MINI'),\n"
        "                           strategy='pruned', budget_s=0.0)\n"
        "    error = None\n"
        "except OptimizerTimeout as exc:\n"
        "    error = str(exc)\n"
        "print(json.dumps({'error': error,\n"
        "                  'scipy.optimize': 'scipy.optimize' in "
        "sys.modules}))\n")
    assert outcome["error"] is not None and "'pruned'" in outcome["error"]
    assert outcome["scipy.optimize"] is False
