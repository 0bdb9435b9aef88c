"""A fresh interpreter that imports sparsevote and runs loads no scipy.stats.

Other tests in this process load scipy, so the check runs in a subprocess:
import, `run` on both example configs on the wire, one `sweep`, then the
binomial bounds, which must load scipy.stats themselves and return exactly
what scipy.stats.binom gives when evaluated directly.
"""

import json
import subprocess
import sys
from pathlib import Path

import sparsevote

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SRC = Path(sparsevote.__file__).resolve().parent.parent

SCRIPT = """
import contextlib
import io
import json
import sys

sys.path.insert(0, sys.argv[1])
import sparsevote
from sparsevote import cli

configs = json.loads(sys.argv[2])
with contextlib.redirect_stdout(io.StringIO()):
    for path in configs:
        assert cli.main(["run", "--config", path, "--cost-mode", "wire"]) == 0
    assert cli.main(["sweep", "--config", configs[0], "--axis", "gamma", "--values", "0.5"]) == 0
for name in ("scipy.stats", "scipy.special"):
    assert name not in sys.modules, f"{name} loaded before a binomial bound was called"

b = sparsevote.beta(16, 0.1)
assert "scipy.stats" in sys.modules
pmf = sparsevote.m_participation_pmf(16, 0.1, 3)
err = sparsevote.vote_error_exact(0.2, 7)

import numpy as np
from scipy.stats import binom

u = np.arange(1, 17)
assert b == float(np.sum(binom.pmf(u, 16, 0.1) / np.sqrt(u))), b
assert pmf == float(binom.pmf(3, 16, 0.1)), pmf
assert err == float(binom.sf(3, 7, 0.2)), err
print("ok")
"""


def test_run_and_sweep_load_no_scipy_stats(tmp_path):
    configs = []
    for source in sorted(CONFIGS.glob("*.json")):
        path = tmp_path / source.name
        path.write_text(json.dumps({**json.loads(source.read_text()), "t": 3}))
        configs.append(str(path))
    assert len(configs) == 2
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(SRC), json.dumps(configs)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
