"""The demo scripts run to completion, without a traceback or a numpy warning."""

import os
import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_caputo_quadrature_demo_runs_clean():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(DEMOS / "caputo_quadrature.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr and "RuntimeWarning" not in out.stderr
    assert "stencil-sampled D^0.8 t^3 at t=1" in out.stdout
