"""The simulation path imports only the standard library and the simulator.

A fresh interpreter runs the set-up statement of the fig12 benchmark point
(import the experiment, build the point's spec, resolve its point function)
and then simulates a short point.  Neither step may load networkx (routing is
a stdlib Dijkstra), asyncio or ``repro.runtime`` (the core and transport
layers import the ``Clock`` protocol for annotations only).  The check reads
``sys.modules``, so it is deterministic and needs no timing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

FORBIDDEN = ("networkx", "asyncio", "repro.runtime")

CHILD = """
import json, sys
from repro.experiments import fig12_deployment
from repro.experiments.sweep import execute_spec, resolve_point
spec = fig12_deployment.grid(fractions=(0.5,), strategies=("constant",),
                             sim_time=3.0, warmup=1.0, seed=7)[0]
resolve_point(spec.experiment)
after_setup = sorted(sys.modules)
execute_spec(spec)
print(json.dumps({"setup": after_setup, "run": sorted(sys.modules)}))
"""


def _loaded(modules: list, roots: tuple) -> list:
    return [m for m in modules if any(m == r or m.startswith(r + ".") for r in roots)]


def test_simulation_path_loads_no_networkx_asyncio_or_runtime():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    modules = json.loads(proc.stdout.splitlines()[-1])
    assert "repro.experiments.fig12_deployment" in modules["setup"]
    assert _loaded(modules["setup"], FORBIDDEN) == []
    assert _loaded(modules["run"], FORBIDDEN) == []
