"""The CLI loads none of scipy's integrate, optimize or special packages.

Each costs start-up time on every run; the ODE layer has its own stepper and
imports ``scipy.optimize`` only when an event brackets a root.
"""

import json
import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_PROBE = """
import json, sys
heavy = ("scipy.integrate", "scipy.optimize", "scipy.special")
loaded = lambda: sorted(m for m in heavy if m in sys.modules)
from layerspec.cli import main
after_import = loaded()
code = main(["describe", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps({"after_import": after_import, "code": code, "after_describe": loaded()}))
"""


def test_cli_imports_and_describe_load_no_heavy_scipy_package(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("surface.name = hyperboloid\nsurface.s_max = 60\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(cfg), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen == {"after_import": [], "code": 0, "after_describe": []}
