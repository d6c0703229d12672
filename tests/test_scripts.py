import os
import subprocess
import sys
from pathlib import Path

import cyclic_pairs

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    env = dict(os.environ)
    package_root = str(Path(cyclic_pairs.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_pair_census_refuses_a_negative_top_as_a_usage_error():
    done = run_script("pair_census.py", "--top", "-1")
    assert done.returncode == 2
    assert "--top must be >= 0, got -1" in done.stderr
    assert "refused" not in done.stdout
