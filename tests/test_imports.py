import os
import subprocess
import sys
from pathlib import Path

import stellarwitness

# Modules that importing the package must not pull in: scipy's submodules are
# imported on first use, and the package runs no thread pool.
LAZY = ("scipy.linalg", "scipy.sparse", "scipy.special", "concurrent.futures")


def test_package_import_stays_light():
    source_root = str(Path(stellarwitness.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    code = (
        "import sys, stellarwitness\n"
        f"print(','.join(m for m in {LAZY!r} if m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout.strip() == ""
