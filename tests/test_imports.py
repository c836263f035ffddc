import os
import subprocess
import sys
from pathlib import Path

import stellarwitness

# Modules that importing the package must not pull in: scipy's submodules are
# imported on first use, and the package runs no thread pool.
LAZY = ("scipy.linalg", "scipy.sparse", "scipy.special", "concurrent.futures")


def run_fresh(code: str) -> str:
    """Standard output of `code` run in a fresh interpreter on this checkout."""
    source_root = str(Path(stellarwitness.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return done.stdout.strip()


def test_package_import_stays_light():
    code = (
        "import sys, stellarwitness\n"
        f"print(','.join(m for m in {LAZY!r} if m in sys.modules))"
    )
    assert run_fresh(code) == ""


def test_multimode_search_uses_no_matrix_exponential():
    """A two-mode threshold takes its interferometers from eigh and its sector
    blocks from symmetric powers: no matrix exponential, and scipy.linalg,
    which the exponential imports on first use, is never loaded."""
    code = (
        "import sys, stellarwitness as sw\n"
        "from stellarwitness import numerics\n"
        "original, calls = numerics.matrix_exponential, []\n"
        "def counting(A):\n"
        "    calls.append(A)\n"
        "    return original(A)\n"
        "for name, module in list(sys.modules.items()):\n"
        "    if name.startswith('stellarwitness') and "
        "getattr(module, 'matrix_exponential', None) is original:\n"
        "        module.matrix_exponential = counting\n"
        "config = sw.OptimizerConfig(starts=4, max_iterations=400, simplex_tolerance=1e-4, seed=23)\n"
        "sw.multimode_threshold(sw.multimode_fock_projector((1, 1)), 2, 2, config)\n"
        "print(len(calls), 'scipy.linalg' in sys.modules)"
    )
    assert run_fresh(code) == "0 False"


def test_validate_loads_no_sparse_module():
    """The column oracle's two stages are banded Chebyshev steps with Bessel
    coefficients from an in-package recurrence: a full `validate` run never
    loads scipy.sparse, nor any other scipy module."""
    code = (
        "import sys\n"
        "from stellarwitness.validation import run_suites\n"
        "report = run_suites('all', 703)\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(report['pass'], 'scipy.sparse' in sys.modules, scipy)"
    )
    assert run_fresh(code) == "True False []"
