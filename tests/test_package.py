"""The package's public surface."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import mudeform


def test_all_names_resolve_once():
    # a name deleted from a module must leave __all__ too
    assert [n for n, c in Counter(mudeform.__all__).items() if c > 1] == []
    assert [n for n in mudeform.__all__ if not hasattr(mudeform, n)] == []


def test_import_loads_only_the_runtime_dependencies():
    # numpy and mpmath are the run-time dependencies; the test-only
    # oracles and heavy packages stay out of a fresh import
    src = str(Path(mudeform.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, mudeform, mudeform.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    loaded = {name.split(".")[0] for name in out.split()}
    assert {"mudeform", "numpy", "mpmath"} <= loaded
    assert loaded.isdisjoint({"scipy", "matplotlib", "sympy", "hypothesis"})
