"""Each module imports only what it uses: the package root loads no module."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import kaczgs


@pytest.mark.parametrize("module, loaded", [
    ("kaczgs.sampling", ["kaczgs", "kaczgs.errors", "kaczgs.sampling"]),
    ("kaczgs.linalg", ["kaczgs", "kaczgs.errors", "kaczgs.linalg"]),
])
def test_leaf_module_imports_alone(module, loaded):
    src = str(Path(kaczgs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (f"import sys, {module}; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'kaczgs'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == loaded
