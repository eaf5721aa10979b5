import os
import subprocess
import sys
from pathlib import Path

import ptscatter


def test_every_exported_name_resolves():
    missing = [name for name in ptscatter.__all__ if not hasattr(ptscatter, name)]
    assert missing == []
    assert len(set(ptscatter.__all__)) == len(ptscatter.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from ptscatter import *", namespace)  # import * is only allowed at module level
    assert set(ptscatter.__all__) <= namespace.keys()


def test_import_loads_no_scipy():
    # scipy costs most of a cold start; only a scan's refinement needs it, and imports it then
    src = str(Path(ptscatter.__file__).resolve().parent.parent)
    code = "import sys, ptscatter.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
