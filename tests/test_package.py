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


def test_import_loads_no_scipy(tmp_path):
    # scipy costs most of a cold start; nor does a scan load it, as its Brent refinements are
    # the package's own
    src = str(Path(ptscatter.__file__).resolve().parent.parent)
    pot = tmp_path / "pot.json"
    pot.write_text('{"family": "barrier"}')
    code = ("import sys, ptscatter.cli\n"
            "before = [m for m in sys.modules if m.startswith('scipy')]\n"
            "code = ptscatter.cli.run_command(['scan', '--potential', sys.argv[1],\n"
            "                                  '--k-range', '0.3:3:271'])\n"
            "print(code, before, [m for m in sys.modules if m.startswith('scipy')])")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code, str(pot)], env=env, capture_output=True,
                         text=True, check=True)
    *table, last = out.stdout.strip().splitlines()
    assert "bidirectional_reflectionless" in "".join(table)  # the scan refined and found features
    assert last == "0 [] []"
