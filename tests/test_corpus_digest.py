"""The CLI's output on the built-in corpus is byte-identical to the committed digest.

tools/corpus_digest.py prints one line per run: argv, exit code, and the sha256
of stdout and of stderr. A change that alters any table, diagnostic or exit
code on that matrix changes a line here; such a change regenerates the golden
file and says why:

    PYTHONPATH=src python tools/corpus_digest.py > tests/corpus_digest.txt
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "corpus_digest.txt"


def test_corpus_digest_matches_golden():
    env = {key: value for key, value in os.environ.items() if key != "PTSCATTER_TOL"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "corpus_digest.py")],
                          env=env, capture_output=True, text=True, check=True)
    got = proc.stdout.splitlines()
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    differ = [w.split(" | ")[0] for w, g in zip(want, got) if w != g]
    assert not differ and len(got) == len(want), (
        f"{len(differ)} of {len(want)} runs differ, {len(got)} runs made:\n" + "\n".join(differ))
