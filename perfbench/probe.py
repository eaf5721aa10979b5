"""Cold-start probe: import the ptscatter CLI in a fresh interpreter and run commands.

Usage: python probe.py COMMANDS.json
COMMANDS.json holds a list of argv lists for ``ptscatter.cli.run_command``.
Prints one JSON line with the exit codes, ``time.monotonic()`` taken right
after the last command returned, and the machine slowdown measured by the
speed reference right after that. The parent compares the timestamp with its
own monotonic reading from before the spawn (the clock is system-wide).
"""
import contextlib
import io
import json
import sys
import time

PROBE_SAMPLES = 5


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        commands = json.load(fh)
    from ptscatter.cli import run_command

    with contextlib.redirect_stderr(io.StringIO()):
        codes = [run_command(argv) for argv in commands]
    done = time.monotonic()
    from speed import MachineSpeed

    speed = MachineSpeed()
    for _ in range(PROBE_SAMPLES):
        speed.sample()
    print(json.dumps({"done": done, "codes": codes, "slowdown": speed.slowdown()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
