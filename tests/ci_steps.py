"""Run the steps of the CI workflow on this machine, in order.

    python tests/ci_steps.py

Reads ``.github/workflows/tests.yml`` and runs each step's ``run:`` text
with ``bash -e`` from the repository root, as the hosted runner does, with
``python`` and ``python3`` on the PATH running the interpreter that runs
this script: the matrix leg is that interpreter's version.  Steps that
``uses:`` an action are skipped, as is the Install step, which needs the
network; the packages it names must be installed already.  Stops at the
first failing step, names it and exits non-zero.

Tier-1 does not collect this file, as its name does not start with
``test_``.
"""

import os
import stat
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SKIPPED = {"Install": "needs the network"}


def steps(workflow: Path):
    """Each job's steps, in file order, as (job, step) pairs."""
    for job, spec in yaml.safe_load(workflow.read_text())["jobs"].items():
        for step in spec["steps"]:
            yield job, step


def interpreter_dir(tmp: str) -> str:
    """A directory whose ``python`` and ``python3`` run this interpreter."""
    for name in ("python", "python3"):
        path = Path(tmp) / name
        path.write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
        path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return tmp


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PATH=interpreter_dir(tmp) + os.pathsep + os.environ["PATH"])
        for job, step in steps(WORKFLOW):
            name = step.get("name") or step.get("uses") or step["run"].splitlines()[0]
            if "run" not in step or name in SKIPPED:
                print(f"[{job}] skip: {name} ({SKIPPED.get(name, 'uses an action')})")
                continue
            print(f"[{job}] run: {name}", flush=True)
            start = time.perf_counter()
            done = subprocess.run(["bash", "-e", "-c", step["run"]], cwd=ROOT, env=env)
            print(f"[{job}] exit {done.returncode} in {time.perf_counter() - start:.1f} s: {name}",
                  flush=True)
            if done.returncode:
                print(f"FAILED: [{job}] {name}")
                return 1
    print("every run step passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
