"""Self-test of the benchmark: it must report wrong outputs and refuse runs
it cannot vouch for.

    python3 perfbench/selftest.py

Runs perfbench/run.py several times (about two minutes in all) and
checks each exit code and result line:

* with ``series.skew`` returning zero, or ``modules.check_relations``
  reporting a violation, every workload that reaches the routine reports
  failed > 0 and exits 1;
* under ``python -O``, and in a directory holding only BENCHMARK.json and
  perfbench/, it exits non-zero without printing a result;
* an inherited ``HECKE_RIBBON_MAX_ENUM`` does not change the work done.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def _run(args: list[str], env_extra: dict | None = None, python_flags: tuple = (), script: str = RUN):
    env = dict(os.environ, **(env_extra or {}))
    proc = subprocess.run(
        [sys.executable, *python_flags, script, *args], capture_output=True, text=True, env=env, timeout=400
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return proc.returncode, result


def _args(workload: str, *extra: str) -> list[str]:
    return ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0", *extra]


def main() -> int:
    failures = []

    def expect(label: str, ok: bool) -> None:
        print(("ok   " if ok else "FAIL ") + label, flush=True)
        if not ok:
            failures.append(label)

    for workload, sabotage in (
        ("sweep-series", "series.skew"),
        ("sweep-modules", "modules.check_relations"),
        ("spot-checks", "series.skew"),
        ("spot-checks", "modules.check_relations"),
    ):
        code, result = _run(_args(workload, "--sabotage", sabotage))
        caught = code == 1 and result is not None and result["failed"] > 0 and not result["correct"]
        expect(f"{workload} with a wrong {sabotage} reports failures and exits 1", caught)

    code, result = _run(_args("spot-checks"), python_flags=("-O",))
    expect("python -O is refused", code != 0 and result is None)

    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, result = _run(_args("sweep-modules"), script=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare, ignore_errors=True)
    expect("a directory without the package sources is refused", code != 0 and result is None)

    code, result = _run(_args("sweep-modules"), env_extra={"HECKE_RIBBON_MAX_ENUM": "10"})
    expect("an inherited HECKE_RIBBON_MAX_ENUM is ignored", code == 0 and result is not None and result["correct"])

    print("self-test passed" if not failures else f"self-test FAILED: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
