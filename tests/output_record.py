"""The record of the default outputs that no change may move by accident.

`compute_record()` runs the CLI in-process with the default configuration
and keeps what is exact:

* the bytes of `sweep --mesh-n 8` (the CSV, 31 D rows);
* the per-step iteration counts and Lanczos `iterations_used` of
  `solve --L optimal` at n = 4 and 16;
* the pass/fail flag of every `verify` check;
* each command's exit code.

Norms and eigenvalues are left out: their last bits depend on the BLAS
thread count. `tests/test_output_record.py` compares the record with the
committed `output_record.json`. A change that moves a count on purpose
regenerates the file and says so in CHANGES.md:

    PYTHONPATH=src python tests/output_record.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from biotfs.cli import main

RECORD = Path(__file__).with_name("output_record.json")


def _run(workdir: Path, name: str, *argv: str):
    """Exit code and written output of one CLI command, stdout discarded."""
    out = workdir / name
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(out)])
    return code, out.read_text(encoding="utf-8")


def compute_record() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        code, csv = _run(workdir, "sweep.csv", "sweep", "--mesh-n", "8")
        record = {"sweep_n8": {"exit_code": code, "csv": csv.splitlines(keepends=True)}}
        for n in (4, 16):
            code, text = _run(workdir, f"solve{n}.json", "solve", "--mesh-n", str(n),
                              "--L", "optimal")
            report = json.loads(text)
            record[f"solve_optimal_n{n}"] = {
                "exit_code": code,
                "iterations": [step["iterations"] for step in report["steps"]],
                "iterations_used": report["estimate"]["iterations_used"],
            }
        code, text = _run(workdir, "verify.json", "verify")
        checks = json.loads(text)["checks"]
        record["verify"] = {"exit_code": code,
                            "passed": {c["name"]: c["passed"] for c in checks}}
    return record


if __name__ == "__main__":
    RECORD.write_text(json.dumps(compute_record(), indent=2) + "\n", encoding="utf-8")
