"""Differential golden output of the sepdist CLI.

Usage::

    python scripts/cli_golden.py SRC_DIR OUT.json

Runs a fixed list of invocations in-process against the ``sepdist`` package
found in SRC_DIR (the ``src`` directory of a checkout) and writes one JSON
record per invocation: the argv, the exit code, and the exact stdout, stderr
and ``--output`` file contents. Run it on two trees and compare the two files
with ``cmp``. No bytes are pinned in the repository, so platform-level
rounding differences between machines cannot break the comparison; only two
trees run on the same machine are compared.

Each invocation runs in a fresh empty working directory, and ``--output``
paths are relative to it, so error messages that name the path are the same
for every tree. An uncaught exception is recorded as exit 1 with its type and
message (no traceback, whose file paths differ between trees), and SRC_DIR is
written as ``SRC`` wherever it appears, as in the location line of a warning.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

FORMATS = ((), ("--format", "text"), ("--format", "json"), ("--format", "csv"))

# Every base runs in each of the four formats, to stdout and to --output.
BASES = (
    ("distribute", "--e2t", "2"),
    ("distribute", "--e2t", "2", "--x", "auto"),
    ("distribute", "--squeezing-db", "10"),
    ("distribute", "--e2t", "1"),
    ("distribute", "--e2t", "2", "--with-recovery"),
    ("distribute", "--e2t", "10", "--x", "3", "--excess", "200", "--with-recovery"),
    ("distribute", "--e2t", "1e7"),
    ("distribute", "--e2t", "2", "--x", "1e9"),
    ("distribute", "--e2t", "1e300"),
    ("recover", "--e2t", "2"),
    ("recover", "--e2t", "2", "--gain", "0.5,0.1,-0.2,1.5"),
    ("recover", "--e2t", "1", "--gain", "0,0,0,0"),
    ("recover", "--squeezing-db", "3", "--x", "0.2", "--excess", "1"),
    ("sweep", "--points", "5"),
    ("sweep", "--e2t-start", "2", "--e2t-stop", "2", "--points", "1"),
    ("sweep", "--e2t-start", "1.1", "--e2t-stop", "1e6", "--points", "40"),
    ("sweep", "--x", "0.5", "--excess", "10", "--points", "7"),
    ("mc-validate", "--e2t", "2", "--samples", "20000", "--seed", "42"),
    ("mc-validate", "--e2t", "2", "--samples", "2000", "--seed", "5", "--sigma", "0.01"),
    ("mc-validate", "--squeezing-db", "5", "--x", "0.7", "--samples", "5000", "--seed", "7"),
    ("regression",),
)

HELP = (
    ("--help",),
    ("distribute", "--help"),
    ("recover", "--help"),
    ("sweep", "--help"),
    ("mc-validate", "--help"),
    ("regression", "--help"),
)

# Usage errors and out-of-range inputs (exit 64), consistency failures (exit 2) and
# unopenable --output paths.
ERRORS = (
    (),
    ("no-such-command",),
    ("distribute",),
    ("distribute", "--e2t", "2", "--squeezing-db", "3"),
    ("distribute", "--e2t", "0"),
    ("distribute", "--e2t", "-1"),
    ("distribute", "--e2t", "0.5"),
    ("distribute", "--e2t", "nan"),
    ("distribute", "--e2t", "inf"),
    ("distribute", "--e2t", "two"),
    ("distribute", "--squeezing-db", "-3"),
    ("distribute", "--squeezing-db", "4000"),
    ("distribute", "--e2t", "2", "--x", "fast"),
    ("distribute", "--e2t", "2", "--x", "-1"),
    ("distribute", "--e2t", "2", "--x", "nan"),
    ("distribute", "--e2t", "2", "--excess", "-1"),
    ("distribute", "--e2t", "2", "--format", "xml"),
    ("distribute", "--e2t", "2", "--bogus"),
    ("distribute", "--e2t", "0", "--x", "fast", "--excess", "-1"),
    ("distribute", "--e2t", "2", "--x", "fast", "--excess", "-1"),
    ("distribute", "--e2t", "2", "--x", "1e308"),
    ("distribute", "--e2t", "1e4", "--x", "0"),
    ("distribute", "--e2t", "1e4", "--x", "0", "--output", "out"),
    ("distribute", "--e2t", "0", "--output", "out"),
    ("distribute", "--e2t", "2", "--output", "missing/out"),
    ("distribute", "--e2t", "2", "--format", "json", "--output", "."),
    ("recover", "--e2t", "2", "--gain", "1,2,3"),
    ("recover", "--e2t", "2", "--gain", "a,b,c,d"),
    ("recover", "--e2t", "2", "--gain", "1,inf,0,1"),
    ("recover", "--e2t", "2", "--x", "-1", "--gain", "1,2"),
    ("recover", "--e2t", "2", "--format", "csv", "--output", "missing/out"),
    ("sweep", "--points", "0"),
    ("sweep", "--points", "0", "--x", "fast"),
    ("sweep", "--e2t-start", "0.5"),
    ("sweep", "--e2t-stop", "inf"),
    ("sweep", "--excess", "-2", "--points", "0"),
    ("sweep", "--e2t-start", "1e4", "--e2t-stop", "1e4", "--points", "1", "--x", "0"),
    ("sweep", "--points", "3", "--output", "."),
    ("sweep", "--e2t-stop", "1e300", "--points", "3"),
    ("mc-validate", "--e2t", "2", "--samples", "100"),
    ("mc-validate", "--e2t", "2", "--seed", "-1"),
    ("mc-validate", "--e2t", "2", "--sigma", "0"),
    ("mc-validate", "--e2t", "2", "--sigma", "nan"),
    ("mc-validate", "--e2t", "0", "--samples", "10"),
    ("mc-validate", "--e2t", "2", "--excess", "-1", "--samples", "10"),
    ("mc-validate", "--e2t", "2", "--samples", "2000", "--sigma", "0.01", "--output", "."),
    ("regression", "--x", "1"),
    ("regression", "--output", "missing/out"),
)


def invocations() -> list[list[str]]:
    runs = []
    for base in BASES:
        for fmt in FORMATS:
            runs.append([*base, *fmt])
            runs.append([*base, *fmt, "--output", "out"])
    return runs + [list(argv) for argv in HELP + ERRORS]


def _run(cli, src: Path, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # recorded as an outcome, like an uncaught exit 1
                    code = 1
                    err.write("".join(traceback.format_exception_only(type(exc), exc)))
        finally:
            os.chdir(cwd)
        files = {
            str(path.relative_to(tmp)): path.read_text(encoding="utf-8")
            for path in sorted(Path(tmp).rglob("*"))
            if path.is_file()
        }
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue().replace(str(src), "SRC"), "files": files}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python scripts/cli_golden.py SRC_DIR OUT.json", file=sys.stderr)
        return 64
    src, target = Path(argv[0]).resolve(), Path(argv[1])
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    sys.path.insert(0, str(src))
    cli = importlib.import_module("sepdist.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"cli_golden.py: imported sepdist from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    records = [_run(cli, src, run) for run in invocations()]
    target.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} invocations -> {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
