"""Digests of the JSON report at the configs where reports must stay byte-identical.

    python3 tools/report_digests.py > digests.txt

Run from the root of a source checkout; the program is imported from
``src/``.  For each config the tool runs ``gleason-lab run --format json``
in-process and prints one line, ``<sha256>  <argv>``.  Two checkouts give the
same reports at every config exactly when their outputs are equal, so one
``diff`` of the two files checks byte identity.  The whole list takes
10-15 s on a two-core machine, most of it the n = 64 config.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gleason_lab import cli  # noqa: E402

# the default; the benchmark's suite mix (R, C and H at n = 2 and 3, 10
# trials); two seeds at n = 3, 4 and 5; n = 8, 32 and 64, where the
# large-matrix paths run; one algebra at more trials and two seeds
CONFIGS = (
    (),
    ("--algebra", "R", "C", "H", "--dim", "2", "3", "--trials", "10", "--seed", "1"),
    ("--dim", "3", "4", "5", "--seed", "0", "1"),
    ("--dim", "8", "--trials", "3"),
    ("--dim", "32", "--trials", "3"),
    ("--dim", "64", "--trials", "1"),
    ("--algebra", "C", "--dim", "2", "--trials", "15", "--seed", "0", "3"),
)


def argv(config: tuple[str, ...]) -> list[str]:
    return ["run", "--format", "json", *config]


def digest(config: tuple[str, ...]) -> str:
    """sha256 of the bytes that ``gleason-lab run --format json`` writes at
    ``config``, whether or not every record passes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        cli.main(argv(config) + ["--out", str(out)])
        return hashlib.sha256(out.read_bytes()).hexdigest()


def main() -> int:
    for config in CONFIGS:
        print(f"{digest(config)}  gleason-lab {' '.join(argv(config))}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
