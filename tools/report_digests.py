"""Digests of the JSON report at the configs where reports must stay byte-identical.

    python3 tools/report_digests.py > digests.txt
    python3 tools/report_digests.py --check digests.txt

Run from the root of a source checkout; the program is imported from
``src/``.  For each config the tool runs ``gleason-lab run --format json``
in-process and prints one line, ``<sha256>  <argv>``.  Two checkouts give the
same reports at every config exactly when their outputs are equal, so one
``diff`` of the two files checks byte identity.  ``--check FILE`` does that
in one command: it recomputes every digest, prints the line of each config
whose digest differs from FILE's, or that FILE lacks, and exits 1 if there
is one, else 0.  The whole list takes
about 2.5 s on a two-core machine at one BLAS thread, half of it the n = 64
config.  n = 128 is left out: it takes about 11 s alone.
"""

from __future__ import annotations

import argparse
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


def line(config: tuple[str, ...]) -> str:
    return f"gleason-lab {' '.join(argv(config))}"


def main(args: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="digests of the JSON report at fixed configs")
    parser.add_argument("--check", metavar="FILE", help="compare with the digests FILE holds; exit 1 on a mismatch")
    check = parser.parse_args(args).check
    if check is None:
        for config in CONFIGS:
            print(f"{digest(config)}  {line(config)}", flush=True)
        return 0
    # FILE holds lines as this tool prints them: "<sha256>  <argv>"
    rows = (row.partition("  ") for row in Path(check).read_text().splitlines())
    expected = {command: sha for sha, _, command in rows}
    mismatched = 0
    for config in CONFIGS:
        got = digest(config)
        if expected.get(line(config)) != got:
            mismatched += 1
            print(f"{got}  {line(config)}  ({check} holds {expected.get(line(config), 'no digest')})", flush=True)
    print(f"{mismatched} of {len(CONFIGS)} configs differ from {check}")
    return 1 if mismatched else 0


if __name__ == "__main__":
    raise SystemExit(main())
