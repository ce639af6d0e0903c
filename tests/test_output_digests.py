"""Every output a change to the numerics could move, against the committed
listing of tools/digest_outputs.py.

tests/output_digests.txt is that tool's output: a first line naming NumPy,
the BLAS build with the kernel it runs, and the CPU, then `sha256 path`
per output.  The digests hold in that environment only: another BLAS
kernel or CPU may round a GEMM differently, so there a mismatch would not
show a fault and a match would not prove one absent.  So where the first
line differs the test skips, and says which environment the listing
needs; it never passes there.

A change that moves outputs on purpose regenerates the listing, and its
diff names every output that moved:

    python3 tools/digest_outputs.py > tests/output_digests.txt
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LISTING = os.path.join(ROOT, "tests", "output_digests.txt")


def _digests(lines):
    return dict(reversed(line.split(" ", 1)) for line in lines)


@pytest.mark.slow
def test_outputs_match_the_committed_digests():
    with open(LISTING) as fh:
        recorded, *want = fh.read().splitlines()
    run = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "digest_outputs.py")],
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr[-2000:]
    here, *got = run.stdout.splitlines()
    if here != recorded:
        pytest.skip(f"output digests were recorded in {recorded!r}; this is {here!r}")
    want, got = _digests(want), _digests(got)
    moved = sorted(path for path in want.keys() | got.keys() if want.get(path) != got.get(path))
    assert not moved, f"{len(moved)} outputs moved: {moved}"
