"""Byte identity of everything the CLI emits, against a committed manifest.

``tests/data/report_manifest.txt`` is the output of
``scripts/report_manifest.py`` (the sha256 of every file and stdout of the
CLI calls it lists), under a first line that names the platform it was
recorded on.  A change that alters any emitted byte must regenerate it,
and say in CHANGES.md which files changed and why::

    { python tests/test_manifest.py; python scripts/report_manifest.py; } \\
        > tests/data/report_manifest.txt
"""
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "data" / "report_manifest.txt"


def platform_line():
    """The versions and machine that libm and the array libraries depend on."""
    return (f"# python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {scipy.__version__}, {platform.system()} {platform.machine()}")


def test_emitted_files_match_the_recorded_manifest():
    recorded, *expected = MANIFEST.read_text().splitlines()
    # Only a different platform excuses a difference: its libm and library
    # versions may round the last bits of a float differently.
    if recorded != platform_line():
        pytest.skip(f"manifest recorded on {recorded[2:]!r}, this is {platform_line()[2:]!r}")
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / "report_manifest.py")],
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == expected


if __name__ == "__main__":
    print(platform_line())
