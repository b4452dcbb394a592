"""The program reads no environment variables.

Every routing setting has one value, fixed in the code (a constant, a
class attribute or a constructor default), so a run depends only on its
inputs and options, never on the shell it was started from.
"""

from pathlib import Path

import repro

SOURCE_ROOT = Path(repro.__file__).resolve().parent


def test_no_module_reads_the_environment():
    readers = [
        f"{path.relative_to(SOURCE_ROOT)}:{number}"
        for path in sorted(SOURCE_ROOT.rglob("*.py"))
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        )
        if "os.environ" in line or "getenv" in line
    ]
    assert readers == []
