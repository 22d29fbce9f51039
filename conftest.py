"""Pytest bootstrap: make the in-tree package importable.

This keeps ``pytest`` working even when the package has not been installed
(the offline environment cannot always complete an editable install).
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: a long-running check (still part of the default run)",
    )
