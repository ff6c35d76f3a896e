"""Locate the checkout the benchmark runs in and import ``repro`` from it.

The benchmark measures the source tree next to it, never an installed
copy: it puts ``<checkout>/src`` first on ``sys.path`` and refuses to
run when that tree is missing.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
#: Everything a run writes lands here (ignored by git).
OUT = BENCH / "out"


def use_checkout_source() -> None:
    """Import ``repro`` from ``<checkout>/src`` or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {src}/repro")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {src}"
        )
