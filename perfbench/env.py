"""Where the benchmark runs: the checkout's own ``src/mixdom`` and the run's facts."""

from __future__ import annotations

import importlib.metadata
import importlib.util
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/mixdom`` to benchmark."""


def load_mixdom():
    """Import ``mixdom`` from this checkout's sources, never from an installed copy."""
    if not (SRC / "mixdom" / "__init__.py").is_file():
        raise MissingProgram(f"no mixdom sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mixdom

    if Path(mixdom.__file__).resolve().parent != SRC / "mixdom":
        raise MissingProgram(f"imported mixdom from {mixdom.__file__}, not from {SRC}")
    return mixdom


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def _git_commit() -> str:
    """HEAD of the checkout; "unknown" when the checkout is not a git tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "mixdom").glob("*.py")))


def facts(seed: int) -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "click": _version("click"),
        "numba": importlib.util.find_spec("numba") is not None,
        "src_mixdom_lines": src_lines(),
        "seed": seed,
        "commit": _git_commit(),
    }
