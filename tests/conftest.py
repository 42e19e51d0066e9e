import os
from pathlib import Path

# The acceptance suite runs `python -m muscletract` in subprocesses; give them
# the same source tree that pytest's `pythonpath` setting gives this process.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
