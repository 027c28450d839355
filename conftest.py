"""Put the source tree on the import path of the tests and of the processes they start."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
