"""Entry point: ``python -m benchmarks.ledger`` from the repo root, or
``python3 benchmarks/ledger/__main__.py`` from anywhere."""

import sys
from pathlib import Path

if not __package__:
    # Run as a script: sys.path[0] is this directory; make it the repo
    # root so ``benchmarks.ledger`` imports as the package it is.
    sys.path[0] = str(Path(__file__).resolve().parents[2])

from benchmarks.ledger.cli import main

if __name__ == "__main__":
    sys.exit(main())
