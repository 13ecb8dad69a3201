"""Host-time benchmark for canvault.

Run from the root of a canvault checkout:

    python3 perfbench/run.py --workload keying_schnorr256 --seed 0 --seconds 20 --trace 0

It imports canvault from the checkout's ``src`` directory, so nothing needs to
be installed or built. Without those sources it exits with code 2. See
perfbench/README.md for the workloads and metrics.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

if __name__ == "__main__":
    if not (SRC / "canvault" / "__init__.py").is_file():
        print(f"perfbench: canvault sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from bench import main
    sys.exit(main())
