"""Set-up probe: a fresh interpreter imports sumprod and runs one item.

    python3 bench/probe.py ITEM_JSON

run.py times this whole process, interpreter start included.  The exit
status is the item's CLI exit code, or 1 if it raised.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import sumprod  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    result = workloads.run_item(json.loads(sys.argv[1]), sumprod)
    sys.exit(getattr(result, "rc", 0))
