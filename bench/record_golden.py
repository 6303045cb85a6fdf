"""Record the golden outputs the benchmark checks against.

    python3 bench/record_golden.py

Runs one round of each workload at ``GOLDEN_SEED`` and writes
``bench/golden/<workload>.json``.  Re-record only on purpose: a change that
alters these outputs changes the program's behaviour, not its speed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from workloads import GOLDEN_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    for name, workload in WORKLOADS.items():
        workload.build()
        outputs = workload.run(GOLDEN_SEED).outputs
        path = BENCH / "golden" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        lines = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                            for key, value in outputs.items())
        path.write_text(f'{{"seed": {GOLDEN_SEED}, "outputs": {{\n{lines}\n}}}}\n',
                        encoding="utf-8")
        print(f"wrote {path.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
