"""Re-record tests/golden.json from the current code.

Usage: PYTHONPATH=src python tests/record_golden.py

Every output of the golden cases is rewritten.  A change that re-records
the file says in CHANGES.md which outputs changed and why.
"""

import json
import tempfile

from test_golden import GOLDEN, record


def main():
    with tempfile.TemporaryDirectory() as root:
        golden = record(root)
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(golden)} cases in {GOLDEN}")


if __name__ == "__main__":
    main()
