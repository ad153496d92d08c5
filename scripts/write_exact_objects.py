#!/usr/bin/env python3
"""Write tests/exact_objects.json, the table of exact objects that tier-1 compares.

    PYTHONPATH=src python3 scripts/write_exact_objects.py

Run it only in a change that means to change an exact object, and name every changed
entry in CHANGES.md (the file's header states the rules).
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from exact_objects import HEADER, PATH, encode, raw_objects  # noqa: E402


def main() -> int:
    PATH.write_text(json.dumps({"header": HEADER, "entries": encode(raw_objects())},
                               indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
