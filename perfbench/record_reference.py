"""Rewrite perfbench/reference.json from the library as it is now.

    python3 perfbench/record_reference.py

Runs one untraced pass of every workload at full size and the default
seed, with no reference, and stores each task's digest.  It refuses to
write when any instance fails its own checks.  The reference pins the
library's outputs: regenerate it only for a change that is meant to alter
them, and say which.
"""

import json
import sys

import run


def main():
    reference = {}
    for name in sorted(run.WORKLOADS):
        _, result, details = run.measure(name, run.DEFAULT_SEED, 0, 0,
                                         reference={})
        if not result["correct"]:
            print(f"{name}: {result['failed']} instances failed; "
                  f"reference not written", file=sys.stderr)
            return 1
        reference[name] = dict(sorted(details["digests"].items()))
        print(f"{name}: {len(reference[name])} digests")
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
