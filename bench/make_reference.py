"""Regenerate the stored reference outputs of one workload.

    python3 bench/make_reference.py --workload mimo-verify

Runs every pool scenario once with the checkout's hfo and writes the summary
outputs to reference/<workload>.json beside this file. Do this only when a
change to hfo is meant to change those outputs, and say so in the change.
"""

import argparse
import json
import sys

import run

# Scenarios with stored references per workload: more than a run of the
# fastest workload uses at this commit. Jobs past the pool get fresh
# scenarios that are checked by the invariants only.
POOL_SIZE = 256


def main() -> int:
    root = run.checkout_root()
    if root is None:
        return 2
    import harness
    import scenarios

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(scenarios.WORKLOADS))
    args = parser.parse_args()
    workload = scenarios.WORKLOADS[args.workload]
    summaries = harness.build_reference(workload, root, POOL_SIZE)
    path = root / "bench" / "reference" / f"{workload.name}.json"
    write_reference(path, workload.name, summaries)
    print(f"wrote {len(summaries)} scenarios to {path}")
    return 0


def write_reference(path, name: str, summaries: list) -> None:
    """One scenario per line, so that a diff shows which ones changed."""
    import scenarios

    head = json.dumps({"workload": name, "rtol": scenarios.RTOL,
                       "atol": scenarios.ATOL})
    lines = ",\n".join(json.dumps(s) for s in summaries)
    path.write_text(f'{head[:-1]}, "scenarios": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    sys.exit(main())
