"""Record the reference values that run.py compares each unit's outputs to.

    python3 perfbench/record_reference.py

Runs one full-size unit of every workload for each of the seeds 0 to 31,
refuses to record outputs that fail their own checks, and writes
perfbench/reference.json. The recorded values are the program's results at
the commit where this was run; re-record only for a change that is meant to
alter results beyond round-off, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

SEEDS = range(32)


def rounded(node):
    """Floats cut to 12 significant digits, far inside the 1e-9 tolerance."""
    if isinstance(node, float):
        return float(f"{node:.12g}")
    if isinstance(node, dict):
        return {key: rounded(value) for key, value in node.items()}
    if isinstance(node, list):
        return [rounded(value) for value in node]
    return node


def dump(reference: dict, path: Path) -> None:
    """One line per workload and seed, so a re-record diffs readably."""
    blocks = []
    for name in sorted(reference):
        seeds = reference[name]
        lines = ",\n".join(
            f"  {json.dumps(seed)}: "
            + json.dumps(rounded(seeds[seed]), sort_keys=True, separators=(",", ":"))
            for seed in sorted(seeds, key=int)
        )
        blocks.append(f" {json.dumps(name)}: {{\n{lines}\n }}")
    path.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


def main() -> None:
    workdir = ROOT / ".perfbench_work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    reference: dict = {}
    try:
        for name, wl in workloads.WORKLOADS.items():
            for seed in SEEDS:
                inputs = wl.make_inputs(seed, workdir=workdir)
                output = wl.run(inputs)
                bad = [why for ok, why in wl.check(inputs, output, None) if not ok]
                if bad:
                    sys.exit(f"{name} seed {seed} fails its checks: {bad[:3]}")
                reference.setdefault(name, {})[str(seed)] = wl.record(inputs, output)
                print(f"recorded {name} seed {seed}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    dump(reference, HERE / "reference.json")


if __name__ == "__main__":
    main()
