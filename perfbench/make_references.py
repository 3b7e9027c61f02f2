"""Regenerate references.json from the program at the current commit.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/make_references.py

Runs every workload once at the default seed, full and smoke size, and
keeps the numbers the correctness gate compares: per sweep row lambda,
lambda_as, c and d, the refinement gap, the manifest flags (prose notes
excluded) and the sweep extras; lambda, c and d of the foliated check.
The field transforms are checked against invariants and need no numbers.
Only regenerate when a change to the numbers is intended and explained.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import workloads

DEFAULT_SEED = 0
SWEEP_EXTRAS = {"sweep_p": ("competitor_objectives",), "sweep_theta": ("reference_eigenvalue",)}


def reference(name: str, smoke: bool) -> dict:
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        wl = workloads.WORKLOADS[name](DEFAULT_SEED, smoke, Path(tmp))
        wl.prepare()
        wl.run()
        if name == "field_transforms":
            return {}
        if name == "check_foliated_annulus":
            res = json.loads((wl.out / "check_foliated.json").read_text())["result"]
            return {k: res[k] for k in ("lambda", "c", "d")}
        man = json.loads(wl.manifest_bytes())
        return {
            "rows": [{k: r[k] for k in ("value", "lambda", "lambda_as", "c", "d")} for r in man["rows"]],
            "grid_tol": man["grid_tol"],
            "flags": {k: v for k, v in man["flags"].items() if not k.endswith("_note")},
            "extras": {k: man[k] for k in SWEEP_EXTRAS[name]},
        }


def main() -> int:
    refs = {
        size: {name: reference(name, size == "smoke") for name in workloads.WORKLOADS}
        for size in ("full", "smoke")
    }
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
