"""Recompute reference.json: the seed's K_p at every ladder modulus of the
kernel categories that have no closed form (``REFERENCE_CATEGORIES``).

    python3 perfbench/make_reference.py

The checked-in values were computed by the code they guard.  Rerun this only
for a change that is meant to lower K_p, and say so where the change is
described: the checks let K_p rise freely.
"""

from __future__ import annotations

import env

env.pin_threads()  # before numpy is imported

import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    cli = run.import_program()
    table = {}
    for label in workloads.REFERENCE_CATEGORIES:
        moduli = workloads.ladder_values(*workloads.KERNEL_POINTS[label][2]).tolist()
        values = []
        for modulus in moduli:
            out = io.StringIO()
            with redirect_stdout(out):
                cli.main(list(workloads.kernel_point_argv(label, complex(modulus))))
            values.append(float(json.loads(out.getvalue())["K_p"]))
            print(f"{label} |z| = {modulus:.6f}: K_p = {values[-1]!r}", file=sys.stderr)
        table[label] = {"modulus": moduli, "K_p": values}
    document = {
        "about": "K_p of the seed code at z = modulus (angle 0); see make_reference.py",
        "environment": env.describe(),
        "categories": table,
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
