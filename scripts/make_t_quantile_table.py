"""Regenerate the committed Student-t quantile table under ``tests/data/``.

The table holds two-sided critical values ``t.ppf(0.5 + confidence / 2,
dof)`` from :mod:`scipy.stats`, the independent reference that
``tests/test_metrics_statistics.py`` checks
``repro.metrics.statistics._critical_value`` against.  The package
itself never imports scipy; only this script needs it.  The file
records the scipy version that produced it.

Run from the repository root::

    python scripts/make_t_quantile_table.py
"""

from __future__ import annotations

import json
from pathlib import Path

import scipy
from scipy import stats

CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)
DOFS = tuple(range(1, 201)) + (500, 1000, 2000)
OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "student_t_quantiles.json"


def main() -> None:
    table = {
        "description": "two-sided Student-t critical values: scipy.stats.t.ppf(0.5 + confidence / 2, dof)",
        "scipy": scipy.__version__,
        "confidences": list(CONFIDENCES),
        "dofs": list(DOFS),
        "values": [
            [float(stats.t.ppf(0.5 + confidence / 2.0, dof)) for dof in DOFS]
            for confidence in CONFIDENCES
        ],
    }
    # One line per field and per confidence row keeps the file diffable.
    rows = ",\n  ".join(json.dumps(row) for row in table.pop("values"))
    fields = "".join(f" {json.dumps(key)}: {json.dumps(value)},\n" for key, value in table.items())
    OUT.write_text("{\n" + fields + ' "values": [\n  ' + rows + "\n ]\n}\n")
    print(f"wrote {OUT} ({len(CONFIDENCES)} x {len(DOFS)} values, scipy {scipy.__version__})")


if __name__ == "__main__":
    main()
