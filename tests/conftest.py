"""Helpers shared by the test modules."""

import csv
import io

import pytest

from entropybench.cli import rows_to_csv

# CSV columns that hold integers; the others hold strings (reprs of floats,
# branch and method names)
_INT_COLUMNS = ("seed", "d", "rank", "shots", "ledger_samples", "predicted_samples", "pass")


def _csv_rows(points) -> list[dict]:
    """The rows of `run_experiment`'s per-point records, one dict per CSV
    line, read back from `rows_to_csv` with the integer columns cast."""
    rows = list(csv.DictReader(io.StringIO(rows_to_csv(points))))
    for row in rows:
        for column in _INT_COLUMNS:
            row[column] = int(row[column])
    return rows


@pytest.fixture
def csv_rows():
    return _csv_rows
