"""Plot-ready dataset container with deterministic CSV/JSON writers.

Outputs are reproducible byte for byte: fixed significant-digit
formatting, negative zero normalized away, metadata keys sorted, and no
timestamps or machine identifiers.  Rerunning a config must produce
identical files.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Dataset"]


def _normalize(value, precision):
    """Round a cell to the output precision; floats become clean Python floats."""
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    v = float(value)
    v = float(f"{v:.{precision}g}")
    return 0.0 if v == 0.0 else v  # drops -0.0


def _format_cell(value, precision):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = _normalize(value, precision)
    return f"{v:.{precision}g}"


@dataclass
class Dataset:
    """Named columns plus provenance metadata.

    ``columns`` preserves insertion order (it is the CSV column order);
    all columns must have equal length.
    """

    name: str
    meta: dict = field(default_factory=dict)
    columns: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = {k: len(v) for k, v in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"ragged columns: {lengths}")

    def write_csv(self, path, precision: int = 12):
        with open(path, "w") as fh:
            for key in sorted(self.meta):
                fh.write(f"# {key} = {_format_cell(self.meta[key], precision)}\n")
            names = list(self.columns)
            fh.write(",".join(names) + "\n")
            cols = [list(self.columns[n]) for n in names]
            for row in zip(*cols):
                fh.write(",".join(_format_cell(v, precision) for v in row) + "\n")

    def write_json(self, path, precision: int = 12):
        payload = {
            "meta": {k: _normalize(v, precision) for k, v in self.meta.items()},
            "columns": {
                k: [_normalize(v, precision) for v in vals]
                for k, vals in self.columns.items()
            },
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")

    def write(self, directory, formats=("csv",), precision: int = 12):
        """Write one file per format into ``directory``; returns the paths."""
        os.makedirs(directory, exist_ok=True)
        paths = []
        for fmt in formats:
            path = os.path.join(directory, f"{self.name}.{fmt}")
            if fmt == "csv":
                self.write_csv(path, precision)
            elif fmt == "json":
                self.write_json(path, precision)
            else:
                raise ValueError(f"unknown output format {fmt!r}")
            paths.append(path)
        return paths
