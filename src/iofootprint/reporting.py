"""Machine-readable report rendering.

Reports are flat ``key = value`` lines. Nested mappings join their keys
with dots, floats are written with 17 significant digits (so parsing the
text back reproduces the exact binary value), booleans as ``true`` and
``false``. Key order follows insertion order and is part of the contract.
"""

from __future__ import annotations

import numbers

import numpy as np


# A ``%`` spec, so that a template of many can format a whole row at once.
FLOAT_SPEC = "%.17g"


def format_float(value) -> str:
    """17 significant digits: enough for every double to read back exactly."""
    return FLOAT_SPEC % float(value)


def format_value(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return format_float(value)
    return str(value)


def flatten(tree: dict, prefix: str = "") -> list[str]:
    """Flatten a nested mapping into ``key = value`` lines."""
    lines = []
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, dict):
            lines.extend(flatten(value, path))
        else:
            lines.append(f"{path} = {format_value(value)}")
    return lines


def render(tree: dict) -> str:
    return "\n".join(flatten(tree)) + "\n"


def sector_map(sectors, values) -> dict:
    """Pair sector labels with vector entries, preserving order."""
    return {label: float(v) for label, v in zip(sectors, values)}
