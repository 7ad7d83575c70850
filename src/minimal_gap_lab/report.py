"""Deterministic report rendering.

Reports are nested key-value trees rendered to UTF-8 text with a fixed field
order and every float printed at 17 significant digits, so identical configs
produce byte-identical reports across runs and worker counts.

numpy is imported only by `summary`, so rendering the exact engine's reports
never loads it.
"""

from __future__ import annotations

import json
import sys


def _is_numpy(value, kind: str) -> bool:
    """isinstance(value, numpy.<kind>), without importing numpy: before
    numpy is imported, no numpy value can exist."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(value, getattr(np, kind))


def fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int) or _is_numpy(value, "integer"):
        return str(int(value))
    if isinstance(value, float) or _is_numpy(value, "floating"):
        x = float(value)
        if x == 0.0:
            return "0"
        return format(x, ".17g")
    return str(value)


def render_tree(tree: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in tree.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(render_tree(value, indent + 1))
        elif isinstance(value, (list, tuple)):
            rendered = ", ".join(fmt(v) for v in value)
            lines.append(f"{pad}{key}: [{rendered}]")
        else:
            lines.append(f"{pad}{key}: {fmt(value)}")
    return "\n".join(lines)


def jsonable(tree):
    if isinstance(tree, dict):
        return {k: jsonable(v) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return [jsonable(v) for v in tree]
    if _is_numpy(tree, "integer"):
        return int(tree)
    if _is_numpy(tree, "floating"):
        return float(tree)
    if _is_numpy(tree, "bool_"):
        return bool(tree)
    return tree


def write_json(tree: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(tree), fh, indent=2)
        fh.write("\n")


def write_csv(path, header: list[str], rows) -> None:
    """RFC-style comma separation, header row, LF line endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(x) for x in row) + "\n")


def summary(values) -> dict:
    import numpy as np

    values = np.asarray(values, dtype=float)
    return {
        "min": float(np.min(values)),
        "max": float(np.max(values)),
        "mean": float(np.mean(values)),
    }
