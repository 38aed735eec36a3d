"""How far two output trees of ``scripts/identity_outputs.sh`` drift apart.

    python3 scripts/drift.py A B

A and B are output directories of ``identity_outputs.sh``, such as a parent
tree's and a change's.  Every ``.tsv`` file is compared cell by cell.  A
cell that reads as a float on both sides (not an int, not ``NA``, not a
word) is a float cell, and only its relative difference
``|a - b| / max(|a|, |b|)`` is kept; every other differing cell (a header,
an int, a bool, ``NA``, a label, or a cell that only one side has) is a
non-float change, and is printed with its file, line and column.  Every
other file (``run.meta``, ``cli.log``, checkpoints) is compared byte for
byte; a difference there cannot be read cell by cell, so it counts as a
non-float change too.  ``identity.sha256`` is skipped: it differs whenever
anything does.

The script prints one row per ``.tsv`` file: the number of differing cells,
the largest relative difference among float cells and the number of
non-float changes; then one line per non-float change and per file that
only one side has.  It exits 1 if there is any of these, and 0 when every
difference is a float that moved.
"""

import argparse
import math
import re
import sys
from pathlib import Path

SKIPPED = {"identity.sha256"}
INT = re.compile(r"-?[0-9]+")


def as_float(cell):
    """The float a cell holds, or None for an int, a word or ``NA``."""
    if INT.fullmatch(cell):
        return None
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def files(root):
    return {str(p.relative_to(root)) for p in root.rglob("*")
            if p.is_file() and p.name not in SKIPPED}


def compare_table(text_a, text_b):
    """(differing cells, largest float relative difference, non-float changes)
    of one TSV; each change is (line, column, cell in A, cell in B)."""
    rows_a = [line.split("\t") for line in text_a.splitlines()]
    rows_b = [line.split("\t") for line in text_b.splitlines()]
    header = rows_a[0] if rows_a and all(as_float(c) is None for c in rows_a[0]) else None
    cells, largest, changes = 0, 0.0, []
    for line in range(max(len(rows_a), len(rows_b))):
        row_a = rows_a[line] if line < len(rows_a) else []
        row_b = rows_b[line] if line < len(rows_b) else []
        for column in range(max(len(row_a), len(row_b))):
            a = row_a[column] if column < len(row_a) else None
            b = row_b[column] if column < len(row_b) else None
            if a == b:
                continue
            cells += 1
            x, y = (None, None) if a is None or b is None else (as_float(a), as_float(b))
            if x is None or y is None:
                name = header[column] if header and column < len(header) else str(column + 1)
                changes.append((line + 1, name, a, b))
            else:
                scale = max(abs(x), abs(y))  # 0 for 0.0 against -0.0
                largest = max(largest, abs(x - y) / scale if scale else 0.0)
    return cells, largest, changes


def drift(a, b):
    """The report lines of trees ``a`` and ``b`` and the exit status."""
    names_a, names_b = files(a), files(b)
    lines, problems = ["file\tcells\tmax_rel\tnon_float"], []
    for name in sorted(names_a & names_b):
        bytes_a, bytes_b = (a / name).read_bytes(), (b / name).read_bytes()
        if not name.endswith(".tsv"):
            if bytes_a != bytes_b:
                problems.append(f"{name}\tdiffers, not a table")
            continue
        cells, largest, changes = compare_table(bytes_a.decode(), bytes_b.decode())
        lines.append(f"{name}\t{cells}\t{largest:.2g}\t{len(changes)}")
        problems += [f"{name}\tline {line}\tcolumn {column}\t{x!r} -> {y!r}"
                     for line, column, x, y in changes]
    problems += [f"{name}\tonly in {a}" for name in sorted(names_a - names_b)]
    problems += [f"{name}\tonly in {b}" for name in sorted(names_b - names_a)]
    return lines + problems, 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    lines, status = drift(args.a, args.b)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
