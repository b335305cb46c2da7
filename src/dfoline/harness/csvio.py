"""Schema-stable CSV output and per-record seed derivation.

Files are UTF-8 with LF line endings, a single comment line carrying the
config hash, then a header row and data rows.  Floats are written with repr,
which round-trips exactly; missing values (unknown phi, skipped theta) are
empty cells.  A file is written under a temporary name and takes its own
name only once it is complete.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import os

import numpy as np

ACCURACY_COLUMNS = [
    "experiment_id", "function", "n", "estimator", "method", "N", "sigma",
    "trial", "seed", "theta", "log10_theta", "evals", "status",
]

SUMMARY_COLUMNS = [
    "experiment_id", "function", "n", "estimator", "method", "N", "sigma",
    "count", "skipped", "failed", "mean_log10_theta", "q1_log10_theta",
    "median_log10_theta", "q3_log10_theta",
]

TRACE_COLUMNS = [
    "k", "evals", "f", "phi", "grad_norm_true", "g_norm", "alpha", "theta_k",
    "status",
]

AGGREGATE_COLUMNS = [
    "function", "method", "k", "n_seeds", "phi_mean", "phi_min", "phi_max",
    "grad_norm_true_mean", "evals_mean",
]


def record_seed(*parts) -> int:
    """Stable 64-bit seed from the identifying parts of one record.

    Every record derives its own root seed this way, so any single trial can
    be reproduced in isolation from the values in its output row.
    """
    key = ":".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "big")


#: Iterates of a trace, or k of an envelope, made into rows at once.
ROW_BLOCK = 256


@contextlib.contextmanager
def csv_file(path, columns: list[str], cfg_hash: str):
    """Yield ``write(rows, nan_free=False, fmt=None)``, which writes rows
    (sequences of cells in ``columns`` order) as they are iterated, under a
    config-hash comment line.  The file is ``path`` + ".tmp" until the block
    ends, then renamed to ``path``; if the block raises, it is removed and
    ``path`` is left as it was.  The csv module writes a float by repr and
    None as empty; each NaN cell is written as None, by a pass over every
    cell unless the caller says the rows hold no NaN.  Given ``fmt``, a
    %-format of one whole line, each row is written as ``fmt % row``
    instead: the caller vouches that the csv module would write the same."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(f"# config_sha256={cfg_hash}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)

            def write(rows, nan_free=False, fmt=None):
                if fmt is not None:
                    fh.writelines(map(fmt.__mod__, rows))  # one line alive at a time
                else:
                    writer.writerows(rows if nan_free else
                                     ([v if v == v else None for v in row] for row in rows))

            yield write
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


def write_csv(path, columns: list[str], rows, cfg_hash: str) -> None:
    """Write rows (dicts keyed by column) as one block of :func:`csv_file`."""
    with csv_file(path, columns, cfg_hash) as write:
        write(map(row.get, columns) for row in rows)


def _cells(column: np.ndarray) -> list:
    """A column's values as Python numbers, None where NaN: a column with
    no NaN, as most are, needs no pass over its cells."""
    cells = column.tolist()
    return [None if v != v else v for v in cells] if np.isnan(column).any() else cells


#: One trace row with no NaN cell, as the csv module writes it: the ints
#: k and evals by str, the floats by repr, and the status word unquoted.
_TRACE_ROW = "%d,%d,%r,%r,%r,%r,%r,%r,%s\n"


def write_trace(path, trace, cfg_hash: str) -> None:
    """Write an optimization trace, held as one array per column, ROW_BLOCK
    iterates at a time: k, the trace's column of each name in TRACE_COLUMNS
    as Python numbers, and the status, "ok" but on the last iterate, which
    holds ``trace.status``.  A block with no NaN cell is formatted by
    _TRACE_ROW, one line at a time; one with a NaN goes through the csv
    writer."""
    size = len(trace.evals)
    with csv_file(path, TRACE_COLUMNS, cfg_hash) as write:
        for lo in range(0, size, ROW_BLOCK):
            hi = min(lo + ROW_BLOCK, size)
            status = ["ok"] * (hi - lo - 1) + [trace.status if hi == size else "ok"]
            columns = [getattr(trace, name)[lo:hi] for name in TRACE_COLUMNS[1:-1]]
            if any(np.isnan(column).any() for column in columns):
                write(zip(range(lo, hi), *map(_cells, columns), status), nan_free=True)
            else:
                write(zip(range(lo, hi), *(column.tolist() for column in columns), status),
                      fmt=_TRACE_ROW)
