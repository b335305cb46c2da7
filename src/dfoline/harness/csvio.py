"""Schema-stable CSV output and per-record seed derivation.

Files are UTF-8 with LF line endings, a single comment line carrying the
config hash, then a header row and data rows.  Floats are written with repr,
which round-trips exactly; missing values (unknown phi, skipped theta) are
empty cells.
"""

from __future__ import annotations

import csv
import hashlib

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


def write_csv(path, columns: list[str], rows, cfg_hash: str) -> None:
    """Write rows (dicts keyed by column) under a config-hash comment line.
    The csv module writes a float by repr and None (a NaN here) as empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_sha256={cfg_hash}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([v if v == v else None for v in map(row.get, columns)] for row in rows)
