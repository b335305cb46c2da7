"""Every ledger case writes the bytes the ledger holds (see ``ledger.py``).

A deliberate output change rewrites the ledger in the same commit with
``PYTHONPATH=src python tests/ledger.py``.  In an environment other than
the ledger's, where phi's bits may differ, the cases are skipped with the
difference named: neither a pass nor a byte change.
"""

import json

import pytest

import ledger

RECORDED = json.loads(ledger.LEDGER.read_text(encoding="utf-8"))


def environment_difference() -> str | None:
    """What differs between this environment and the ledger's, or None."""
    here, there = ledger.environment(), RECORDED["environment"]
    if here["numpy"] != there["numpy"]:
        return f"numpy {here['numpy']}, the ledger's is numpy {there['numpy']}"
    if here["openblas_core"] != there["openblas_core"]:
        return (f"OpenBLAS kernel {here['openblas_core']!r}, the ledger's is "
                f"{there['openblas_core']!r}")
    targets = [f"{name} dispatches to {target} (the ledger's: "
               f"{there['float64_ufunc_targets'].get(name)})"
               for name, target in here["float64_ufunc_targets"].items()
               if there["float64_ufunc_targets"].get(name) != target]
    return "float64 " + "; ".join(targets) if targets else None


def test_ledger_lists_every_case():
    assert sorted(RECORDED["cases"]) == sorted(ledger.CASES)


@pytest.mark.parametrize("name", list(ledger.CASES))
def test_case_writes_the_ledgers_bytes(name, tmp_path):
    """Each output of the case has the ledger's digest; a mismatch names the
    case, the output and its first differing line."""
    if (difference := environment_difference()) is not None:
        pytest.skip(f"output bits not comparable here: {difference}")
    problems = ledger.differences(name, RECORDED["cases"][name],
                                  ledger.run_case(name, str(tmp_path)))
    assert not problems, "\n".join(problems)
