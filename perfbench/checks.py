"""Output checks and failure accounting.

An op is completed when ``main`` returned (or exited) with code 0, 1 or 2 and
stdout holds exactly one JSON document.  Anything else, an escaping
exception included, is a failed op.  A completed op whose exit code or stdout
differs from the reference is failed too, and makes the run incorrect.
"""

from __future__ import annotations

import json
from pathlib import Path

COMPLETED_EXITS = (0, 1, 2)

# Generated models satisfy the axioms by construction, so these verbs must
# report pass on every draw.
MUST_PASS = ("validate", "imhs")


def completed(result: dict) -> bool:
    return (result["exception"] is None and result["exit"] in COMPLETED_EXITS
            and result["docs"] == 1)


def check_op(result: dict, reference: dict, verb: str):
    """Return (ok, problem).

    ok is False for a failed op.  problem is None unless the output
    contradicts the reference, which makes the run incorrect.  When the
    reference op itself failed there is nothing to compare a completed op
    with; it counts as completed and unverified.
    """
    if not completed(result):
        if completed(reference):
            return False, f"{verb}: failed where the reference completed " \
                          f"({result['exception'] or result['exit']})"
        return False, None
    if verb in MUST_PASS and result["verdict"] != "pass":
        return False, f"{verb}: verdict {result['verdict']!r} on generator output"
    if not completed(reference):
        return True, None
    if (result["exit"], result["stdout_sha256"]) != (reference["exit"],
                                                     reference["stdout_sha256"]):
        return False, f"{verb}: exit code or stdout differs from the reference"
    return True, None


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def corpus_gate(entries: list[dict], expected_dir: Path) -> list[str]:
    """Problems with the corpus reports of one pass; empty when all match.

    entries are the reports ``cli.corpus_entry`` returned, one per instance;
    each must equal, byte for byte in canonical form, the committed
    ``<name>.expected.json``, and every committed instance must be there.
    """
    problems = []
    seen = set()
    for item in entries:
        name = Path(item["path"]).stem
        seen.add(name)
        want = expected_dir / f"{name}.expected.json"
        if not want.exists():
            problems.append(f"{name}: no committed expected report")
        elif canonical(item["entry"]) != want.read_text(encoding="utf-8"):
            problems.append(f"{name}: report differs from {want.name}")
    for inst in sorted(expected_dir.glob("*.expected.json")):
        name = inst.name[: -len(".expected.json")]
        if name not in seen:
            problems.append(f"{name}: no report produced")
    return problems
