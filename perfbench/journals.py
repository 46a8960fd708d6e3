"""Journal arithmetic: digests, the resume cut, and the facts metrics use.

Works on the JSON-lines journal files autotune writes, without importing
autotune, so the checks stay independent of the code they check.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

GROUP = "group"


def read_journal(path: str) -> list[dict]:
    """All records of a journal file, header first."""
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def normalise(record: dict) -> dict:
    """Drop the volatile ``wall_time``; reduce checkpoint paths to basenames,
    since a copied or resumed run directory has another prefix."""
    out = {k: v for k, v in record.items() if k != "wall_time"}
    if out.get("ckpt"):
        out["ckpt"] = os.path.basename(out["ckpt"])
    return out


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def journal_digest(records: list[dict]) -> str:
    return digest([normalise(r) for r in records])


def result_summary(records: list[dict]) -> dict:
    """Incumbent, tuning cost, test costs and spend of one repetition.

    These do not depend on the order in which concurrent groups were
    journaled; ``math.fsum`` keeps the spend independent of it too.
    """
    incumbents = [r for r in records if r.get("t") == "incumbent"]
    groups = [r for r in records if r.get("t") == GROUP]
    final = incumbents[-1] if incumbents else {}
    return {
        "incumbent": final.get("config"),
        "tuning_cost": final.get("cost"),
        "test_costs": [r["mean_cost"] for r in groups if r.get("purpose") == "test"],
        "spend": tuning_spend(records),
    }


def tuning_spend(records: list[dict]) -> float:
    """Spend charged to the budget: tuning and warmstart groups, not tests."""
    return math.fsum(
        r["spend"] for r in records
        if r.get("t") == GROUP and r.get("purpose") in ("tune", "warmstart")
    )


def equivalents(records: list[dict]) -> float:
    """Full-run equivalents evaluated: group spend over every purpose."""
    return math.fsum(r["spend"] for r in records if r.get("t") == GROUP)


def cut_lines(lines: list[str]) -> list[str]:
    """Keep a journal's lines up to and including its middle group record.

    With n group records, the cut keeps the first n // 2 of them and drops
    everything after the last one kept, as a kill right after that append
    would.
    """
    kinds = [json.loads(line).get("t") for line in lines]
    keep = kinds.count(GROUP) // 2
    seen = 0
    for i, kind in enumerate(kinds):
        if kind == GROUP:
            seen += 1
            if seen == keep:
                return lines[: i + 1]
    return lines[:1]  # fewer than two groups: only the header survives


def write_cut(src: str, dst: str) -> None:
    """Write the journal ``src`` to ``dst`` cut by :func:`cut_lines`.

    Only the journal is copied: the records kept name their checkpoints by
    path, and those files stay where the uninterrupted run wrote them.
    """
    with open(src, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().split("\n") if line.strip()]
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write("\n".join(cut_lines(lines)) + "\n")


def out_of_order_groups(records: list[dict]) -> int:
    """Group records whose journal position differs from their position in
    group-id order, which is the order the groups were started in."""
    ids = [r["group"] for r in records if r.get("t") == GROUP]
    return sum(a != b for a, b in zip(ids, sorted(ids)))


def spend_by_method(records: list[dict]) -> tuple[str, float, int]:
    """(method kind, tuning spend, ``budget_runs``) from one journal."""
    header = records[0]
    return header["kind"], tuning_spend(records), int(header["budget_runs"])
