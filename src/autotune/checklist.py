"""Reproducibility checklist rendering.

Seventeen items cover the questions a reader needs answered to trust a tuning
experiment: seed discipline, search spaces, cost metric, budget parity,
incumbents, code and hardware. Items the journals can prove are answered
automatically: items 1 and 12 from each run's :func:`~autotune.protocol.audit`
verdicts on its own seed plan, and equal spaces, budgets and plans from the
headers. Anything unprovable renders as UNANSWERED rather than guessed.
Rendering is deterministic: the same journals always produce byte-identical
text.
"""
from __future__ import annotations

from dataclasses import dataclass

from .journal import Journal
from .protocol import audit
from .space import describe, parse_space

UNANSWERED = "UNANSWERED"


@dataclass
class ChecklistReport:
    items: list  # (number, lines)

    def render(self) -> str:
        out = ["Reproducibility checklist", "=" * 25, ""]
        for number, lines in self.items:
            first, *rest = lines
            out.append(f"{number:2d}. {first}")
            out.extend(f"    {line}" for line in rest)
        return "\n".join(out) + "\n"


def _yes_no(value: bool | None) -> str:
    if value is None:
        return UNANSWERED
    return "yes" if value else "no"


def _every(holds) -> bool | None:
    """False when any run fails a rule, else None when any cannot tell (or
    there is no run), else True."""
    holds = list(holds)
    return False if False in holds else None if None in holds or not holds else True


def _agree(headers: list[dict], key: str) -> bool | None:
    """Whether every header gives the same ``key``; None when one gives none."""
    values = [h.get(key) for h in headers]
    if not values or None in values:
        return None
    return all(v == values[0] for v in values)


def _seed_line(doing: str, kind: str, plans: list[dict]) -> str:
    """Item 10 or 11: each distinct ``kind`` seed list, in first-seen order."""
    lists = dict.fromkeys(tuple(p[kind]) for p in plans if p.get(kind))
    if not lists:
        return f"{doing} was done across {UNANSWERED} {kind} seeds"
    return f"{doing} was done across " + "; ".join(
        f"{len(seeds)} {kind} seeds which were: {list(seeds)}" for seeds in lists
    )


def emit_checklist(journals: list[Journal]) -> ChecklistReport:
    """Render the 17-item checklist from completed run journals.

    Seeds and spaces come from the journal headers; item 3 prints each space
    in the space-file syntax, so it parses back. What no journal records
    (the code's URL, the software environment, the hardware) is unanswered.
    """
    headers = [j.header or {} for j in journals]
    methods = [h.get("method", "?") for h in headers]
    plans = [h.get("seed_plan") or {} for h in headers]
    verdicts = [audit(j) for j in journals]
    on_tuning_seeds = _every(v["tuning_seeds_only"].holds for v in verdicts)
    on_test_seeds = _every(v["test_seeds_exactly"].holds for v in verdicts)
    settings_available = _every(bool(p.get("tuning") and p.get("test")) for p in plans)

    budgets = [h.get("budget_runs") for h in headers]
    known = sorted({str(b) for b in budgets if b is not None})
    if not known:
        budget_text = UNANSWERED
    elif len(known) == 1:
        budget_text = known[0] + " full runs"
    else:
        budget_text = ", ".join(f"{m}={b}" for m, b in zip(methods, budgets))
    budgets_equal = _agree(headers, "budget_runs")
    same_budgets = f"The tuning budget was the same for all tuned methods: {_yes_no(budgets_equal)}"
    if budgets_equal is False:
        same_budgets += " (" + ", ".join(f"{m}: {b}" for m, b in zip(methods, budgets)) + ")"

    spaces: dict[str, str] = {}
    for h, m in zip(headers, methods):
        if h.get("space_text"):
            spaces.setdefault(m, h["space_text"])
    space_lines = []
    for m in sorted(spaces):
        space_lines.append(f"{m}:")
        space_lines.extend(f"- {p.name}: {describe(p)}" for p in parse_space(spaces[m]).params)

    incumbent_lines = []
    for j, h, m in zip(journals, headers, methods):
        inc = j.final_incumbent()
        if inc:
            incumbent_lines.append(f"{m} on {h.get('objective', {}).get('kind', '?')}:")
            incumbent_lines.extend(f"- {k}: {inc['config'][k]}" for k in sorted(inc["config"]))

    metrics = sorted({h["cost_metric"] for h in headers if h.get("cost_metric")})
    items = [
        [f"Are there training and test settings available? {_yes_no(settings_available)}",
         f"- Is only the training setting used for training? {_yes_no(on_tuning_seeds)}",
         f"- Is only the training setting used for tuning? {_yes_no(on_tuning_seeds)}",
         f"- Are final results reported on the test setting? {_yes_no(on_test_seeds)}"],
        ["Hyperparameters were tuned using autotune, based on: "
         + (", ".join(sorted(set(methods))) or UNANSWERED)],
        ["The configuration space was:", *(space_lines or [UNANSWERED])],
        ["Search spaces and ranges are shared wherever methods share hyperparameters: "
         + _yes_no(_agree(headers, "space_digest"))],
        ["Cost metric(s) optimized: " + ("; ".join(metrics) or UNANSWERED)],
        [f"The tuning budget was: {budget_text}"],
        [same_budgets],
        ["Budget given in time, hardware comparable: "
         + ("not applicable (budget counted in full runs, not time)" if known else UNANSWERED)],
        ["All reported methods were tuned with the settings above: "
         + _yes_no(_every([_agree(headers, "seed_plan"), budgets_equal]))],
        [_seed_line("Tuning", "tuning", plans)],
        [_seed_line("Testing", "test", plans)],
        [f"Are all results reported on the test seeds? {_yes_no(on_test_seeds)}"],
        ["The final incumbent configurations reported were:", *(incumbent_lines or [UNANSWERED])],
        [f"Code for reproducing these experiments: {UNANSWERED}"],
        ["The code includes the tuning process: "
         + _yes_no(any(j.records for j in journals) or None)],
        [f"An exact software environment is bundled with the code: {UNANSWERED}"],
        ["The following hardware was used:", UNANSWERED],
    ]
    return ChecklistReport(items=list(enumerate(items, 1)))
