"""Reproducibility checklist rendering.

Seventeen items cover the questions a reader needs answered to trust a tuning
experiment: seed discipline, search spaces, cost metric, budget parity,
incumbents, code and hardware. Items the journals can prove (seed
disjointness, equal budgets, test-seed reporting) are answered automatically;
anything unprovable renders as UNANSWERED rather than guessed. Rendering is
deterministic: the same journals always produce byte-identical text.
"""
from __future__ import annotations

from dataclasses import dataclass

from .journal import TRIAL, Journal
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


def emit_checklist(journals: list[Journal]) -> ChecklistReport:
    """Render the 17-item checklist from completed run journals.

    Seeds and spaces come from the journal headers; item 3 prints each space
    in the space-file syntax, so it parses back. What no journal records
    (the code's URL, the software environment, the hardware) is unanswered.
    """
    headers = [j.header or {} for j in journals]
    methods = [h.get("method", "?") for h in headers]

    tuning_seeds: tuple[int, ...] = ()
    test_seeds: tuple[int, ...] = ()
    if headers and headers[0].get("seed_plan"):
        tuning_seeds = tuple(headers[0]["seed_plan"].get("tuning", ()))
        test_seeds = tuple(headers[0]["seed_plan"].get("test", ()))

    trials = [[r for r in j.records if r["t"] == TRIAL] for j in journals]
    any_trials = any(trials)

    # journal-provable booleans
    tune_seeds_used = {
        r["seed"] for ts in trials for r in ts if r.get("purpose") in ("tune", "warmstart")
    }
    test_seeds_used = {r["seed"] for ts in trials for r in ts if r.get("purpose") == "test"}
    plan_known = bool(tuning_seeds and test_seeds)
    settings_available = plan_known if (plan_known or any_trials) else None
    only_train_for_tuning = None
    results_on_test = None
    all_on_test = None
    if any_trials and plan_known:
        only_train_for_tuning = tune_seeds_used <= set(tuning_seeds)
        results_on_test = bool(test_seeds_used) and test_seeds_used <= set(test_seeds)
        all_on_test = (
            bool(test_seeds_used)
            and test_seeds_used <= set(test_seeds)
            and all(set(test_seeds) <= {r["seed"] for r in ts if r.get("purpose") == "test"} for ts in trials)
        )

    budgets = [h.get("budget_runs") for h in headers]
    budgets_known = [b for b in budgets if b is not None]
    budgets_equal = None
    if len(budgets_known) == len(budgets) and budgets_known:
        budgets_equal = len(set(budgets_known)) == 1

    digests = [h.get("space_digest") for h in headers]
    same_space = None
    if digests and all(d is not None for d in digests):
        same_space = len(set(digests)) == 1

    metrics = sorted({h.get("cost_metric", "") for h in headers if h.get("cost_metric")})

    items: list[tuple[int, list[str]]] = []

    sub = [
        f"- Is only the training setting used for training? {_yes_no(only_train_for_tuning)}",
        f"- Is only the training setting used for tuning? {_yes_no(only_train_for_tuning)}",
        f"- Are final results reported on the test setting? {_yes_no(results_on_test)}",
    ]
    items.append(
        (1, [f"Are there training and test settings available? {_yes_no(settings_available)}"] + sub)
    )

    if methods:
        items.append(
            (2, ["Hyperparameters were tuned using autotune, based on: "
                 + ", ".join(sorted(set(methods)))])
        )
    else:
        items.append((2, [f"Hyperparameters were tuned using autotune, based on: {UNANSWERED}"]))

    space_lines: list[str] = []
    space_sources: dict[str, str] = {}
    for h, m in zip(headers, methods):
        if h.get("space_text"):
            space_sources.setdefault(m, h["space_text"])
    for m in sorted(space_sources):
        space_lines.append(f"{m}:")
        space_lines.extend(
            f"- {p.name}: {describe(p)}" for p in parse_space(space_sources[m]).params
        )
    items.append((3, ["The configuration space was:"] + (space_lines or [UNANSWERED])))

    items.append(
        (4, ["Search spaces and ranges are shared wherever methods share "
             f"hyperparameters: {_yes_no(same_space)}"])
    )
    items.append(
        (5, ["Cost metric(s) optimized: " + ("; ".join(metrics) if metrics else UNANSWERED)])
    )
    if budgets_known:
        uniq = sorted({str(b) for b in budgets_known})
        budget_text = uniq[0] + " full runs" if len(uniq) == 1 else ", ".join(
            f"{m}={b}" for m, b in zip(methods, budgets)
        )
    else:
        budget_text = UNANSWERED
    items.append((6, [f"The tuning budget was: {budget_text}"]))

    line7 = f"The tuning budget was the same for all tuned methods: {_yes_no(budgets_equal)}"
    if budgets_equal is False:
        line7 += " (" + ", ".join(f"{m}: {b}" for m, b in zip(methods, budgets)) + ")"
    items.append((7, [line7]))

    if budgets_known:
        items.append(
            (8, ["Budget given in time, hardware comparable: not applicable "
                 "(budget counted in full runs, not time)"])
        )
    else:
        items.append((8, [f"Budget given in time, hardware comparable: {UNANSWERED}"]))

    tuned_as_described = None
    if headers:
        plans = {str(h.get("seed_plan")) for h in headers}
        tuned_as_described = len(plans) == 1 and (budgets_equal is not False)
    items.append(
        (9, [f"All reported methods were tuned with the settings above: "
             f"{_yes_no(tuned_as_described)}"])
    )

    items.append(
        (10, [f"Tuning was done across {len(tuning_seeds)} tuning seeds which were: "
              f"{list(tuning_seeds)}" if tuning_seeds else
              f"Tuning was done across {UNANSWERED} tuning seeds"])
    )
    items.append(
        (11, [f"Testing was done across {len(test_seeds)} test seeds which were: "
              f"{list(test_seeds)}" if test_seeds else
              f"Testing was done across {UNANSWERED} test seeds"])
    )
    items.append((12, [f"Are all results reported on the test seeds? {_yes_no(all_on_test)}"]))

    inc_lines = []
    for j, m in zip(journals, methods):
        inc = j.final_incumbent()
        obj = (j.header or {}).get("objective", {}).get("kind", "?")
        if inc:
            inc_lines.append(f"{m} on {obj}:")
            for k in sorted(inc["config"]):
                inc_lines.append(f"- {k}: {inc['config'][k]}")
    items.append(
        (13, ["The final incumbent configurations reported were:"] + (inc_lines or [UNANSWERED]))
    )

    items.append((14, [f"Code for reproducing these experiments: {UNANSWERED}"]))
    items.append((15, [f"The code includes the tuning process: "
                       f"{_yes_no(True if any_trials else None)}"]))
    items.append((16, [f"An exact software environment is bundled with the code: {UNANSWERED}"]))
    items.append((17, ["The following hardware was used:", UNANSWERED]))

    assert [n for n, _ in items] == list(range(1, 18))
    return ChecklistReport(items=items)
