#!/usr/bin/env python3
"""Compare two benchmark records: ``compare.py OLD.json NEW.json``.

One row per (workload, end-to-end metric) with both medians and
quartiles, the ratio NEW/OLD with its base, and a verdict:

``better`` / ``worse``
    the median moved past the metric's bound and either the spread of
    the passes is within the bound or every pass of one side beats every
    pass of the other;
``same``
    the median stayed within the bound and so did the spread;
``unresolved``
    the spread is wider than the bound and the two sides overlap, so
    the data cannot tell (choosing-metrics: unresolved is not unchanged).

Per-pass metrics are judged on the pairs (pass k of OLD, pass k of NEW):
both ran the same realization of the seed's inputs, so the median and
quartiles of the pairwise change leave out the draw-to-draw differences.

Metrics that repeat exactly for a seed (``goodput_util``,
``tbuff_track_err_ms``, ``failed_share``) are compared for equality
first.  Exit status 1 on any ``worse`` row or any rise in
``failed_share``.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Tuple


def worsening(old: float, new: float, better: str, kind: str) -> float:
    """How much worse NEW is than OLD, in the bound's own terms
    (negative = better)."""
    delta = new - old if better == "lower" else old - new
    if kind == "relative":
        return delta / abs(old) if old else (0.0 if not delta else float("inf"))
    return delta


def identical(old: Dict[str, Any], new: Dict[str, Any]) -> bool:
    """Whether an exactly repeating metric repeated.  The two sides may
    have fitted different numbers of passes into their time budget, so
    a per-pass metric is compared over the passes both made."""
    if old.get("paired") and new.get("paired"):
        return all(o == n for o, n in zip(old["values"], new["values"]))
    return old["median"] == new["median"]


def verdict(old: Dict[str, Any], new: Dict[str, Any], rule: Dict[str, Any],
            exact: bool) -> str:
    bound, kind, better = rule["bound"], rule["kind"], rule["better"]
    if exact and identical(old, new):
        return "same"
    if old.get("paired") and new.get("paired") and min(old["n"], new["n"]) >= 2:
        # Pass k ran the same realization of the inputs on both sides,
        # so judge the per-pass pairs: their ratio is free of the
        # draw-to-draw differences that dominate the spread of either
        # side alone.
        deltas = [worsening(o, n, better, kind)
                  for o, n in zip(old["values"], new["values"])]
        worse_by = statistics.median(deltas)
        q1, _, q3 = statistics.quantiles(deltas, n=4)
        spread = q3 - q1
        all_better = all(d < 0 for d in deltas)
        all_worse = all(d > 0 for d in deltas)
    else:
        worse_by = worsening(old["median"], new["median"], better, kind)
        scale = (abs(old["median"])
                 if kind == "relative" and old["median"] else 1.0)
        spread = max(old["q3"] - old["q1"], new["q3"] - new["q1"]) / scale
        if better == "lower":
            all_better = max(new["values"]) < min(old["values"])
            all_worse = min(new["values"]) > max(old["values"])
        else:
            all_better = min(new["values"]) > max(old["values"])
            all_worse = max(new["values"]) < min(old["values"])
    resolved = spread <= bound
    if worse_by > bound:
        return "worse" if resolved or all_worse else "unresolved"
    if worse_by < -bound:
        return "better" if resolved or all_better else "unresolved"
    return "same" if resolved or exact else "unresolved"


def compare(old: Dict[str, Any], new: Dict[str, Any]
            ) -> Tuple[List[Dict[str, Any]], int]:
    """Rows for every (workload, metric) both records hold; status 1 if
    any row is ``worse`` or ``failed_share`` rose."""
    rules = new["bounds"]
    exact = set(new.get("exact", ()))
    rows: List[Dict[str, Any]] = []
    status = 0
    for workload, new_entry in new["workloads"].items():
        old_entry = old["workloads"].get(workload)
        if old_entry is None:
            continue
        for metric, new_m in new_entry["end_to_end"].items():
            old_m = old_entry["end_to_end"].get(metric)
            if old_m is None or not old_m["n"] or not new_m["n"]:
                continue
            row = {
                "workload": workload, "metric": metric, "unit": new_m["unit"],
                "old": old_m, "new": new_m,
                "ratio": (new_m["median"] / old_m["median"]
                          if old_m["median"] else None),
                "bound": rules[metric]["bound"],
                "verdict": verdict(old_m, new_m, rules[metric],
                                   metric in exact),
            }
            if row["verdict"] == "worse" or (
                    metric == "failed_share"
                    and new_m["median"] > old_m["median"]):
                row["verdict"] = "worse"
                status = 1
            rows.append(row)
    return rows, status


def exact_differences(old: Dict[str, Any], new: Dict[str, Any]) -> List[str]:
    """What must be identical between two runs of the same code and
    seed but is not: digests, exact metrics, traced counts."""
    problems: List[str] = []
    for workload, new_entry in new["workloads"].items():
        old_entry = old["workloads"].get(workload)
        if old_entry is None:
            continue
        if old_entry["result_digest"] != new_entry["result_digest"]:
            problems.append(f"{workload}: result_digest")
        for metric in new.get("exact", ()):
            a = old_entry["end_to_end"].get(metric)
            b = new_entry["end_to_end"].get(metric)
            if a and b and not identical(a, b):
                problems.append(f"{workload}: {metric} {a['values']} != "
                                f"{b['values']}")
        old_layers = old_entry.get("per_layer") or {}
        for name, entry in (new_entry.get("per_layer") or {}).items():
            if entry["unit"] == "count" and name in old_layers \
                    and old_layers[name]["value"] != entry["value"]:
                problems.append(f"{workload}: {name} "
                                f"{old_layers[name]['value']} != {entry['value']}")
    return problems


def fmt(value: Any) -> str:
    return "-" if value is None else f"{value:.4g}"


def print_rows(rows: List[Dict[str, Any]]) -> None:
    print(f"{'workload':<18}{'metric':<22}{'old median [q1, q3]':<34}"
          f"{'new median [q1, q3]':<34}{'new/old':>9}  {'bound':>6}  verdict")
    for row in rows:
        old, new = row["old"], row["new"]
        print(
            f"{row['workload']:<18}{row['metric']:<22}"
            f"{fmt(old['median']) + ' [' + fmt(old['q1']) + ', ' + fmt(old['q3']) + ']':<34}"
            f"{fmt(new['median']) + ' [' + fmt(new['q1']) + ', ' + fmt(new['q3']) + ']':<34}"
            f"{fmt(row['ratio']):>9}  {row['bound']:>6}  {row['verdict']}"
            + (f"  (of {fmt(old['median'])} {row['unit']})"
               if row["verdict"] != "same" else ""))


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        old = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        new = json.load(fh)
    rows, status = compare(old, new)
    print_rows(rows)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
