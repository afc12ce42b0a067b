"""Table 3: taxonomy of the evaluated algorithms.

Checks every implementation's class metadata against the paper's table
(sending regulation × congestion trigger) and prints the regenerated
table.
"""

from repro.experiments.algorithms import paper_algorithms

from _report import emit

#: The paper's Table 3 (algorithm → (regulation, trigger)).
EXPECTED = {
    "PropRate": ("Rate-based (+ window-capped)", "Buffer Delay"),
    "RRE": ("Rate-based", "Buffer Delay"),
    "BBR": ("Rate-based", "NA"),
    "PCC": ("Rate-based", "Utility Function"),
    "PROTEUS": ("Rate-based", "Rate Forecast"),
    "Sprout": ("Window-based", "Rate Forecast"),
    "Verus": ("Window-based", "Utility Function"),
    "LEDBAT": ("Window-based", "Buffer Delay + Packet Loss"),
    "CUBIC": ("cwnd-based", "Packet Loss"),
    "Vegas": ("cwnd-based", "Packet Loss"),
    "Westwood": ("cwnd-based", "Packet Loss"),
}


def test_table3_taxonomy():
    ccs = [factory() for factory in paper_algorithms().values()]
    lines = [f"{'Algorithm':12s} {'Sending Regulation':30s} Congestion Trigger"]
    for cc in ccs:
        lines.append(
            f"{cc.name:12s} {cc.sending_regulation:30s} {cc.congestion_trigger}"
        )
    emit("table3_taxonomy", lines)
    built = {cc.name: cc for cc in ccs}
    for name, (regulation, trigger) in EXPECTED.items():
        cc = built[name]
        assert cc.sending_regulation == regulation, name
        assert cc.congestion_trigger == trigger, name
        assert cc.is_rate_based == regulation.startswith("Rate-based"), name
