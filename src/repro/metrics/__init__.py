"""Measurement: per-packet delay records and summary statistics.

The paper's headline metric pair is total average throughput vs the mean
and 95th-percentile one-way packet delay (the Sprout evaluation metric,
§5.1).  :class:`~repro.metrics.collector.DeliveryCollector` records every
unique segment's delivery at the receiver; :mod:`repro.metrics.stats`
reduces the records to the numbers the figures plot.
"""

from repro.metrics.collector import DeliveryCollector, DeliveryRecord
from repro.metrics.stats import DelaySummary, delay_summary, jain_fairness

__all__ = [
    "DelaySummary",
    "DeliveryCollector",
    "DeliveryRecord",
    "delay_summary",
    "jain_fairness",
]
