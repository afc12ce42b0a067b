"""Test-side reference implementations, one per optimised layer.

Each module here is the slow, obvious form of something ``src/repro``
computes a faster way, and a differential test holds the shipped code
to it bit for bit:

* :mod:`~tests.reference.engine` — the pure-Python event loop;
  :mod:`~tests.reference.link`'s ``ReferenceCellularLink``, the batched
  link's per-packet methods in Python; :mod:`~tests.reference.queues`,
  the drop-tail FIFO and CoDel over it; :mod:`~tests.reference.receiver`,
  the receiver's data and ACK path; :mod:`~tests.reference.packet`, the
  ``Packet`` dataclass; and :mod:`~tests.reference.network`, the
  per-flow demux: together the packet core before it moved to C
  (tests/test_core_diff.py);
* :mod:`~tests.reference.link` — ``ScalarCellularLink``, one
  opportunity per event (tests/test_fastpath.py);
* :mod:`~tests.reference.fluid` — ``reference_integrate`` and its
  banks, the fluid step loop before its cost was halved, with the
  per-bank loss hold-off (tests/test_fluid_diff.py);
* :mod:`~tests.reference.adaptive` — ``ScalarTargetAdjuster``, the §6
  rule as it was first written, event in and proposed target out
  (tests/test_adaptive.py);
* :mod:`~tests.reference.scoreboard` — ``ReferenceBoard``, the
  per-segment SACK state machine (tests/test_scoreboard_diff.py);
* :mod:`~tests.reference.application` — the ``Fraction`` form of the
  application's segment count (tests/test_application.py);
* :mod:`~tests.reference.proprate` — PropRate's operating point and
  in-flight cap recomputed from scratch at every ACK and tick
  (tests/test_proprate_memo.py);
* :mod:`~tests.reference.collector` — ``ReferenceCollector``, one
  frozen ``DeliveryRecord`` per arrival and linear-scan windows
  (tests/test_metrics.py).

The rule: a reference is frozen at the behaviour it pins and is never
optimised.  When the shipped code changes on purpose, the reference
changes in the same commit and says why.
"""
