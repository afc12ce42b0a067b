"""Event schema for the telemetry spine.

Every record written to a trace is a flat JSON object with at least:

* ``t`` -- simulated seconds (scheduler records use wall seconds since
  batch start; the ``kind`` disambiguates).
* ``kind`` -- one of the constants below.

plus kind-specific fields documented in ``docs/observability.md``.
Records from merged parallel traces additionally carry ``run`` (the
spec index within the batch).  The first record of every file is a
``meta`` header naming :data:`FORMAT`.
"""

#: Format tag written in the ``meta`` header of every trace file.
FORMAT = "repro.obs/1"

#: Header record at the top of each trace file.
META = "meta"

# -- congestion control ------------------------------------------------
#: State machine transition (SLOW_START/FILL/DRAIN/MONITOR).
CC_STATE = "cc.state"
#: NFL threshold update applied (threshold, t_actual, target).
CC_NFL = "cc.nfl"
#: Estimator snapshot at each BDP-window boundary (rho, t_buff, T).
CC_ESTIMATOR = "cc.estimator"
#: Estimator epoch: rate reset or RD_min rebase/reset.
CC_EPOCH = "cc.epoch"
#: New losses detected (entering recovery).
CC_LOSS = "cc.loss"
#: Run-granular loss marks: the scoreboard runs newly marked lost.
CC_LOSS_RUNS = "cc.loss-runs"
#: Retransmission timeout fired.
CC_RTO = "cc.rto"
#: Recovery point passed; loss episode over.
CC_RECOVERY = "cc.recovery"

# -- link layer --------------------------------------------------------
#: Service-opportunity gap exceeding OUTAGE_GAP with packets queued.
LINK_OUTAGE = "link.outage"
#: First delivery after an outage edge.
LINK_RECOVER = "link.recover"
#: Propagation delay changed mid-run (handover model).
LINK_HANDOVER = "link.handover"
#: The link served several opportunities in one quiescent batch
#: (opportunities, packets, bytes, span).
LINK_BATCH = "link.batch"

# -- periodic sampling -------------------------------------------------
#: Bottleneck queue occupancy sample (link, len).
QUEUE_SAMPLE = "queue.sample"

# -- invariant auditor -------------------------------------------------
#: Auditor invariant violation (check, message, context).
AUDIT_VIOLATION = "audit.violation"
#: Flight-recorder dump written to disk (path, violations, recorded,
#: sweeps, exception); the closing record of the dump itself.
AUDIT_DUMP = "audit.dump"
#: Flight-recorder ring entries, written only into a dump: an engine
#: event whose callback returned (callback), and a sender snapshot taken
#: by an audit sweep (flow, una, next, pipe, acks).
AUDIT_EVENT = "audit.event"
AUDIT_SENDER = "audit.sender"

# -- run / batch lifecycle ---------------------------------------------
#: Experiment run started (duration, links, flows).
RUN_START = "run.start"
#: Experiment run finished (events processed).
RUN_END = "run.end"
#: Metrics registry snapshot (scope: run | batch).
METRICS = "metrics"

# -- contention grid ---------------------------------------------------
#: Grid-cell header written at the top of a cell's trace: the cell
#: coordinates (mix, flows, pattern, trace, baseline) tag every record
#: that follows in the per-cell part file.
GRID_CELL = "grid.cell"

# -- fluid tier --------------------------------------------------------
#: Fluid run header (duration, dt, flows, towers, handovers).
FLUID_RUN = "fluid.run"
#: Periodic per-tower sample (tower, tbuff, capacity, arrival, flows).
FLUID_TOWER = "fluid.tower"
#: A handover migrated a flow between towers (flow, src, dst).
FLUID_HANDOVER = "fluid.handover"
#: Tower buffer overflow registered as a loss epoch (family, flows).
FLUID_LOSS = "fluid.loss"
#: Fluid run finished (flows, jfi).
FLUID_END = "fluid.end"

# -- control-plane environment -----------------------------------------
#: One env epoch: action applied, simulated interval integrated
#: (step, action, reward, obs).
ENV_STEP = "env.step"
#: Episode finalized (episode, steps, obs_version, throughput).
ENV_EPISODE = "env.episode"

# -- parallel scheduler (wall-clock t, seconds since batch start) ------
SCHED_DISPATCH = "sched.dispatch"
SCHED_RETRY = "sched.retry"
SCHED_TIMEOUT = "sched.timeout"
SCHED_WORKER_DEATH = "sched.worker-death"
SCHED_OUTCOME = "sched.outcome"

#: Every kind above, for validation and analysis tooling.
ALL_KINDS = frozenset({
    META, CC_STATE, CC_NFL, CC_ESTIMATOR, CC_EPOCH, CC_LOSS, CC_LOSS_RUNS,
    CC_RTO, CC_RECOVERY, LINK_OUTAGE, LINK_RECOVER, LINK_HANDOVER,
    LINK_BATCH, QUEUE_SAMPLE,
    AUDIT_VIOLATION, AUDIT_DUMP, AUDIT_EVENT, AUDIT_SENDER,
    RUN_START, RUN_END, METRICS, GRID_CELL,
    FLUID_RUN, FLUID_TOWER, FLUID_HANDOVER, FLUID_LOSS, FLUID_END,
    ENV_STEP, ENV_EPISODE,
    SCHED_DISPATCH, SCHED_RETRY, SCHED_TIMEOUT, SCHED_WORKER_DEATH,
    SCHED_OUTCOME,
})
