/* The packet tier's event loop and the cellular link's service loop.
 *
 * ``Engine`` is the base type of ``repro.sim.engine.Simulator``: the
 * scheduling entry points, ``run`` and the quiescence probe.  ``Cellular``
 * is the base type of ``repro.sim.link.CellularLink``: ``enqueue``, the
 * batched ``_serve`` with its delivery-group push, and the delivery pump
 * ``_pump_fire``.  Construction, the once-per-busy-period re-arm, the
 * telemetry formatting and ``close`` stay in Python on the subclasses.
 *
 * Everything here reproduces the Python it replaced bit for bit (the
 * frozen copies are ``tests/reference/engine.py`` and
 * ``tests/reference/link.py``; DESIGN.md, "The packet core in C"):
 *
 *  - the same IEEE double operations in the same order, built with
 *    -ffp-contract=off so no multiply-add is fused;
 *  - every heap seq is claimed at the same point from the one counter,
 *    and the heap is kept by ``_heapq``'s own functions, so its layout,
 *    and with it every tie and ``horizon_excluding``'s bound, is the
 *    same;
 *  - the queue is reached through its attributes on every call, and the
 *    pump callback is looked up as ``self._pump_fire``, so taps and
 *    profiler wrappers installed on instances keep working.
 *
 * The module is built by ``repro.util.cbuild`` on first import of
 * ``repro.sim.engine``.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <math.h>
#include <string.h>

#if PY_VERSION_HEX < 0x030A0000
static inline PyObject *
Py_NewRef(PyObject *o)
{
    Py_INCREF(o);
    return o;
}
#endif

/* Heap size below which compaction is never attempted. */
#define COMPACT_MIN 1024
/* Events between wall-clock deadline checks. */
#define DEADLINE_STRIDE 512

static PyObject *heappush_fn, *heappop_fn, *heapify_fn, *monotonic_fn;
/* Bound from Python by configure(). */
static PyObject *event_type, *deadline_cell, *deadline_error;
static PyObject *opportunity_bytes;
static double outage_gap = 0.1;
static long long batch_event_min = 8;

static PyObject *s_push, *s_drain, *s_queue, *s_size, *s_pump_fire,
    *s_arm_service, *s_emit_recover, *s_emit_outage, *s_cancel;

/* ------------------------------------------------------------------ */
/* helpers                                                             */
/* ------------------------------------------------------------------ */

static inline double
as_double(PyObject *o)
{
    return PyFloat_CheckExact(o) ? PyFloat_AS_DOUBLE(o) : PyFloat_AsDouble(o);
}

/* Fastcall argument parsing: positional then keywords, by name. */
static int
parse_args(const char *fname, PyObject *const *args, Py_ssize_t nargs,
           PyObject *kwnames, const char *const *names, Py_ssize_t nreq,
           Py_ssize_t nmax, PyObject **out)
{
    Py_ssize_t i, k, nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    if (nargs > nmax) {
        PyErr_Format(PyExc_TypeError,
                     "%s() takes at most %zd arguments (%zd given)",
                     fname, nmax, nargs);
        return -1;
    }
    for (i = 0; i < nmax; i++)
        out[i] = i < nargs ? args[i] : NULL;
    for (k = 0; k < nkw; k++) {
        PyObject *key = PyTuple_GET_ITEM(kwnames, k);
        for (i = 0; i < nmax; i++)
            if (PyUnicode_CompareWithASCIIString(key, names[i]) == 0)
                break;
        if (i == nmax || out[i] != NULL) {
            PyErr_Format(PyExc_TypeError,
                         "%s() got an unexpected or repeated argument '%U'",
                         fname, key);
            return -1;
        }
        out[i] = args[nargs + k];
    }
    for (i = 0; i < nreq; i++)
        if (out[i] == NULL) {
            PyErr_Format(PyExc_TypeError, "%s() missing argument '%s'",
                         fname, names[i]);
            return -1;
        }
    return 0;
}

static int
check_entry(PyObject *entry)
{
    if (!PyList_Check(entry) || PyList_GET_SIZE(entry) != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "event entries are 3-item lists [time, seq, callback]");
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Engine                                                              */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *dict;
    PyObject *weakrefs;
    PyObject *now;          /* the current time, as scheduled */
    double now_d;
    PyObject *heap;         /* list of events */
    long long counter;      /* next insertion-order seq */
    PyObject *run_until;    /* None outside run() or for an unbounded run */
    double until_d;
    long long processed;
    Py_ssize_t compact_at;
    long long compactions;
    PyObject *audit_ring;
} Engine;

static PyTypeObject EngineType;

static void
set_now(Engine *self, PyObject *time, double t)
{
    Py_INCREF(time);
    Py_SETREF(self->now, time);
    self->now_d = t;
}

/* Past and NaN times fail one comparison: not (time >= now). */
static int
check_time(Engine *self, PyObject *time, double t)
{
    if (t == -1.0 && PyErr_Occurred())
        return -1;
    if (!(t >= self->now_d)) {
        if (isnan(t))
            PyErr_Format(PyExc_ValueError,
                         "cannot schedule at a NaN time: %S (now=%S)",
                         time, self->now);
        else
            PyErr_Format(PyExc_ValueError,
                         "cannot schedule in the past: %S < now=%S",
                         time, self->now);
        return -1;
    }
    return 0;
}

static int
heap_push(PyObject *heap, PyObject *entry)
{
    PyObject *args[2] = {heap, entry};
    PyObject *r = PyObject_Vectorcall(heappush_fn, args, 2, NULL);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

static PyObject *
heap_pop(PyObject *heap)
{
    return PyObject_Vectorcall(heappop_fn, &heap, 1, NULL);
}

/* Drop lazily-cancelled entries when they dominate the heap; runs at
 * most every time the heap doubles past the last threshold. */
static int
engine_compact(Engine *self)
{
    PyObject *heap = self->heap, *live, *r;
    Py_ssize_t i, n = PyList_GET_SIZE(heap);
    live = PyList_New(0);
    if (live == NULL)
        return -1;
    for (i = 0; i < n; i++) {
        PyObject *e = PyList_GET_ITEM(heap, i);
        if (check_entry(e) < 0)
            goto fail;
        if (PyList_GET_ITEM(e, 2) != Py_None && PyList_Append(live, e) < 0)
            goto fail;
    }
    if (2 * PyList_GET_SIZE(live) <= n) {
        /* In place, so references held by a running run() stay valid. */
        if (PyList_SetSlice(heap, 0, n, live) < 0)
            goto fail;
        r = PyObject_Vectorcall(heapify_fn, &heap, 1, NULL);
        if (r == NULL)
            goto fail;
        Py_DECREF(r);
        self->compactions++;
    }
    Py_DECREF(live);
    n = 2 * PyList_GET_SIZE(heap);
    self->compact_at = n > COMPACT_MIN ? n : COMPACT_MIN;
    return 0;
fail:
    Py_DECREF(live);
    return -1;
}

/* A new event [time, seq, callback] pushed onto the heap; ``seq`` NULL
 * claims the next one.  The caller has checked ``time``. */
static PyObject *
engine_push_new(Engine *self, PyObject *time, PyObject *seq, PyObject *cb)
{
    PyTypeObject *tp = (PyTypeObject *)event_type;
    PyObject *event, *claimed = NULL;
    if (tp == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "_core.configure() not called");
        return NULL;
    }
    if (seq == NULL) {
        seq = claimed = PyLong_FromLongLong(self->counter++);
        if (seq == NULL)
            return NULL;
    }
    event = tp->tp_alloc(tp, 0);
    if (event == NULL || PyList_Append(event, time) < 0
            || PyList_Append(event, seq) < 0 || PyList_Append(event, cb) < 0
            || heap_push(self->heap, event) < 0) {
        Py_XDECREF(event);
        Py_XDECREF(claimed);
        return NULL;
    }
    Py_XDECREF(claimed);
    if (PyList_GET_SIZE(self->heap) >= self->compact_at
            && engine_compact(self) < 0) {
        Py_DECREF(event);
        return NULL;
    }
    return event;
}

/* Re-arm a just-popped event in place; ``seq`` NULL claims the next. */
static PyObject *
engine_push_reuse(Engine *self, PyObject *event, PyObject *time,
                  PyObject *seq)
{
    PyObject *claimed = NULL;
    if (check_entry(event) < 0)
        return NULL;
    if (seq == NULL) {
        seq = claimed = PyLong_FromLongLong(self->counter++);
        if (seq == NULL)
            return NULL;
    }
    else
        Py_INCREF(seq);
    Py_INCREF(time);
    PyList_SetItem(event, 0, time);
    PyList_SetItem(event, 1, seq);
    if (heap_push(self->heap, event) < 0)
        return NULL;
    return Py_NewRef(event);
}

/* now + delay with a negative delay clamped to zero, as Python adds. */
static PyObject *
engine_after(Engine *self, PyObject *delay, double *t)
{
    PyObject *time;
    if (PyFloat_CheckExact(delay) && PyFloat_CheckExact(self->now)) {
        double d = PyFloat_AS_DOUBLE(delay);
        if (d < 0)
            d = 0.0;
        *t = self->now_d + d;
        return PyFloat_FromDouble(*t);
    }
    PyObject *zero = PyLong_FromLong(0);
    int negative = zero ? PyObject_RichCompareBool(delay, zero, Py_LT) : -1;
    Py_XDECREF(zero);
    if (negative < 0)
        return NULL;
    if (negative) {
        PyObject *clamped = PyFloat_FromDouble(0.0);
        if (clamped == NULL)
            return NULL;
        time = PyNumber_Add(self->now, clamped);
        Py_DECREF(clamped);
    }
    else
        time = PyNumber_Add(self->now, delay);
    if (time == NULL)
        return NULL;
    *t = as_double(time);
    if (*t == -1.0 && PyErr_Occurred()) {
        Py_DECREF(time);
        return NULL;
    }
    return time;
}

static PyObject *
Engine_schedule(Engine *self, PyObject *const *args, Py_ssize_t nargs,
                PyObject *kwnames)
{
    static const char *const names[] = {"delay", "callback"};
    PyObject *a[2], *time, *event;
    double t;
    if (parse_args("schedule", args, nargs, kwnames, names, 2, 2, a) < 0)
        return NULL;
    if ((time = engine_after(self, a[0], &t)) == NULL)
        return NULL;
    event = check_time(self, time, t) < 0 ? NULL
        : engine_push_new(self, time, NULL, a[1]);
    Py_DECREF(time);
    return event;
}

static PyObject *
Engine_schedule_at(Engine *self, PyObject *const *args, Py_ssize_t nargs,
                   PyObject *kwnames)
{
    static const char *const names[] = {"time", "callback"};
    PyObject *a[2];
    if (parse_args("schedule_at", args, nargs, kwnames, names, 2, 2, a) < 0
            || check_time(self, a[0], as_double(a[0])) < 0)
        return NULL;
    return engine_push_new(self, a[0], NULL, a[1]);
}

static PyObject *
Engine_schedule_claimed(Engine *self, PyObject *const *args,
                        Py_ssize_t nargs, PyObject *kwnames)
{
    static const char *const names[] = {"time", "seq", "callback"};
    PyObject *a[3];
    if (parse_args("schedule_claimed", args, nargs, kwnames, names, 3, 3, a)
            < 0 || check_time(self, a[0], as_double(a[0])) < 0)
        return NULL;
    return engine_push_new(self, a[0], a[1], a[2]);
}

static PyObject *
Engine_reschedule(Engine *self, PyObject *const *args, Py_ssize_t nargs,
                  PyObject *kwnames)
{
    static const char *const names[] = {"event", "delay"};
    PyObject *a[2], *time, *event;
    double t;
    if (parse_args("reschedule", args, nargs, kwnames, names, 2, 2, a) < 0)
        return NULL;
    if ((time = engine_after(self, a[1], &t)) == NULL)
        return NULL;
    event = check_time(self, time, t) < 0 ? NULL
        : engine_push_reuse(self, a[0], time, NULL);
    Py_DECREF(time);
    return event;
}

static PyObject *
Engine_reschedule_at(Engine *self, PyObject *const *args, Py_ssize_t nargs,
                     PyObject *kwnames)
{
    static const char *const names[] = {"event", "time"};
    PyObject *a[2];
    if (parse_args("reschedule_at", args, nargs, kwnames, names, 2, 2, a) < 0
            || check_time(self, a[1], as_double(a[1])) < 0)
        return NULL;
    return engine_push_reuse(self, a[0], a[1], NULL);
}

static PyObject *
Engine_requeue_claimed(Engine *self, PyObject *const *args,
                       Py_ssize_t nargs, PyObject *kwnames)
{
    static const char *const names[] = {"event", "time", "seq"};
    PyObject *a[3];
    if (parse_args("requeue_claimed", args, nargs, kwnames, names, 3, 3, a)
            < 0 || check_time(self, a[1], as_double(a[1])) < 0)
        return NULL;
    return engine_push_reuse(self, a[0], a[1], a[2]);
}

static PyObject *
Engine_claim_seq(Engine *self, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromLongLong(self->counter++);
}

/* A lower bound on the next event's time other than ``exclude``; pops
 * cancelled heads.  -1.0 with an exception set on error. */
static double
engine_horizon(Engine *self, PyObject *exclude)
{
    PyObject *heap = self->heap;
    while (PyList_GET_SIZE(heap) > 0) {
        PyObject *head = PyList_GET_ITEM(heap, 0);
        Py_ssize_t n;
        double bound, other;
        if (check_entry(head) < 0)
            return -1.0;
        if (PyList_GET_ITEM(head, 2) == Py_None) {
            PyObject *dead = heap_pop(heap);
            if (dead == NULL)
                return -1.0;
            Py_DECREF(dead);
            continue;
        }
        if (head != exclude)
            return as_double(PyList_GET_ITEM(head, 0));
        n = PyList_GET_SIZE(heap);
        if (n == 1)
            return Py_HUGE_VAL;
        if (check_entry(PyList_GET_ITEM(heap, 1)) < 0
                || (n > 2 && check_entry(PyList_GET_ITEM(heap, 2)) < 0))
            return -1.0;
        bound = as_double(PyList_GET_ITEM(PyList_GET_ITEM(heap, 1), 0));
        if (n > 2) {
            other = as_double(PyList_GET_ITEM(PyList_GET_ITEM(heap, 2), 0));
            if (other < bound)
                bound = other;
        }
        return bound;
    }
    return Py_HUGE_VAL;
}

static PyObject *
Engine_horizon_excluding(Engine *self, PyObject *exclude)
{
    double h = engine_horizon(self, exclude);
    if (h == -1.0 && PyErr_Occurred())
        return NULL;
    return PyFloat_FromDouble(h);
}

/* One audit-ring store: (now, callback) into slot count & mask, then the
 * sweep countdown. */
static int
ring_store(PyObject *const *ring, long long mask, PyObject *now,
           PyObject *cb)
{
    PyObject *o = PySequence_GetItem(ring[2], 0);
    long long n, c;
    if (o == NULL)
        return -1;
    n = PyLong_AsLongLong(o);
    Py_DECREF(o);
    if (n == -1 && PyErr_Occurred())
        return -1;
    if (PySequence_SetItem(ring[0], (Py_ssize_t)(n & mask), now) < 0
            || PySequence_SetItem(ring[1], (Py_ssize_t)(n & mask), cb) < 0)
        return -1;
    if ((o = PyLong_FromLongLong(n + 1)) == NULL)
        return -1;
    if (PySequence_SetItem(ring[2], 0, o) < 0) {
        Py_DECREF(o);
        return -1;
    }
    Py_DECREF(o);
    if ((o = PySequence_GetItem(ring[4], 0)) == NULL)
        return -1;
    c = PyLong_AsLongLong(o) - 1;
    Py_DECREF(o);
    if (c == -2 && PyErr_Occurred())
        return -1;
    if (c) {
        if ((o = PyLong_FromLongLong(c)) == NULL)
            return -1;
        int rc = PySequence_SetItem(ring[4], 0, o);
        Py_DECREF(o);
        return rc;
    }
    if (PySequence_SetItem(ring[4], 0, ring[5]) < 0)
        return -1;
    if ((o = PyObject_CallNoArgs(ring[6])) == NULL)
        return -1;
    Py_DECREF(o);
    return 0;
}

static PyObject *
Engine_run(Engine *self, PyObject *const *args, Py_ssize_t nargs,
           PyObject *kwnames)
{
    static const char *const names[] = {"until"};
    PyObject *until, *heap, *ring = NULL, *ring_items[7];
    PyObject *deadline;
    double until_d = 0.0, deadline_d = 0.0;
    int has_until, has_deadline, ok = 0;
    long long processed = 0, mask = 0;
    int ticks = DEADLINE_STRIDE;

    if (parse_args("run", args, nargs, kwnames, names, 0, 1, &until) < 0)
        return NULL;
    if (until == NULL)
        until = Py_None;
    has_until = until != Py_None;
    if (has_until) {
        until_d = as_double(until);
        if (until_d == -1.0 && PyErr_Occurred())
            return NULL;
    }
    deadline = deadline_cell ? PyList_GetItem(deadline_cell, 0) : Py_None;
    if (deadline == NULL)
        return NULL;
    has_deadline = deadline != Py_None;
    if (has_deadline) {
        deadline_d = as_double(deadline);
        if (deadline_d == -1.0 && PyErr_Occurred())
            return NULL;
    }
    if (self->audit_ring != Py_None) {
        Py_ssize_t i;
        if (!PyTuple_Check(self->audit_ring)
                || PyTuple_GET_SIZE(self->audit_ring) != 7) {
            PyErr_SetString(PyExc_TypeError, "audit_ring must be a 7-tuple");
            return NULL;
        }
        ring = Py_NewRef(self->audit_ring);
        for (i = 0; i < 7; i++)
            ring_items[i] = PyTuple_GET_ITEM(ring, i);
        mask = PyLong_AsLongLong(ring_items[3]);
        if (mask == -1 && PyErr_Occurred()) {
            Py_DECREF(ring);
            return NULL;
        }
    }

    Py_INCREF(until);
    Py_SETREF(self->run_until, until);
    self->until_d = until_d;
    heap = Py_NewRef(self->heap);

    while (PyList_GET_SIZE(heap) > 0) {
        PyObject *event = PyList_GET_ITEM(heap, 0), *popped, *time, *cb, *r;
        double t;
        if (check_entry(event) < 0)
            goto done;
        time = PyList_GET_ITEM(event, 0);
        t = as_double(time);
        if (t == -1.0 && PyErr_Occurred())
            goto done;
        if (has_until && t > until_d)
            break;
        Py_INCREF(time);
        if ((popped = heap_pop(heap)) == NULL) {
            Py_DECREF(time);
            goto done;
        }
        cb = Py_NewRef(PyList_GET_ITEM(popped, 2));
        Py_DECREF(popped);
        if (cb == Py_None) {
            Py_DECREF(cb);
            Py_DECREF(time);
            continue;
        }
        set_now(self, time, t);
        processed++;
        r = PyObject_CallNoArgs(cb);
        if (r == NULL) {
            Py_DECREF(cb);
            Py_DECREF(time);
            goto done;
        }
        Py_DECREF(r);
        if (has_deadline && --ticks == 0) {
            PyObject *clock;
            ticks = DEADLINE_STRIDE;
            clock = PyObject_CallNoArgs(monotonic_fn);
            if (clock == NULL) {
                Py_DECREF(cb);
                Py_DECREF(time);
                goto done;
            }
            double wall = PyFloat_AsDouble(clock);
            Py_DECREF(clock);
            if (wall >= deadline_d) {
                char *text = PyOS_double_to_string(self->now_d, 'f', 6, 0,
                                                   NULL);
                if (text != NULL) {
                    PyErr_Format(deadline_error,
                                 "run overran its wall-clock deadline at t=%s",
                                 text);
                    PyMem_Free(text);
                }
                Py_DECREF(cb);
                Py_DECREF(time);
                goto done;
            }
        }
        /* The time and callback that ran, not the entry's slots: the
         * callback may have re-armed its own entry in place. */
        if (ring != NULL && ring_store(ring_items, mask, time, cb) < 0) {
            Py_DECREF(cb);
            Py_DECREF(time);
            goto done;
        }
        Py_DECREF(cb);
        Py_DECREF(time);
    }
    if (has_until && until_d > self->now_d)
        set_now(self, until, until_d);
    ok = 1;
done:
    Py_DECREF(heap);
    Py_XDECREF(ring);
    self->processed += processed;
    Py_INCREF(Py_None);
    Py_SETREF(self->run_until, Py_None);
    if (!ok)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
Engine_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    Engine *self = (Engine *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->now = PyFloat_FromDouble(0.0);
    self->heap = PyList_New(0);
    if (self->now == NULL || self->heap == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    self->run_until = Py_NewRef(Py_None);
    self->audit_ring = Py_NewRef(Py_None);
    self->compact_at = COMPACT_MIN;
    return (PyObject *)self;
}

static int
Engine_init(PyObject *self, PyObject *args, PyObject *kwds)
{
    if (PyTuple_GET_SIZE(args) || (kwds && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "Simulator() takes no arguments");
        return -1;
    }
    return 0;
}

static int
Engine_traverse(Engine *self, visitproc visit, void *arg)
{
    Py_VISIT(self->dict);
    Py_VISIT(self->now);
    Py_VISIT(self->heap);
    Py_VISIT(self->run_until);
    Py_VISIT(self->audit_ring);
    return 0;
}

static int
Engine_clear(Engine *self)
{
    Py_CLEAR(self->dict);
    Py_CLEAR(self->now);
    Py_CLEAR(self->heap);
    Py_CLEAR(self->run_until);
    Py_CLEAR(self->audit_ring);
    return 0;
}

static void
Engine_dealloc(Engine *self)
{
    PyObject_GC_UnTrack(self);
    if (self->weakrefs != NULL)
        PyObject_ClearWeakRefs((PyObject *)self);
    Engine_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Engine_get_now(Engine *self, void *closure)
{
    return Py_NewRef(self->now);
}

static int
Engine_set_now(Engine *self, PyObject *value, void *closure)
{
    double t;
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete now");
        return -1;
    }
    t = as_double(value);
    if (t == -1.0 && PyErr_Occurred())
        return -1;
    set_now(self, value, t);
    return 0;
}

static PyObject *
Engine_get_run_until(Engine *self, void *closure)
{
    return Py_NewRef(self->run_until);
}

static PyMethodDef Engine_methods[] = {
    {"schedule", (PyCFunction)(void (*)(void))Engine_schedule,
     METH_FASTCALL | METH_KEYWORDS,
     "schedule(delay, callback) -> Event\n\nRun ``callback`` ``delay`` "
     "seconds from now; a negative delay is clamped to zero (after any "
     "events already pending at ``now``)."},
    {"schedule_at", (PyCFunction)(void (*)(void))Engine_schedule_at,
     METH_FASTCALL | METH_KEYWORDS,
     "schedule_at(time, callback) -> Event\n\nSchedule at an absolute "
     "time; a past or NaN time raises ValueError."},
    {"reschedule", (PyCFunction)(void (*)(void))Engine_reschedule,
     METH_FASTCALL | METH_KEYWORDS,
     "reschedule(event, delay) -> Event\n\nRe-arm a just-popped event "
     "``delay`` seconds from now, in place, with a fresh seq: ordering "
     "is that of cancelling and scheduling anew.  ``event`` must not be "
     "in the heap (its callback is the one running)."},
    {"reschedule_at", (PyCFunction)(void (*)(void))Engine_reschedule_at,
     METH_FASTCALL | METH_KEYWORDS,
     "reschedule_at(event, time) -> Event\n\nRe-arm a just-popped event at "
     "an absolute time, in place, with a fresh seq."},
    {"claim_seq", (PyCFunction)Engine_claim_seq, METH_NOARGS,
     "claim_seq() -> int\n\nAllocate an insertion-order seq now for a "
     "later push, from the same counter: a batch-serving link claims at "
     "each logical schedule point and pushes later, so ties break as if "
     "each delivery were scheduled at its serve instant."},
    {"schedule_claimed", (PyCFunction)(void (*)(void))Engine_schedule_claimed,
     METH_FASTCALL | METH_KEYWORDS,
     "schedule_claimed(time, seq, callback) -> Event\n\nSchedule at an "
     "absolute time with a previously claimed seq."},
    {"requeue_claimed", (PyCFunction)(void (*)(void))Engine_requeue_claimed,
     METH_FASTCALL | METH_KEYWORDS,
     "requeue_claimed(event, time, seq) -> Event\n\nRe-arm a just-popped "
     "event with a previously claimed seq."},
    {"horizon_excluding", (PyCFunction)Engine_horizon_excluding, METH_O,
     "horizon_excluding(exclude) -> float\n\nA lower bound on the time of "
     "the next event other than ``exclude`` (inf if none).  When the head "
     "is ``exclude`` the minimum of its two children is returned: every "
     "other entry lives in one of their subtrees, so that bounds it, "
     "conservatively when a child is a cancelled entry."},
    {"run", (PyCFunction)(void (*)(void))Engine_run,
     METH_FASTCALL | METH_KEYWORDS,
     "run(until=None)\n\nRun events until the heap drains or ``until`` "
     "passes.  Events at exactly ``until`` run; later ones stay queued "
     "and ``now`` ends at ``until``, so consecutive runs compose."},
    {NULL}
};

static PyMemberDef Engine_members[] = {
    {"_events_processed", T_LONGLONG, offsetof(Engine, processed), 0, NULL},
    {"compactions", T_LONGLONG, offsetof(Engine, compactions), READONLY,
     "Lazily-cancelled-entry sweeps performed."},
    {"_heap", T_OBJECT, offsetof(Engine, heap), READONLY, NULL},
    {"audit_ring", T_OBJECT, offsetof(Engine, audit_ring), 0,
     "The auditor's inline event-trace ring, or None (see Simulator)."},
    {NULL}
};

static PyGetSetDef Engine_getset[] = {
    {"now", (getter)Engine_get_now, (setter)Engine_set_now,
     "The current simulated time.", NULL},
    {"run_until", (getter)Engine_get_run_until, NULL,
     "The ``until`` of the run() executing, or None.", NULL},
    {"__dict__", PyObject_GenericGetDict, PyObject_GenericSetDict, NULL,
     NULL},
    {NULL}
};

static PyTypeObject EngineType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._core.Engine",
    .tp_doc = "The event loop (base of repro.sim.engine.Simulator).",
    .tp_basicsize = sizeof(Engine),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = Engine_new,
    .tp_init = Engine_init,
    .tp_dealloc = (destructor)Engine_dealloc,
    .tp_traverse = (traverseproc)Engine_traverse,
    .tp_clear = (inquiry)Engine_clear,
    .tp_methods = Engine_methods,
    .tp_members = Engine_members,
    .tp_getset = Engine_getset,
    .tp_dictoffset = offsetof(Engine, dict),
    .tp_weaklistoffset = offsetof(Engine, weakrefs),
};

/* ------------------------------------------------------------------ */
/* Cellular link                                                       */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *dict;
    PyObject *weakrefs;
    PyObject *sim;
    PyObject *queue;
    PyObject *prop_delay;
    PyObject *on_deliver;
    PyObject *tracer;
    PyObject *loop;
    PyObject *times;        /* the schedule's memoryview */
    Py_buffer tbuf;         /* held while ``times`` is set */
    Py_ssize_t tsize;
    double period;
    Py_ssize_t cycle;
    Py_ssize_t index;
    PyObject *service_event;
    PyObject *serve_cb;
    PyObject *pending;      /* [time, packets, seq] groups from phead */
    Py_ssize_t phead;
    PyObject *pump_event;
    long long delivered_packets, delivered_bytes, wasted_opportunities;
    long long batches_drained, batched_packets;
    char outage_open;
} Cellular;

/* The pending deliveries are a list of [time, packets, seq] groups. */
static int
check_pending(PyObject *pending)
{
    if (!PyList_Check(pending)) {
        PyErr_SetString(PyExc_TypeError, "CellularLink._pending must be a list");
        return -1;
    }
    return 0;
}

static int
check_group(PyObject *group)
{
    if (!PyList_Check(group) || PyList_GET_SIZE(group) != 3
            || !PyList_Check(PyList_GET_ITEM(group, 1))) {
        PyErr_SetString(PyExc_TypeError,
                        "delivery groups are [time, packets, seq] lists");
        return -1;
    }
    return 0;
}

static Engine *
link_engine(Cellular *self)
{
    if (!PyObject_TypeCheck(self->sim, &EngineType)) {
        PyErr_SetString(PyExc_TypeError,
                        "CellularLink.sim must be a repro Simulator");
        return NULL;
    }
    return (Engine *)self->sim;
}

static PyObject *
Cellular_enqueue(Cellular *self, PyObject *packet)
{
    Engine *sim = link_engine(self);
    PyObject *stack[4], *accepted, *r;
    int truth;
    if (sim == NULL)
        return NULL;
    stack[0] = NULL;
    stack[1] = self->queue;
    stack[2] = packet;
    stack[3] = sim->now;
    Py_INCREF(stack[1]);
    Py_INCREF(stack[3]);
    accepted = PyObject_VectorcallMethod(
        s_push, stack + 1, 3 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    Py_DECREF(stack[1]);
    Py_DECREF(stack[3]);
    if (accepted == NULL)
        return NULL;
    truth = PyObject_IsTrue(accepted);
    if (truth < 0)
        goto fail;
    if (truth && self->service_event == Py_None) {
        r = PyObject_CallMethodNoArgs((PyObject *)self, s_arm_service);
        if (r == NULL)
            goto fail;
        Py_DECREF(r);
    }
    return accepted;
fail:
    Py_DECREF(accepted);
    return NULL;
}

/* Add a delivery group, keeping ``_pending`` time-sorted and the pump
 * armed at the head group's time; returns the group (new reference).
 * The group claims its heap seq now, where a per-packet delivery event
 * would have been scheduled (DESIGN.md §9). */
static PyObject *
link_push_group(Cellular *self, Engine *sim, PyObject *time, PyObject *pkts)
{
    PyObject *pending = self->pending, *group, *seq, *fire, *event;
    Py_ssize_t n = PyList_GET_SIZE(pending), phead = self->phead, i;
    double t = as_double(time);
    if ((t == -1.0 && PyErr_Occurred()) || check_pending(pending) < 0
            || (n > phead && check_group(PyList_GET_ITEM(pending, n - 1)) < 0))
        return NULL;
    if ((seq = PyLong_FromLongLong(sim->counter++)) == NULL)
        return NULL;
    group = PyList_New(3);
    if (group == NULL) {
        Py_DECREF(seq);
        return NULL;
    }
    PyList_SET_ITEM(group, 0, Py_NewRef(time));
    PyList_SET_ITEM(group, 1, Py_NewRef(pkts));
    PyList_SET_ITEM(group, 2, seq);
    if (n > phead) {
        PyObject *last = PyList_GET_ITEM(pending, n - 1);
        if (t >= as_double(PyList_GET_ITEM(last, 0))) {
            if (PyList_Append(pending, group) < 0)
                goto fail;
            return group;
        }
        /* Rare: a handover shrank prop_delay while deliveries were in
         * flight; insert in time order, after any equal slot. */
        i = n - 1;
        while (i > phead) {
            PyObject *before = PyList_GET_ITEM(pending, i - 1);
            if (check_group(before) < 0)
                goto fail;
            if (!(as_double(PyList_GET_ITEM(before, 0)) > t))
                break;
            i--;
        }
        if (PyList_Insert(pending, i, group) < 0)
            goto fail;
        if (i == phead) {
            PyObject *r = PyObject_CallMethodNoArgs(self->pump_event,
                                                    s_cancel);
            if (r == NULL)
                goto fail;
            Py_DECREF(r);
            goto arm;
        }
        return group;
    }
    if (n > 0 && PyList_SetSlice(pending, 0, n, NULL) < 0)
        goto fail;
    self->phead = 0;
    if (PyList_Append(pending, group) < 0)
        goto fail;
arm:
    if ((fire = PyObject_GetAttr((PyObject *)self, s_pump_fire)) == NULL)
        goto fail;
    if (check_time(sim, time, t) < 0) {
        Py_DECREF(fire);
        goto fail;
    }
    event = engine_push_new(sim, time, seq, fire);
    Py_DECREF(fire);
    if (event == NULL)
        goto fail;
    Py_SETREF(self->pump_event, event);
    return group;
fail:
    Py_DECREF(group);
    return NULL;
}

static PyObject *
Cellular_pump_fire(Cellular *self, PyObject *Py_UNUSED(ignored))
{
    Engine *sim = link_engine(self);
    PyObject *pending = self->pending, *group, *pkts, *callback;
    Py_ssize_t phead = self->phead, i;
    if (sim == NULL || check_pending(pending) < 0)
        return NULL;
    if (phead < 0 || phead >= PyList_GET_SIZE(pending)) {
        PyErr_SetString(PyExc_RuntimeError, "delivery pump fired empty");
        return NULL;
    }
    if (check_group(PyList_GET_ITEM(pending, phead)) < 0)
        return NULL;
    group = Py_NewRef(PyList_GET_ITEM(pending, phead));
    Py_INCREF(Py_None);
    PyList_SetItem(pending, phead, Py_None);
    phead++;
    if (phead >= PyList_GET_SIZE(pending)) {
        if (PyList_SetSlice(pending, 0, PyList_GET_SIZE(pending), NULL) < 0)
            goto fail;
        self->phead = 0;
        Py_INCREF(Py_None);
        Py_SETREF(self->pump_event, Py_None);
    }
    else {
        PyObject *next, *event;
        if (phead >= 64 && phead * 2 >= PyList_GET_SIZE(pending)) {
            if (PyList_SetSlice(pending, 0, phead, NULL) < 0)
                goto fail;
            phead = 0;
        }
        self->phead = phead;
        next = PyList_GET_ITEM(pending, phead);
        if (check_group(next) < 0)
            goto fail;
        if (check_time(sim, PyList_GET_ITEM(next, 0),
                       as_double(PyList_GET_ITEM(next, 0))) < 0)
            goto fail;
        event = engine_push_reuse(sim, self->pump_event,
                                  PyList_GET_ITEM(next, 0),
                                  PyList_GET_ITEM(next, 2));
        if (event == NULL)
            goto fail;
        Py_SETREF(self->pump_event, event);
    }
    callback = self->on_deliver;
    if (callback != Py_None) {
        Py_INCREF(callback);
        pkts = PyList_GET_ITEM(group, 1);
        for (i = 0; i < PyList_GET_SIZE(pkts); i++) {
            PyObject *p = Py_NewRef(PyList_GET_ITEM(pkts, i));
            PyObject *r = PyObject_CallOneArg(callback, p);
            Py_DECREF(p);
            if (r == NULL) {
                Py_DECREF(callback);
                goto fail;
            }
            Py_DECREF(r);
        }
        Py_DECREF(callback);
    }
    Py_DECREF(group);
    Py_RETURN_NONE;
fail:
    Py_DECREF(group);
    return NULL;
}

static int
link_finish_batch(Cellular *self, long long opportunities, long long dp,
                  long long db, long long wasted, double span)
{
    self->delivered_packets += dp;
    self->delivered_bytes += db;
    self->wasted_opportunities += wasted;
    if (opportunities > 1) {
        self->batches_drained++;
        self->batched_packets += dp;
        if (self->tracer != Py_None && opportunities >= batch_event_min) {
            PyObject *r = PyObject_CallMethod(
                (PyObject *)self, "_emit_batch", "LLLd", opportunities, dp,
                db, span);
            if (r == NULL)
                return -1;
            Py_DECREF(r);
        }
    }
    return 0;
}

/* Serve the opportunity at ``now`` plus every later one that is provably
 * unobservable: strictly before the quiescence horizon (the next event
 * of any owner, this link's own pending and newly scheduled deliveries
 * included) and within the run(until) bound. */
static PyObject *
Cellular_serve(Cellular *self, PyObject *Py_UNUSED(ignored))
{
    Engine *sim = link_engine(self);
    PyObject *fired, *tracer, *drain = NULL, *q_deque = NULL, *t_obj = NULL;
    PyObject *group = NULL, *r;
    const double *times;
    Py_ssize_t size, index, cycle;
    double period, prop, t, first_t, nt, horizon = -Py_HUGE_VAL;
    long long delivered_p = 0, delivered_b = 0, wasted = 0,
        opportunities = 0;
    int loop_trace, deliver, has_limit;
    double limit;

    if (sim == NULL)
        return NULL;
    fired = self->service_event;    /* reference moves to ``fired`` */
    self->service_event = Py_NewRef(Py_None);
    tracer = Py_NewRef(self->tracer);
    if (self->outage_open) {
        self->outage_open = 0;
        if (tracer != Py_None) {
            r = PyObject_CallMethodNoArgs((PyObject *)self, s_emit_recover);
            if (r == NULL)
                goto fail;
            Py_DECREF(r);
        }
    }
    if (self->times == Py_None || self->tsize <= 0
            || self->tsize > self->tbuf.len / (Py_ssize_t)sizeof(double)) {
        PyErr_SetString(PyExc_ValueError,
                        "CellularLink._times does not cover _tsize");
        goto fail;
    }
    /* The run(until) boundary is inclusive (events AT `until` fire),
     * unlike the strictly-exclusive quiescence horizon. */
    has_limit = sim->run_until != Py_None;
    limit = sim->until_d;
    t_obj = Py_NewRef(sim->now);
    t = sim->now_d;
    if ((drain = PyObject_GetAttr(self->queue, s_drain)) == NULL
            || (q_deque = PyObject_GetAttr(self->queue, s_queue)) == NULL)
        goto fail;
    times = (const double *)self->tbuf.buf;
    size = self->tsize;
    period = self->period;
    prop = as_double(self->prop_delay);
    if (prop == -1.0 && PyErr_Occurred())
        goto fail;
    if ((loop_trace = PyObject_IsTrue(self->loop)) < 0)
        goto fail;
    deliver = self->on_deliver != Py_None;
    index = self->index;
    cycle = self->cycle;
    first_t = t;
    for (;;) {
        PyObject *args[2] = {t_obj, opportunity_bytes}, *pkts;
        double local;
        int more;
        opportunities++;
        index++;
        if ((pkts = PyObject_Vectorcall(drain, args, 2, NULL)) == NULL)
            goto fail;
        if (!PyList_Check(pkts)) {
            Py_SETREF(pkts, PySequence_List(pkts));
            if (pkts == NULL)
                goto fail;
        }
        if (PyList_GET_SIZE(pkts) > 0) {
            Py_ssize_t i, n = PyList_GET_SIZE(pkts);
            long long nbytes = 0;
            for (i = 0; i < n; i++) {
                PyObject *sz = PyObject_GetAttr(PyList_GET_ITEM(pkts, i),
                                                s_size);
                long long v;
                if (sz == NULL) {
                    Py_DECREF(pkts);
                    goto fail;
                }
                v = PyLong_AsLongLong(sz);
                Py_DECREF(sz);
                if (v == -1 && PyErr_Occurred()) {
                    Py_DECREF(pkts);
                    goto fail;
                }
                nbytes += v;
            }
            delivered_p += n;
            delivered_b += nbytes;
            if (deliver) {
                double due = t + prop;
                if (group != NULL
                        && as_double(PyList_GET_ITEM(group, 0)) == due) {
                    /* Duplicate opportunity instant: nothing ran, so
                     * nothing claimed a seq, since this batch opened the
                     * group; one event delivers both slices. */
                    PyObject *held = PyList_GET_ITEM(group, 1);
                    Py_ssize_t m = PyList_GET_SIZE(held);
                    if (PyList_SetSlice(held, m, m, pkts) < 0) {
                        Py_DECREF(pkts);
                        goto fail;
                    }
                }
                else {
                    PyObject *due_obj = PyFloat_FromDouble(due);
                    if (due_obj == NULL) {
                        Py_DECREF(pkts);
                        goto fail;
                    }
                    Py_XSETREF(group, link_push_group(self, sim, due_obj,
                                                      pkts));
                    Py_DECREF(due_obj);
                    if (group == NULL) {
                        Py_DECREF(pkts);
                        goto fail;
                    }
                }
            }
        }
        else
            wasted++;
        Py_DECREF(pkts);
        if ((more = PyObject_IsTrue(q_deque)) < 0)
            goto fail;
        if (!more)
            /* Idle: leave the service disarmed; the next enqueue re-arms
             * and the lazy fast-forward accounts wasted opportunities. */
            break;
        /* Replicate the per-event re-arm's float round-trip
         * (_next_opportunity_time): remaining same-instant duplicate
         * opportunities compare below `local` and are wasted. */
        local = t - (double)cycle * period;
        while (index < size && times[index] < local) {
            index++;
            wasted++;
        }
        if (index < size)
            nt = (double)cycle * period + times[index];
        else if (loop_trace) {
            cycle++;
            index = 0;
            nt = period * (double)cycle + times[0];
        }
        else
            nt = Py_HUGE_VAL;
        if (horizon == -Py_HUGE_VAL) {
            /* The pump is not excluded (DESIGN.md §9); first_t + prop
             * caps the groups this batch itself schedules. */
            double bound = first_t + prop;
            horizon = engine_horizon(sim, Py_None);
            if (horizon == -1.0 && PyErr_Occurred())
                goto fail;
            if (bound < horizon)
                horizon = bound;
        }
        if (nt < horizon && (!has_limit || nt <= limit)) {
            t = nt;
            Py_SETREF(t_obj, PyFloat_FromDouble(t));
            if (t_obj == NULL)
                goto fail;
            continue;
        }
        /* Horizon reached: arm a plain service event at nt. */
        self->index = index;
        self->cycle = cycle;
        if (tracer != Py_None && !self->outage_open) {
            /* Gap measured from the last opportunity actually served. */
            double gap = nt - t;
            if (gap >= outage_gap) {
                self->outage_open = 1;
                r = nt != Py_HUGE_VAL
                    ? PyObject_CallMethod((PyObject *)self, "_emit_outage",
                                          "d", gap)
                    : PyObject_CallMethodOneArg((PyObject *)self,
                                                s_emit_outage, Py_None);
                if (r == NULL)
                    goto fail;
                Py_DECREF(r);
            }
        }
        if (nt != Py_HUGE_VAL) {
            PyObject *nt_obj = PyFloat_FromDouble(nt), *event;
            if (nt_obj == NULL)
                goto fail;
            if (check_time(sim, nt_obj, nt) < 0) {
                Py_DECREF(nt_obj);
                goto fail;
            }
            event = fired != Py_None
                ? engine_push_reuse(sim, fired, nt_obj, NULL)
                : engine_push_new(sim, nt_obj, NULL, self->serve_cb);
            Py_DECREF(nt_obj);
            if (event == NULL)
                goto fail;
            Py_SETREF(self->service_event, event);
        }
        goto finish;
    }
    self->index = index;
    self->cycle = cycle;
finish:
    if (link_finish_batch(self, opportunities, delivered_p, delivered_b,
                          wasted, t - first_t) < 0)
        goto fail;
    Py_DECREF(fired);
    Py_DECREF(tracer);
    Py_DECREF(drain);
    Py_DECREF(q_deque);
    Py_DECREF(t_obj);
    Py_XDECREF(group);
    Py_RETURN_NONE;
fail:
    Py_DECREF(fired);
    Py_DECREF(tracer);
    Py_XDECREF(drain);
    Py_XDECREF(q_deque);
    Py_XDECREF(t_obj);
    Py_XDECREF(group);
    return NULL;
}

static PyObject *
Cellular_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    Cellular *self = (Cellular *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->sim = Py_NewRef(Py_None);
    self->queue = Py_NewRef(Py_None);
    self->prop_delay = PyFloat_FromDouble(0.0);
    self->on_deliver = Py_NewRef(Py_None);
    self->tracer = Py_NewRef(Py_None);
    self->loop = Py_NewRef(Py_True);
    self->times = Py_NewRef(Py_None);
    self->service_event = Py_NewRef(Py_None);
    self->serve_cb = Py_NewRef(Py_None);
    self->pending = PyList_New(0);
    self->pump_event = Py_NewRef(Py_None);
    if (self->prop_delay == NULL || self->pending == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static int
Cellular_traverse(Cellular *self, visitproc visit, void *arg)
{
    Py_VISIT(self->dict);
    Py_VISIT(self->sim);
    Py_VISIT(self->queue);
    Py_VISIT(self->prop_delay);
    Py_VISIT(self->on_deliver);
    Py_VISIT(self->tracer);
    Py_VISIT(self->loop);
    Py_VISIT(self->times);
    Py_VISIT(self->service_event);
    Py_VISIT(self->serve_cb);
    Py_VISIT(self->pending);
    Py_VISIT(self->pump_event);
    return 0;
}

static int
Cellular_clear(Cellular *self)
{
    Py_CLEAR(self->dict);
    Py_CLEAR(self->sim);
    Py_CLEAR(self->queue);
    Py_CLEAR(self->prop_delay);
    Py_CLEAR(self->on_deliver);
    Py_CLEAR(self->tracer);
    Py_CLEAR(self->loop);
    Py_CLEAR(self->service_event);
    Py_CLEAR(self->serve_cb);
    Py_CLEAR(self->pending);
    Py_CLEAR(self->pump_event);
    return 0;
}

static void
Cellular_dealloc(Cellular *self)
{
    PyObject_GC_UnTrack(self);
    if (self->weakrefs != NULL)
        PyObject_ClearWeakRefs((PyObject *)self);
    Cellular_clear(self);
    if (self->times != NULL) {
        if (self->times != Py_None)
            PyBuffer_Release(&self->tbuf);
        Py_CLEAR(self->times);
    }
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Cellular_get_times(Cellular *self, void *closure)
{
    return Py_NewRef(self->times);
}

static int
Cellular_set_times(Cellular *self, PyObject *value, void *closure)
{
    Py_buffer view;
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete _times");
        return -1;
    }
    if (PyObject_GetBuffer(value, &view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT)
            < 0)
        return -1;
    if (view.itemsize != (Py_ssize_t)sizeof(double) || view.format == NULL
            || view.format[strlen(view.format) - 1] != 'd') {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_TypeError, "_times must be a float64 buffer");
        return -1;
    }
    if (self->times != Py_None)
        PyBuffer_Release(&self->tbuf);
    self->tbuf = view;
    Py_INCREF(value);
    Py_SETREF(self->times, value);
    return 0;
}

static PyMethodDef Cellular_methods[] = {
    {"enqueue", (PyCFunction)Cellular_enqueue, METH_O,
     "enqueue(packet) -> bool\n\nOffer a packet to the bottleneck buffer; "
     "False if the buffer dropped it."},
    {"_serve", (PyCFunction)Cellular_serve, METH_NOARGS,
     "Serve the opportunity at ``now`` and every later one no other "
     "event can observe (DESIGN.md §9)."},
    {"_pump_fire", (PyCFunction)Cellular_pump_fire, METH_NOARGS,
     "Deliver the head group; re-arm for the next one."},
    {NULL}
};

#define OBJ(name, field) \
    {name, T_OBJECT, offsetof(Cellular, field), 0, NULL}
#define LL(name, field) \
    {name, T_LONGLONG, offsetof(Cellular, field), 0, NULL}
#define SSIZE(name, field) \
    {name, T_PYSSIZET, offsetof(Cellular, field), 0, NULL}

static PyMemberDef Cellular_members[] = {
    OBJ("sim", sim),
    OBJ("queue", queue),
    OBJ("_prop_delay", prop_delay),
    OBJ("on_deliver", on_deliver),
    OBJ("_tracer", tracer),
    OBJ("loop", loop),
    OBJ("_service_event", service_event),
    OBJ("_serve_cb", serve_cb),
    OBJ("_pending", pending),
    OBJ("_pump_event", pump_event),
    SSIZE("_tsize", tsize),
    SSIZE("_cycle", cycle),
    SSIZE("_index", index),
    SSIZE("_phead", phead),
    {"_period", T_DOUBLE, offsetof(Cellular, period), 0, NULL},
    {"_outage_open", T_BOOL, offsetof(Cellular, outage_open), 0, NULL},
    LL("delivered_packets", delivered_packets),
    LL("delivered_bytes", delivered_bytes),
    LL("wasted_opportunities", wasted_opportunities),
    LL("batches_drained", batches_drained),
    LL("batched_packets", batched_packets),
    {NULL}
};

static PyGetSetDef Cellular_getset[] = {
    {"_times", (getter)Cellular_get_times, (setter)Cellular_set_times, NULL,
     NULL},
    {"__dict__", PyObject_GenericGetDict, PyObject_GenericSetDict, NULL,
     NULL},
    {NULL}
};

static PyTypeObject CellularType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._core.Cellular",
    .tp_doc = "The cellular link's hot path (base of "
              "repro.sim.link.CellularLink).",
    .tp_basicsize = sizeof(Cellular),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = Cellular_new,
    .tp_dealloc = (destructor)Cellular_dealloc,
    .tp_traverse = (traverseproc)Cellular_traverse,
    .tp_clear = (inquiry)Cellular_clear,
    .tp_methods = Cellular_methods,
    .tp_members = Cellular_members,
    .tp_getset = Cellular_getset,
    .tp_dictoffset = offsetof(Cellular, dict),
    .tp_weaklistoffset = offsetof(Cellular, weakrefs),
};

/* ------------------------------------------------------------------ */
/* module                                                              */
/* ------------------------------------------------------------------ */

static int
bind(PyObject **slot, PyObject *value)
{
    Py_XINCREF(value);
    Py_XSETREF(*slot, value);
    return 0;
}

static PyObject *
configure(PyObject *module, PyObject *args, PyObject *kwds)
{
    static char *names[] = {"event", "deadline_cell", "deadline_error",
                            "opportunity_bytes", "outage_gap",
                            "batch_event_min", NULL};
    PyObject *event = NULL, *cell = NULL, *error = NULL, *opp = NULL;
    double gap = outage_gap;
    long long batch_min = batch_event_min;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O!O!OOdL", names,
                                     &PyType_Type, &event, &PyList_Type,
                                     &cell, &error, &opp, &gap, &batch_min))
        return NULL;
    if (event != NULL) {
        if (!PyType_IsSubtype((PyTypeObject *)event, &PyList_Type)) {
            PyErr_SetString(PyExc_TypeError, "event must subclass list");
            return NULL;
        }
        bind(&event_type, event);
    }
    if (cell != NULL)
        bind(&deadline_cell, cell);
    if (error != NULL)
        bind(&deadline_error, error);
    if (opp != NULL)
        bind(&opportunity_bytes, opp);
    outage_gap = gap;
    batch_event_min = batch_min;
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"configure", (PyCFunction)(void (*)(void))configure,
     METH_VARARGS | METH_KEYWORDS,
     "configure(*, event, deadline_cell, deadline_error, opportunity_bytes, "
     "outage_gap, batch_event_min)\n\nBind the Python-side objects and "
     "constants the core shares with repro.sim.engine and repro.sim.link."},
    {NULL}
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT, "_core",
    "The packet tier's event loop and cellular service loop.", -1,
    module_methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    PyObject *m, *heapq, *time;
    if (PyType_Ready(&EngineType) < 0 || PyType_Ready(&CellularType) < 0)
        return NULL;
    if ((heapq = PyImport_ImportModule("_heapq")) == NULL)
        return NULL;
    heappush_fn = PyObject_GetAttrString(heapq, "heappush");
    heappop_fn = PyObject_GetAttrString(heapq, "heappop");
    heapify_fn = PyObject_GetAttrString(heapq, "heapify");
    Py_DECREF(heapq);
    if ((time = PyImport_ImportModule("time")) == NULL)
        return NULL;
    monotonic_fn = PyObject_GetAttrString(time, "monotonic");
    Py_DECREF(time);
    if (!heappush_fn || !heappop_fn || !heapify_fn || !monotonic_fn)
        return NULL;
    deadline_error = Py_NewRef(PyExc_RuntimeError);
    opportunity_bytes = PyLong_FromLong(1500);
#define INTERN(var, text) \
    if ((var = PyUnicode_InternFromString(text)) == NULL) return NULL;
    INTERN(s_push, "push");
    INTERN(s_drain, "drain_opportunity");
    INTERN(s_queue, "_queue");
    INTERN(s_size, "size");
    INTERN(s_pump_fire, "_pump_fire");
    INTERN(s_arm_service, "_arm_service");
    INTERN(s_emit_recover, "_emit_recover");
    INTERN(s_emit_outage, "_emit_outage");
    INTERN(s_cancel, "cancel");
#undef INTERN
    if ((m = PyModule_Create(&core_module)) == NULL)
        return NULL;
    Py_INCREF(&EngineType);
    Py_INCREF(&CellularType);
    if (PyModule_AddObject(m, "Engine", (PyObject *)&EngineType) < 0
            || PyModule_AddObject(m, "Cellular", (PyObject *)&CellularType)
            < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
