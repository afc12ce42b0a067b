/* The packet tier's per-packet path: the event loop, the cellular link's
 * service loop, the drop-tail queue, the receiver's ACK path, the packet
 * and the flow demultiplexer.
 *
 * ``Engine`` is the base type of ``repro.sim.engine.Simulator``: the
 * scheduling entry points, ``run`` and the quiescence probe.  ``Cellular``
 * is the base type of ``repro.sim.link.CellularLink``: ``enqueue``, the
 * batched ``_serve`` with its delivery-group push, and the delivery pump
 * ``_pump_fire``.  ``DropTail`` is the base type of
 * ``repro.sim.queues.DropTailQueue`` (and through it of ``CoDelQueue``):
 * ``push``, ``pop``, ``drain_opportunity``, ``peek``, ``len`` and the
 * byte, drop and sojourn counters.  ``Receiver`` is the base type of
 * ``repro.tcp.receiver.TcpReceiver``: ``receive``, ``_emit_ack``,
 * ``receiver_timestamp`` and ``_sack_blocks``.  ``Packet`` is
 * ``repro.sim.packet.Packet`` itself, and ``Demux`` is the callable a
 * ``DuplexPath`` hands each link as ``on_deliver``.  Construction, the
 * once-per-busy-period re-arm, the telemetry formatting, the delayed-ACK
 * timer, the receiver's reorder store and ``close`` stay in Python.
 *
 * Everything here reproduces the Python it replaced bit for bit (the
 * frozen copies are in ``tests/reference/``; DESIGN.md, "The packet core
 * in C"):
 *
 *  - the same IEEE double operations in the same order, built with
 *    -ffp-contract=off so no multiply-add is fused;
 *  - every heap seq is claimed at the same point from the one counter,
 *    and the heap is kept by ``_heapq``'s own functions, so its layout,
 *    and with it every tie and ``horizon_excluding``'s bound, is the
 *    same;
 *  - the queue is reached through its attributes on every call, and the
 *    pump callback is looked up as ``self._pump_fire``, so subclasses
 *    (CoDel), span wrappers and profiler wrappers keep working.
 *
 * The module is built by ``repro.util.cbuild`` on first import of
 * ``repro.sim``.
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

static PyObject *s_push, *s_drain, *s_pump_fire, *s_arm_service,
    *s_emit_recover, *s_emit_outage, *s_cancel, *s_now, *s_arm_delack,
    *s_sack_blocks, *s_first_gap, *s_remove_below, *s_add,
    *s_interval_containing, *s_tail_intervals;

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
/* Packet                                                              */
/* ------------------------------------------------------------------ */

/* The fields in constructor order. */
enum {
    P_FLOW, P_SEQ, P_ACK, P_IS_ACK, P_TSVAL, P_TSECR, P_SACKS, P_SIZE,
    P_SENT, P_RTX, P_UID, P_ENQ, P_NFIELDS
};

static const char *const packet_names[P_NFIELDS] = {
    "flow_id", "seq", "ack", "is_ack", "tsval", "tsecr", "sacks", "size",
    "sent_time", "retransmit", "uid", "enqueue_time",
};

typedef struct {
    PyObject_HEAD
    PyObject *f[P_NFIELDS];
} Packet;

static PyTypeObject PacketType;
static PyObject *s_pkt[P_NFIELDS];
/* Defaults; the two sizes are bound from repro.sim.packet by configure(). */
static PyObject *zero_int, *zero_float, *minus_one, *data_bytes, *ack_bytes;
static long long next_uid;

/* A packet built from one value per field; NULL takes the default. */
static PyObject *
packet_build(PyObject *const *a)
{
    Packet *p = PyObject_GC_New(Packet, &PacketType);
    int i;
    if (p == NULL)
        return NULL;
    for (i = 0; i < P_NFIELDS; i++)
        p->f[i] = a[i] ? Py_NewRef(a[i]) : NULL;
#define DEFAULT(i, value) if (p->f[i] == NULL) p->f[i] = Py_NewRef(value)
    DEFAULT(P_SEQ, zero_int);
    DEFAULT(P_ACK, zero_int);
    DEFAULT(P_IS_ACK, Py_False);
    DEFAULT(P_TSVAL, zero_float);
    DEFAULT(P_TSECR, minus_one);
    DEFAULT(P_SIZE, data_bytes);
    DEFAULT(P_SENT, zero_float);
    DEFAULT(P_RTX, Py_False);
    DEFAULT(P_ENQ, Py_None);
#undef DEFAULT
    if ((p->f[P_SACKS] == NULL && (p->f[P_SACKS] = PyList_New(0)) == NULL)
            || (p->f[P_UID] == NULL
                && (p->f[P_UID] = PyLong_FromLongLong(next_uid++)) == NULL)) {
        Py_DECREF(p);
        return NULL;
    }
    PyObject_GC_Track(p);
    return (PyObject *)p;
}

static PyObject *
Packet_vectorcall(PyObject *Py_UNUSED(type), PyObject *const *args,
                  size_t nargsf, PyObject *kwnames)
{
    PyObject *a[P_NFIELDS];
    if (parse_args("Packet", args, PyVectorcall_NARGS(nargsf), kwnames,
                   packet_names, 1, P_NFIELDS, a) < 0)
        return NULL;
    return packet_build(a);
}

static PyObject *
Packet_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    return PyVectorcall_Call((PyObject *)type, args, kwds);
}

/* Field ``i`` of any packet-like object (new reference). */
static PyObject *
pkt_get(PyObject *p, int i)
{
    if (Py_IS_TYPE(p, &PacketType) && ((Packet *)p)->f[i] != NULL)
        return Py_NewRef(((Packet *)p)->f[i]);
    return PyObject_GetAttr(p, s_pkt[i]);
}

static int
pkt_set(PyObject *p, int i, PyObject *value)
{
    if (Py_IS_TYPE(p, &PacketType)) {
        Py_XSETREF(((Packet *)p)->f[i], Py_NewRef(value));
        return 0;
    }
    return PyObject_SetAttr(p, s_pkt[i], value);
}

/* ``p.size`` as a C integer; -1 with an exception set on error. */
static long long
pkt_size(PyObject *p)
{
    PyObject *o = pkt_get(p, P_SIZE);
    long long v;
    if (o == NULL)
        return -1;
    v = PyLong_AsLongLong(o);
    Py_DECREF(o);
    return v;
}

static int
Packet_traverse(Packet *self, visitproc visit, void *arg)
{
    int i;
    for (i = 0; i < P_NFIELDS; i++)
        Py_VISIT(self->f[i]);
    return 0;
}

static int
Packet_clear(Packet *self)
{
    int i;
    for (i = 0; i < P_NFIELDS; i++)
        Py_CLEAR(self->f[i]);
    return 0;
}

static void
Packet_dealloc(Packet *self)
{
    PyObject_GC_UnTrack(self);
    Packet_clear(self);
    PyObject_GC_Del(self);
}

static PyObject *
packet_fields(Packet *self)
{
    PyObject *t = PyTuple_New(P_NFIELDS);
    int i;
    if (t == NULL)
        return NULL;
    for (i = 0; i < P_NFIELDS; i++) {
        PyObject *v = self->f[i];
        if (v == NULL) {
            Py_DECREF(t);
            return PyObject_GetAttr((PyObject *)self, s_pkt[i]);
        }
        PyTuple_SET_ITEM(t, i, Py_NewRef(v));
    }
    return t;
}

/* The dataclass's ``__eq__``: field tuples of two packets. */
static PyObject *
Packet_richcompare(PyObject *a, PyObject *b, int op)
{
    PyObject *ta, *tb, *r;
    if ((op != Py_EQ && op != Py_NE) || !Py_IS_TYPE(b, &PacketType))
        Py_RETURN_NOTIMPLEMENTED;
    if ((ta = packet_fields((Packet *)a)) == NULL)
        return NULL;
    if ((tb = packet_fields((Packet *)b)) == NULL) {
        Py_DECREF(ta);
        return NULL;
    }
    r = PyObject_RichCompare(ta, tb, op);
    Py_DECREF(ta);
    Py_DECREF(tb);
    return r;
}

static PyObject *
Packet_repr(Packet *self)
{
    PyObject *flow, *value, *ts = NULL, *r = NULL;
    int ack = PyObject_IsTrue(self->f[P_IS_ACK] ? self->f[P_IS_ACK]
                              : Py_False);
    if (ack < 0)
        return NULL;
    if ((flow = PyObject_Format(self->f[P_FLOW] ? self->f[P_FLOW] : Py_None,
                                NULL)) == NULL)
        return NULL;
    value = self->f[ack ? P_ACK : P_SEQ];
    if ((value = PyObject_Format(value ? value : Py_None, NULL)) == NULL)
        goto done;
    if (ack) {
        PyObject *spec = PyUnicode_FromString(".3f");
        if (spec == NULL)
            goto done;
        ts = PyObject_Format(self->f[P_TSVAL] ? self->f[P_TSVAL] : Py_None,
                             spec);
        Py_DECREF(spec);
        if (ts != NULL)
            r = PyUnicode_FromFormat("<ACK flow=%U ack=%U ts=%U>", flow,
                                     value, ts);
    }
    else {
        int rtx = PyObject_IsTrue(self->f[P_RTX] ? self->f[P_RTX]
                                  : Py_False);
        if (rtx >= 0)
            r = PyUnicode_FromFormat("<%s flow=%U seq=%U>",
                                     rtx ? "RTX" : "DATA", flow, value);
    }
done:
    Py_DECREF(flow);
    Py_XDECREF(value);
    Py_XDECREF(ts);
    return r;
}

static PyObject *
Packet_reduce(Packet *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *fields = packet_fields(self);
    if (fields == NULL)
        return NULL;
    return Py_BuildValue("(ON)", (PyObject *)Py_TYPE(self), fields);
}

static PyMethodDef Packet_methods[] = {
    {"__reduce__", (PyCFunction)Packet_reduce, METH_NOARGS, NULL},
    {NULL, NULL, 0, NULL}
};

#define PF(name, i) \
    {name, T_OBJECT_EX, offsetof(Packet, f) + (i) * sizeof(PyObject *), 0, \
     NULL}

static PyMemberDef Packet_members[] = {
    PF("flow_id", P_FLOW), PF("seq", P_SEQ), PF("ack", P_ACK),
    PF("is_ack", P_IS_ACK), PF("tsval", P_TSVAL), PF("tsecr", P_TSECR),
    PF("sacks", P_SACKS), PF("size", P_SIZE), PF("sent_time", P_SENT),
    PF("retransmit", P_RTX), PF("uid", P_UID),
    PF("enqueue_time", P_ENQ),
    {NULL, 0, 0, 0, NULL}
};

#undef PF

static PyTypeObject PacketType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.packet.Packet",
    .tp_doc = "Packet(flow_id, seq=0, ack=0, is_ack=False, tsval=0.0, "
              "tsecr=-1.0, sacks=[], size=DATA_PACKET_BYTES, sent_time=0.0, "
              "retransmit=False, uid=<next>, enqueue_time=None)\n\n"
              "A simulated TCP packet (data segment or ACK); the fields are "
              "documented in repro.sim.packet.",
    .tp_basicsize = sizeof(Packet),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = Packet_new,
    .tp_vectorcall = Packet_vectorcall,
    .tp_dealloc = (destructor)Packet_dealloc,
    .tp_traverse = (traverseproc)Packet_traverse,
    .tp_clear = (inquiry)Packet_clear,
    .tp_repr = (reprfunc)Packet_repr,
    .tp_richcompare = Packet_richcompare,
    .tp_hash = PyObject_HashNotImplemented,
    .tp_methods = Packet_methods,
    .tp_members = Packet_members,
};

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
Engine_new(PyTypeObject *type, PyObject *Py_UNUSED(args),
           PyObject *Py_UNUSED(kwds))
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
Engine_init(PyObject *Py_UNUSED(self), PyObject *args, PyObject *kwds)
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
Engine_get_now(Engine *self, void *Py_UNUSED(closure))
{
    return Py_NewRef(self->now);
}

static int
Engine_set_now(Engine *self, PyObject *value, void *Py_UNUSED(closure))
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
Engine_get_run_until(Engine *self, void *Py_UNUSED(closure))
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
    PyObject *fired, *tracer, *drain = NULL, *t_obj = NULL;
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
    if ((drain = PyObject_GetAttr(self->queue, s_drain)) == NULL)
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
                long long v = pkt_size(PyList_GET_ITEM(pkts, i));
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
        if ((more = PyObject_IsTrue(self->queue)) < 0)
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
    Py_DECREF(t_obj);
    Py_XDECREF(group);
    Py_RETURN_NONE;
fail:
    Py_DECREF(fired);
    Py_DECREF(tracer);
    Py_XDECREF(drain);
    Py_XDECREF(t_obj);
    Py_XDECREF(group);
    return NULL;
}

static PyObject *
Cellular_new(PyTypeObject *type, PyObject *Py_UNUSED(args),
             PyObject *Py_UNUSED(kwds))
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
Cellular_get_times(Cellular *self, void *Py_UNUSED(closure))
{
    return Py_NewRef(self->times);
}

static int
Cellular_set_times(Cellular *self, PyObject *value,
                   void *Py_UNUSED(closure))
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
/* Drop-tail queue                                                     */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject **ring;        /* ``len`` packets from ``head``, mod ``size`` */
    Py_ssize_t size, head, len;
    Py_ssize_t capacity;
    PyObject *on_drop;
    long long drops, enqueued, bytes, enqueued_bytes;
    double sojourn_max;     /* largest now - enqueue_time dequeued, or -1 */
} DropTail;

static PyObject *
DropTail_new(PyTypeObject *type, PyObject *Py_UNUSED(args),
             PyObject *Py_UNUSED(kwds))
{
    DropTail *self = (DropTail *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->on_drop = Py_NewRef(Py_None);
    self->sojourn_max = -1.0;
    return (PyObject *)self;
}

/* The head packet off the ring (reference moves to the caller). */
static PyObject *
queue_take(DropTail *self)
{
    PyObject *p = self->ring[self->head];
    self->ring[self->head] = NULL;
    self->head = (self->head + 1) & (self->size - 1);
    self->len--;
    return p;
}

/* Fold one dequeue at ``now`` into the running sojourn maximum. */
static int
queue_sojourn(DropTail *self, PyObject *packet, PyObject *now)
{
    PyObject *enq = pkt_get(packet, P_ENQ);
    double t, e;
    if (enq == NULL)
        return -1;
    if (enq != Py_None) {
        t = as_double(now);
        e = as_double(enq);
        if ((t == -1.0 || e == -1.0) && PyErr_Occurred()) {
            Py_DECREF(enq);
            return -1;
        }
        if (t - e > self->sojourn_max)
            self->sojourn_max = t - e;
    }
    Py_DECREF(enq);
    return 0;
}

static PyObject *
DropTail_push(DropTail *self, PyObject *const *args, Py_ssize_t nargs,
              PyObject *kwnames)
{
    static const char *const names[] = {"packet", "now"};
    PyObject *a[2];
    long long size;
    if (parse_args("push", args, nargs, kwnames, names, 2, 2, a) < 0)
        return NULL;
    if (self->len >= self->capacity) {
        self->drops++;
        if (self->on_drop != NULL && self->on_drop != Py_None) {
            PyObject *r = PyObject_CallOneArg(self->on_drop, a[0]);
            if (r == NULL)
                return NULL;
            Py_DECREF(r);
        }
        Py_RETURN_FALSE;
    }
    if (pkt_set(a[0], P_ENQ, a[1]) < 0)
        return NULL;
    if (self->len == self->size) {
        /* Grow the ring to twice its size, unrolled from ``head``. */
        Py_ssize_t n = self->size ? 2 * self->size : 16, i;
        PyObject **ring = PyMem_New(PyObject *, n);
        if (ring == NULL)
            return PyErr_NoMemory();
        for (i = 0; i < self->len; i++)
            ring[i] = self->ring[(self->head + i) & (self->size - 1)];
        PyMem_Free(self->ring);
        self->ring = ring;
        self->size = n;
        self->head = 0;
    }
    self->ring[(self->head + self->len) & (self->size - 1)] =
        Py_NewRef(a[0]);
    self->len++;
    self->enqueued++;
    if ((size = pkt_size(a[0])) == -1 && PyErr_Occurred())
        return NULL;
    self->bytes += size;
    self->enqueued_bytes += size;
    Py_RETURN_TRUE;
}

static PyObject *
DropTail_pop(DropTail *self, PyObject *const *args, Py_ssize_t nargs,
             PyObject *kwnames)
{
    static const char *const names[] = {"now"};
    PyObject *now, *packet;
    long long size;
    if (parse_args("pop", args, nargs, kwnames, names, 1, 1, &now) < 0)
        return NULL;
    if (self->len == 0)
        Py_RETURN_NONE;
    packet = queue_take(self);
    if (((size = pkt_size(packet)) == -1 && PyErr_Occurred())
            || queue_sojourn(self, packet, now) < 0) {
        Py_DECREF(packet);
        return NULL;
    }
    self->bytes -= size;
    return packet;
}

static PyObject *
DropTail_drain(DropTail *self, PyObject *const *args, Py_ssize_t nargs,
               PyObject *kwnames)
{
    static const char *const names[] = {"now", "budget"};
    PyObject *a[2], *out;
    long long budget;
    if (parse_args("drain_opportunity", args, nargs, kwnames, names, 2, 2, a)
            < 0)
        return NULL;
    if ((budget = PyLong_AsLongLong(a[1])) == -1 && PyErr_Occurred())
        return NULL;
    if ((out = PyList_New(0)) == NULL)
        return NULL;
    while (self->len > 0) {
        PyObject *head = self->ring[self->head];
        long long size = pkt_size(head);
        int rc;
        if (size == -1 && PyErr_Occurred())
            goto fail;
        if (size > budget)
            break;
        head = queue_take(self);
        self->bytes -= size;
        budget -= size;
        rc = PyList_Append(out, head);
        if (rc == 0)
            rc = queue_sojourn(self, head, a[0]);
        Py_DECREF(head);
        if (rc < 0)
            goto fail;
    }
    return out;
fail:
    Py_DECREF(out);
    return NULL;
}

static PyObject *
DropTail_peek(DropTail *self, PyObject *Py_UNUSED(ignored))
{
    if (self->len == 0)
        Py_RETURN_NONE;
    return Py_NewRef(self->ring[self->head]);
}

static Py_ssize_t
DropTail_length(DropTail *self)
{
    return self->len;
}

static int
DropTail_traverse(DropTail *self, visitproc visit, void *arg)
{
    Py_ssize_t i;
    Py_VISIT(self->on_drop);
    for (i = 0; i < self->len; i++)
        Py_VISIT(self->ring[(self->head + i) & (self->size - 1)]);
    return 0;
}

static int
DropTail_clear(DropTail *self)
{
    Py_CLEAR(self->on_drop);
    while (self->len > 0) {
        PyObject *p = queue_take(self);
        Py_DECREF(p);
    }
    return 0;
}

static void
DropTail_dealloc(DropTail *self)
{
    PyObject_GC_UnTrack(self);
    DropTail_clear(self);
    PyMem_Free(self->ring);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef DropTail_methods[] = {
    {"push", (PyCFunction)(void (*)(void))DropTail_push,
     METH_FASTCALL | METH_KEYWORDS,
     "push(packet, now) -> bool\n\nEnqueue ``packet`` stamped with "
     "``enqueue_time = now``; False (counted in ``drops`` and passed to "
     "``on_drop``) if the queue is full."},
    {"pop", (PyCFunction)(void (*)(void))DropTail_pop,
     METH_FASTCALL | METH_KEYWORDS,
     "pop(now) -> Packet | None\n\nDequeue the head packet, or None if "
     "empty."},
    {"drain_opportunity", (PyCFunction)(void (*)(void))DropTail_drain,
     METH_FASTCALL | METH_KEYWORDS,
     "drain_opportunity(now, budget) -> list\n\nDequeue the head packets "
     "that fit one delivery opportunity of ``budget`` bytes, in one call "
     "so the link pays a single dispatch per opportunity."},
    {"peek", (PyCFunction)DropTail_peek, METH_NOARGS,
     "peek() -> Packet | None\n\nThe head packet, left queued."},
    {NULL, NULL, 0, NULL}
};

static PyMemberDef DropTail_members[] = {
    {"capacity", T_PYSSIZET, offsetof(DropTail, capacity), 0,
     "Buffer size in packets."},
    {"on_drop", T_OBJECT, offsetof(DropTail, on_drop), 0,
     "Called with each packet the queue drops, or None."},
    {"drops", T_LONGLONG, offsetof(DropTail, drops), 0, NULL},
    {"enqueued", T_LONGLONG, offsetof(DropTail, enqueued), 0, NULL},
    {"bytes", T_LONGLONG, offsetof(DropTail, bytes), 0,
     "Bytes queued now."},
    {"enqueued_bytes", T_LONGLONG, offsetof(DropTail, enqueued_bytes), 0,
     "Bytes ever accepted."},
    {"sojourn_max", T_DOUBLE, offsetof(DropTail, sojourn_max), 0,
     "The largest ``now - enqueue_time`` of a packet dequeued since it "
     "was last reset (-1.0: none); the auditor reads and resets it."},
    {NULL, 0, 0, 0, NULL}
};

static PySequenceMethods DropTail_as_sequence = {
    .sq_length = (lenfunc)DropTail_length,
};

static PyTypeObject DropTailType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._core.DropTail",
    .tp_doc = "The drop-tail FIFO (base of repro.sim.queues.DropTailQueue).",
    .tp_basicsize = sizeof(DropTail),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = DropTail_new,
    .tp_dealloc = (destructor)DropTail_dealloc,
    .tp_traverse = (traverseproc)DropTail_traverse,
    .tp_clear = (inquiry)DropTail_clear,
    .tp_methods = DropTail_methods,
    .tp_members = DropTail_members,
    .tp_as_sequence = &DropTail_as_sequence,
};

/* ------------------------------------------------------------------ */
/* Receiver                                                            */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *sim, *flow_id, *send_ack, *on_data, *sack_enabled,
        *delayed_ack, *delack_event, *ooo, *ts_recent, *last_ooo_seq;
    double ts_granularity;
    long long rcv_nxt, unacked_segments, data_packets_received,
        duplicate_packets, unique_segments;
    /* Whether ``ooo`` holds out-of-order data: read from the store when
     * it is set and after each advance through it, so the in-order path
     * with an empty store enters no Python frame of its own. */
    int ooo_held;
} Receiver;

static PyObject *sack_block_type;
static Py_ssize_t max_sack_blocks = 3;

/* ``sim.now``, straight from the C loop when ``sim`` is one. */
static PyObject *
clock_now(PyObject *sim)
{
    if (PyObject_TypeCheck(sim, &EngineType))
        return Py_NewRef(((Engine *)sim)->now);
    return PyObject_GetAttr(sim, s_now);
}

static int
is_set(PyObject *o)
{
    return o == NULL || o == Py_None ? 0 : PyObject_IsTrue(o);
}

static PyObject *
Receiver_new(PyTypeObject *type, PyObject *Py_UNUSED(args),
             PyObject *Py_UNUSED(kwds))
{
    Receiver *self = (Receiver *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->sim = Py_NewRef(Py_None);
    self->flow_id = Py_NewRef(Py_None);
    self->send_ack = Py_NewRef(Py_None);
    self->on_data = Py_NewRef(Py_None);
    self->sack_enabled = Py_NewRef(Py_True);
    self->delayed_ack = Py_NewRef(Py_False);
    self->delack_event = Py_NewRef(Py_None);
    self->ooo = Py_NewRef(Py_None);
    self->ts_recent = PyFloat_FromDouble(-1.0);
    self->last_ooo_seq = Py_NewRef(Py_None);
    if (self->ts_recent == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

/* The receiver's clock quantised to ``ts_granularity``:
 * ``int(now / g) * g``, an int that is then multiplied as a float. */
static PyObject *
receiver_timestamp(Receiver *self)
{
    double g = self->ts_granularity, q, k;
    PyObject *now = clock_now(self->sim);
    if (now == NULL || g <= 0)
        return now;
    q = as_double(now);
    Py_DECREF(now);
    if (q == -1.0 && PyErr_Occurred())
        return NULL;
    q = q / g;
    if (!isfinite(q)) {
        /* int() raises for these; let it say so. */
        PyObject *f = PyFloat_FromDouble(q), *i;
        if (f == NULL)
            return NULL;
        i = PyNumber_Long(f);
        Py_DECREF(f);
        Py_XDECREF(i);
        return NULL;
    }
    k = trunc(q);
    if (k == 0.0)
        k = 0.0;    /* int(-0.5) is 0, whose product is +0.0 */
    return PyFloat_FromDouble(k * g);
}

static PyObject *
Receiver_receiver_timestamp(Receiver *self, PyObject *Py_UNUSED(ignored))
{
    return receiver_timestamp(self);
}

/* Up to ``max_sack_blocks`` blocks, the run holding the newest
 * out-of-order arrival first, then the highest runs. */
static PyObject *
Receiver_sack_blocks(Receiver *self, PyObject *Py_UNUSED(ignored))
{
    PyObject *blocks, *first = NULL, *first_start = NULL, *tail = NULL,
        *it = NULL, *item, *k;
    int on = is_set(self->sack_enabled);
    if (on < 0)
        return NULL;
    if (!on || !self->ooo_held)
        return PyList_New(0);
    if ((blocks = PyList_New(0)) == NULL)
        return NULL;
    if (self->last_ooo_seq != Py_None) {
        first = PyObject_CallMethodOneArg(self->ooo, s_interval_containing,
                                          self->last_ooo_seq);
        if (first == NULL)
            goto fail;
        if (first == Py_None)
            Py_CLEAR(first);
        else {
            PyObject *args = PySequence_Tuple(first), *block;
            if (args == NULL)
                goto fail;
            block = PyObject_Call(sack_block_type, args, NULL);
            if (PyTuple_GET_SIZE(args) > 0)
                first_start = Py_NewRef(PyTuple_GET_ITEM(args, 0));
            Py_DECREF(args);
            if (block == NULL || PyList_Append(blocks, block) < 0) {
                Py_XDECREF(block);
                goto fail;
            }
            Py_DECREF(block);
        }
    }
    if ((k = PyLong_FromSsize_t(max_sack_blocks + 1)) == NULL)
        goto fail;
    tail = PyObject_CallMethodOneArg(self->ooo, s_tail_intervals, k);
    Py_DECREF(k);
    if (tail == NULL || (it = PyObject_GetIter(tail)) == NULL)
        goto fail;
    while ((item = PyIter_Next(it)) != NULL) {
        PyObject *pair = PySequence_Tuple(item), *block;
        int same = 0;
        Py_DECREF(item);
        if (pair == NULL)
            goto fail;
        if (PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_ValueError,
                            "tail_intervals() items must be (start, end)");
            Py_DECREF(pair);
            goto fail;
        }
        if (PyList_GET_SIZE(blocks) >= max_sack_blocks) {
            Py_DECREF(pair);
            break;
        }
        if (first != NULL && first_start != NULL)
            same = PyObject_RichCompareBool(PyTuple_GET_ITEM(pair, 0),
                                            first_start, Py_EQ);
        if (same) {
            Py_DECREF(pair);
            if (same < 0)
                goto fail;
            continue;
        }
        block = PyObject_Call(sack_block_type, pair, NULL);
        Py_DECREF(pair);
        if (block == NULL || PyList_Append(blocks, block) < 0) {
            Py_XDECREF(block);
            goto fail;
        }
        Py_DECREF(block);
    }
    if (PyErr_Occurred())
        goto fail;
    Py_XDECREF(first);
    Py_XDECREF(first_start);
    Py_DECREF(tail);
    Py_DECREF(it);
    return blocks;
fail:
    Py_DECREF(blocks);
    Py_XDECREF(first);
    Py_XDECREF(first_start);
    Py_XDECREF(tail);
    Py_XDECREF(it);
    return NULL;
}

/* One cumulative ACK with the receiver's timestamp, echoing ``echo``. */
static PyObject *
receiver_emit_ack(Receiver *self, PyObject *echo)
{
    PyObject *a[P_NFIELDS] = {NULL}, *ack, *r = NULL;
    if (self->delack_event != Py_None) {
        r = PyObject_CallMethodNoArgs(self->delack_event, s_cancel);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
        Py_SETREF(self->delack_event, Py_NewRef(Py_None));
    }
    self->unacked_segments = 0;
    a[P_FLOW] = self->flow_id;
    a[P_SEQ] = zero_int;
    a[P_IS_ACK] = Py_True;
    a[P_TSECR] = echo;
    a[P_SIZE] = ack_bytes;
    if ((a[P_ACK] = PyLong_FromLongLong(self->rcv_nxt)) == NULL
            || (a[P_TSVAL] = receiver_timestamp(self)) == NULL
            || (a[P_SACKS] = self->ooo_held
                ? PyObject_CallMethodNoArgs((PyObject *)self, s_sack_blocks)
                : PyList_New(0)) == NULL
            || (a[P_SENT] = clock_now(self->sim)) == NULL)
        goto done;
    if ((ack = packet_build(a)) == NULL)
        goto done;
    r = PyObject_CallOneArg(self->send_ack, ack);
    Py_DECREF(ack);
    if (r != NULL)
        Py_SETREF(r, Py_NewRef(Py_None));
done:
    Py_XDECREF(a[P_ACK]);
    Py_XDECREF(a[P_TSVAL]);
    Py_XDECREF(a[P_SACKS]);
    Py_XDECREF(a[P_SENT]);
    return r;
}

static PyObject *
Receiver_emit_ack(Receiver *self, PyObject *echo)
{
    return receiver_emit_ack(self, echo);
}

/* Call ``self.ooo.<name>(value)`` and read the result as a C integer. */
static int
ooo_call_ll(Receiver *self, PyObject *name, long long value,
            long long *out)
{
    PyObject *arg = PyLong_FromLongLong(value), *r;
    if (arg == NULL)
        return -1;
    r = PyObject_CallMethodOneArg(self->ooo, name, arg);
    Py_DECREF(arg);
    if (r == NULL)
        return -1;
    if (out != NULL && (*out = PyLong_AsLongLong(r)) == -1
            && PyErr_Occurred()) {
        Py_DECREF(r);
        return -1;
    }
    Py_DECREF(r);
    return 0;
}

static PyObject *
Receiver_receive(Receiver *self, PyObject *packet)
{
    PyObject *v, *now, *seq_obj, *echo = NULL, *r = NULL;
    long long seq;
    int ack, in_order = 0;

    if (!self->sim || !self->ooo || !self->send_ack || !self->on_data
            || !self->delack_event || !self->ts_recent) {
        PyErr_SetString(PyExc_AttributeError,
                        "TcpReceiver is missing an attribute receive needs");
        return NULL;
    }
    if ((v = pkt_get(packet, P_IS_ACK)) == NULL)
        return NULL;
    ack = PyObject_IsTrue(v);
    Py_DECREF(v);
    if (ack < 0)
        return NULL;
    if (ack) {
        PyErr_SetString(PyExc_ValueError, "receiver got an ACK packet");
        return NULL;
    }
    self->data_packets_received++;
    if ((now = clock_now(self->sim)) == NULL)
        return NULL;
    if (self->on_data != Py_None) {
        PyObject *args[2] = {packet, now};
        r = PyObject_Vectorcall(self->on_data, args, 2, NULL);
        Py_DECREF(now);
        if (r == NULL)
            return NULL;
        Py_DECREF(r);
    }
    else
        Py_DECREF(now);

    if ((seq_obj = pkt_get(packet, P_SEQ)) == NULL)
        return NULL;
    if ((seq = PyLong_AsLongLong(seq_obj)) == -1 && PyErr_Occurred())
        goto done;
    if (seq == self->rcv_nxt) {
        /* In-order (possibly filling a hole): advance through the
         * out-of-order store and echo this segment's timestamp. */
        long long nxt = seq + 1;
        self->unique_segments++;
        if (self->ooo_held) {
            if (ooo_call_ll(self, s_first_gap, nxt, &nxt) < 0
                    || ooo_call_ll(self, s_remove_below, nxt, NULL) < 0
                    || (self->ooo_held = PyObject_IsTrue(self->ooo)) < 0)
                goto done;
        }
        self->rcv_nxt = nxt;
        if ((echo = pkt_get(packet, P_TSVAL)) == NULL)
            goto done;
        Py_SETREF(self->ts_recent, Py_NewRef(echo));
        /* Filling a hole is acknowledged at once (RFC 5681 §4.2). */
        in_order = nxt == seq + 1;
    }
    else if (seq > self->rcv_nxt) {
        int added;
        if ((v = PyObject_CallMethodOneArg(self->ooo, s_add, seq_obj))
                == NULL)
            goto done;
        added = PyObject_IsTrue(v);
        Py_DECREF(v);
        if (added < 0)
            goto done;
        if (added)
            self->unique_segments++;
        else
            self->duplicate_packets++;
        self->ooo_held = 1;
        Py_SETREF(self->last_ooo_seq, Py_NewRef(seq_obj));
        echo = Py_NewRef(self->ts_recent);
    }
    else {
        /* Below rcv_nxt: a duplicate (e.g. spurious retransmission),
         * answered with an immediate duplicate ACK. */
        self->duplicate_packets++;
        echo = Py_NewRef(self->ts_recent);
    }

    if (in_order && !self->ooo_held) {
        int delayed = is_set(self->delayed_ack);
        if (delayed < 0)
            goto done;
        if (delayed && ++self->unacked_segments < 2) {
            if ((r = PyObject_CallMethodOneArg((PyObject *)self, s_arm_delack,
                                               echo)) != NULL)
                Py_SETREF(r, Py_NewRef(Py_None));
            goto done;
        }
    }
    r = receiver_emit_ack(self, echo);
done:
    Py_DECREF(seq_obj);
    Py_XDECREF(echo);
    return r;
}

static int
Receiver_traverse(Receiver *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->flow_id);
    Py_VISIT(self->send_ack);
    Py_VISIT(self->on_data);
    Py_VISIT(self->sack_enabled);
    Py_VISIT(self->delayed_ack);
    Py_VISIT(self->delack_event);
    Py_VISIT(self->ooo);
    Py_VISIT(self->ts_recent);
    Py_VISIT(self->last_ooo_seq);
    return 0;
}

static int
Receiver_clear(Receiver *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->flow_id);
    Py_CLEAR(self->send_ack);
    Py_CLEAR(self->on_data);
    Py_CLEAR(self->sack_enabled);
    Py_CLEAR(self->delayed_ack);
    Py_CLEAR(self->delack_event);
    Py_CLEAR(self->ooo);
    Py_CLEAR(self->ts_recent);
    Py_CLEAR(self->last_ooo_seq);
    return 0;
}

static void
Receiver_dealloc(Receiver *self)
{
    PyObject_GC_UnTrack(self);
    Receiver_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
Receiver_get_ooo(Receiver *self, void *Py_UNUSED(closure))
{
    return Py_NewRef(self->ooo ? self->ooo : Py_None);
}

static int
Receiver_set_ooo(Receiver *self, PyObject *value, void *Py_UNUSED(closure))
{
    int held;
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete _ooo");
        return -1;
    }
    if ((held = is_set(value)) < 0)
        return -1;
    Py_XSETREF(self->ooo, Py_NewRef(value));
    self->ooo_held = held;
    return 0;
}

static PyMethodDef Receiver_methods[] = {
    {"receive", (PyCFunction)Receiver_receive, METH_O,
     "receive(packet)\n\nProcess an arriving data segment and emit (or, "
     "with delayed ACKs, arm) its ACK."},
    {"_emit_ack", (PyCFunction)Receiver_emit_ack, METH_O,
     "_emit_ack(echo)\n\nSend one cumulative ACK echoing ``echo``, with "
     "SACK blocks while out-of-order data is held."},
    {"receiver_timestamp", (PyCFunction)Receiver_receiver_timestamp,
     METH_NOARGS,
     "receiver_timestamp() -> float\n\nThe receiver's clock, quantised to "
     "its timestamp granularity."},
    {"_sack_blocks", (PyCFunction)Receiver_sack_blocks, METH_NOARGS,
     "_sack_blocks() -> list\n\nUp to three SACK blocks, the one with the "
     "latest arrival first.  Only the run holding the newest arrival plus "
     "the highest few runs can appear, so the store is never fully "
     "materialised."},
    {NULL, NULL, 0, NULL}
};

#define ROBJ(name, field) \
    {name, T_OBJECT, offsetof(Receiver, field), 0, NULL}
#define RLL(name, field) \
    {name, T_LONGLONG, offsetof(Receiver, field), 0, NULL}

static PyMemberDef Receiver_members[] = {
    ROBJ("sim", sim),
    ROBJ("flow_id", flow_id),
    ROBJ("send_ack", send_ack),
    ROBJ("on_data", on_data),
    ROBJ("sack_enabled", sack_enabled),
    ROBJ("delayed_ack", delayed_ack),
    ROBJ("_delack_event", delack_event),
    ROBJ("_ts_recent", ts_recent),
    ROBJ("_last_ooo_seq", last_ooo_seq),
    {"ts_granularity", T_DOUBLE, offsetof(Receiver, ts_granularity), 0,
     NULL},
    RLL("rcv_nxt", rcv_nxt),
    RLL("_unacked_segments", unacked_segments),
    RLL("data_packets_received", data_packets_received),
    RLL("duplicate_packets", duplicate_packets),
    RLL("unique_segments", unique_segments),
    {NULL, 0, 0, 0, NULL}
};

#undef ROBJ
#undef RLL

static PyGetSetDef Receiver_getset[] = {
    {"_ooo", (getter)Receiver_get_ooo, (setter)Receiver_set_ooo,
     "The out-of-order store (a ReceiverScoreboard).", NULL},
    {NULL, NULL, NULL, NULL, NULL}
};

static PyTypeObject ReceiverType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._core.Receiver",
    .tp_doc = "The receiver's data and ACK path (base of "
              "repro.tcp.receiver.TcpReceiver).",
    .tp_basicsize = sizeof(Receiver),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = Receiver_new,
    .tp_dealloc = (destructor)Receiver_dealloc,
    .tp_traverse = (traverseproc)Receiver_traverse,
    .tp_clear = (inquiry)Receiver_clear,
    .tp_methods = Receiver_methods,
    .tp_members = Receiver_members,
    .tp_getset = Receiver_getset,
};

/* ------------------------------------------------------------------ */
/* Flow demultiplexer                                                  */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *sinks;
    vectorcallfunc vectorcall;
} Demux;

static PyObject *
Demux_vectorcall(PyObject *self, PyObject *const *args, size_t nargsf,
                 PyObject *kwnames)
{
    PyObject *flow, *sink, *r;
    if (PyVectorcall_NARGS(nargsf) != 1
            || (kwnames != NULL && PyTuple_GET_SIZE(kwnames))) {
        PyErr_SetString(PyExc_TypeError, "Demux takes one packet");
        return NULL;
    }
    if ((flow = pkt_get(args[0], P_FLOW)) == NULL)
        return NULL;
    sink = PyDict_GetItemWithError(((Demux *)self)->sinks, flow);
    Py_DECREF(flow);
    if (sink == NULL)
        return PyErr_Occurred() ? NULL : Py_NewRef(Py_None);
    Py_INCREF(sink);
    r = PyObject_CallOneArg(sink, args[0]);
    Py_DECREF(sink);
    if (r == NULL)
        return NULL;
    Py_DECREF(r);
    Py_RETURN_NONE;
}

static PyObject *
Demux_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *names[] = {"sinks", NULL};
    PyObject *sinks;
    Demux *self;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!", names, &PyDict_Type,
                                     &sinks))
        return NULL;
    if ((self = (Demux *)type->tp_alloc(type, 0)) == NULL)
        return NULL;
    self->sinks = Py_NewRef(sinks);
    self->vectorcall = Demux_vectorcall;
    return (PyObject *)self;
}

static int
Demux_traverse(Demux *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sinks);
    return 0;
}

static int
Demux_clear(Demux *self)
{
    Py_CLEAR(self->sinks);
    return 0;
}

static void
Demux_dealloc(Demux *self)
{
    PyObject_GC_UnTrack(self);
    Demux_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef Demux_members[] = {
    {"sinks", T_OBJECT, offsetof(Demux, sinks), READONLY,
     "flow_id -> the callable a packet of that flow is handed to."},
    {NULL, 0, 0, 0, NULL}
};

static PyTypeObject DemuxType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._core.Demux",
    .tp_doc = "Demux(sinks)\n\nCalled with a packet: hands it to "
              "``sinks[packet.flow_id]``; a packet of an unknown flow is "
              "dropped silently.",
    .tp_basicsize = sizeof(Demux),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
        | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_new = Demux_new,
    .tp_call = PyVectorcall_Call,
    .tp_vectorcall_offset = offsetof(Demux, vectorcall),
    .tp_dealloc = (destructor)Demux_dealloc,
    .tp_traverse = (traverseproc)Demux_traverse,
    .tp_clear = (inquiry)Demux_clear,
    .tp_members = Demux_members,
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
configure(PyObject *Py_UNUSED(module), PyObject *args, PyObject *kwds)
{
    static char *names[] = {"event", "deadline_cell", "deadline_error",
                            "opportunity_bytes", "outage_gap",
                            "batch_event_min", "data_packet_bytes",
                            "ack_packet_bytes", "sack_block",
                            "max_sack_blocks", NULL};
    PyObject *event = NULL, *cell = NULL, *error = NULL, *opp = NULL,
        *data = NULL, *ackb = NULL, *sack = NULL;
    double gap = outage_gap;
    long long batch_min = batch_event_min;
    Py_ssize_t max_sacks = max_sack_blocks;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O!O!OOdLOOOn", names,
                                     &PyType_Type, &event, &PyList_Type,
                                     &cell, &error, &opp, &gap, &batch_min,
                                     &data, &ackb, &sack, &max_sacks))
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
    if (data != NULL)
        bind(&data_bytes, data);
    if (ackb != NULL)
        bind(&ack_bytes, ackb);
    if (sack != NULL)
        bind(&sack_block_type, sack);
    outage_gap = gap;
    batch_event_min = batch_min;
    max_sack_blocks = max_sacks;
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"configure", (PyCFunction)(void (*)(void))configure,
     METH_VARARGS | METH_KEYWORDS,
     "configure(*, event, deadline_cell, deadline_error, opportunity_bytes, "
     "outage_gap, batch_event_min, data_packet_bytes, ack_packet_bytes, "
     "sack_block, max_sack_blocks)\n\nBind the Python-side objects and "
     "constants the core shares with repro.sim.engine, repro.sim.link, "
     "repro.sim.packet and repro.tcp.receiver."},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef core_module = {
    PyModuleDef_HEAD_INIT, "_core",
    "The packet tier's per-packet path: event loop, cellular service loop, "
    "drop-tail queue, receiver, packet and flow demux.", -1,
    module_methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    PyObject *m, *heapq, *time;
    int i;
    if (PyType_Ready(&EngineType) < 0 || PyType_Ready(&CellularType) < 0
            || PyType_Ready(&PacketType) < 0 || PyType_Ready(&DropTailType) < 0
            || PyType_Ready(&ReceiverType) < 0 || PyType_Ready(&DemuxType) < 0)
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
    data_bytes = PyLong_FromLong(1500);
    ack_bytes = PyLong_FromLong(60);
    zero_int = PyLong_FromLong(0);
    zero_float = PyFloat_FromDouble(0.0);
    minus_one = PyFloat_FromDouble(-1.0);
    if (!opportunity_bytes || !data_bytes || !ack_bytes || !zero_int
            || !zero_float || !minus_one)
        return NULL;
    for (i = 0; i < P_NFIELDS; i++)
        if ((s_pkt[i] = PyUnicode_InternFromString(packet_names[i])) == NULL)
            return NULL;
#define INTERN(var, text) \
    if ((var = PyUnicode_InternFromString(text)) == NULL) return NULL;
    INTERN(s_push, "push");
    INTERN(s_drain, "drain_opportunity");
    INTERN(s_pump_fire, "_pump_fire");
    INTERN(s_arm_service, "_arm_service");
    INTERN(s_emit_recover, "_emit_recover");
    INTERN(s_emit_outage, "_emit_outage");
    INTERN(s_cancel, "cancel");
    INTERN(s_now, "now");
    INTERN(s_arm_delack, "_arm_delack");
    INTERN(s_sack_blocks, "_sack_blocks");
    INTERN(s_first_gap, "first_gap_at_or_after");
    INTERN(s_remove_below, "remove_below");
    INTERN(s_add, "add");
    INTERN(s_interval_containing, "interval_containing");
    INTERN(s_tail_intervals, "tail_intervals");
#undef INTERN
    if ((m = PyModule_Create(&core_module)) == NULL)
        return NULL;
    if (PyModule_AddType(m, &EngineType) < 0
            || PyModule_AddType(m, &CellularType) < 0
            || PyModule_AddType(m, &PacketType) < 0
            || PyModule_AddType(m, &DropTailType) < 0
            || PyModule_AddType(m, &ReceiverType) < 0
            || PyModule_AddType(m, &DemuxType) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
