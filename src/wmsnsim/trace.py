"""The event trace: its records, its canonical lines and their digest.

An event reads as a dict of frame, slot, phase, station, event and
detail, and every detail value is JSON-ready when emitted (enum values,
lists, never tuples). Its canonical line is json.dumps(event,
sort_keys=True, separators=(",", ":")) followed by one "\\n": keys sorted
at every level, no spaces, floats as repr, and ASCII-only strings
(quote, backslash, \\b \\f \\n \\r \\t escaped short, every other control or
non-ASCII character as \\uXXXX). serialize_trace joins those lines, and
trace_digest is the SHA-256 of their UTF-8 bytes, which a written
trace.jsonl holds byte for byte. Only this module knows that format:
the engine calls a Trace's emitters, and the auditor reads the records
through a key table of its own.

Each line is made once, as UTF-8 bytes, as its event is emitted. Every
kind the engine emits during frames is declared in _SHAPES, and its
emitter, the Trace method named after it, is compiled from that
declaration (see _emitter): it appends the record, the tuple (kind,
frame, slot, phase, station, the detail's values in _SHAPES order), and
fills the kind's bytes printf template when the values pass their
types' tests. The one other way to make a line is _line, the reference
encoder: it writes the events of Trace.emit (the route events, kept as
dicts), an event with a value off its type, and the events of a list
that keeps no text. Trace.fold joins the lines emitted since the last
fold onto the UTF-8 bytes the trace keeps, and the engine folds at the
end of each frame, so at most a frame's lines are pending and the
run's digest only hashes the kept bytes. serialize_trace, trace_digest
and trace_bytes reuse them for as long as no event has been appended,
and serialize_trace swaps them for the str it returns, so that the
text is held once.
"""

from __future__ import annotations

import hashlib
import json
import math

from .mac import MsgKind, ReservationKind
from .traffic import DropReason

_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _line(event):
    """An event's canonical line, newline included: the reference that
    each kind's template writes byte for byte (see _emitter), and the
    line of every event no template writes."""
    return _CANONICAL.encode(event) + "\n"


# The detail of each kind the engine emits during frames: each key, in
# sorted order, with the type of its value (see _TYPES). A kind's one
# list-typed key is its only optional one: the detail leaves it out when
# its list is empty. The route events, at most one per flow, have two
# detail shapes and come from Trace.emit.
_SHAPES = {
    "data_tx": (("flow", int), ("seq", int), ("to", int)),
    "data_rx": (("flow", int), ("sender", int), ("seq", int)),
    "rt_insert": (
        ("established_frame", int), ("kind", str), ("rx", int), ("slot_index", int),
        ("tx", int),
    ),
    "rt_delete": (("kind", str), ("reason", str), ("rx", int), ("slot_index", int), ("tx", int)),
    "packet_gen": (("created_ms", float), ("flow", int), ("seq", int)),
    "packet_drop": (("flow", int), ("reason", str), ("seq", int)),
    "data_delivered": (("delay_ms", float), ("flow", int), ("seq", int)),
    "uplink_tx": (("flow", int), ("seq", int)),
    "wasted_slot": (("flow", int),),
    "frame_end": (),
    "control_tx": (("kind", str), ("slots", list[int]), ("to", int | None)),
    "control_fault_drop": (("kind", str), ("slots", list[int]), ("to", int | None)),
    "control_collision": (("senders", list[int]),),
    "data_collision": (("senders", list[int]),),
    "handshake_complete": (("flow", int), ("kind", str), ("peer", int), ("slots", list[int])),
    "cancel_complete": (("flow", int), ("peer", int), ("slots", list[int])),
    "backoff": (("attempt", int), ("flow", int), ("reason", str), ("retry_frame", int)),
    "no_free_slots": (("flow", int),),
}

# The phases, backoff reasons and enum values the engine puts in those
# kinds: strings that need no escape, each with the bytes a template
# writes for it, quotes included
_QUOTED = {
    v: b'"%s"' % v.encode()
    for v in ["RP", "CFP", "cancel", "overwrite", "expire"]
    + ["busy", "no_free_slots", "no_accept", "no_cancel_ack"]
    + [k._value_ for k in MsgKind]
    + [k._value_ for k in ReservationKind]
    + [r._value_ for r in DropReason]
}
_QUOTABLE = _QUOTED.keys()

# Each value type's inline test, bytes printf conversion and argument,
# for the value named {v}: an int that is not a bool, a finite float
# (whose %a is its repr), a str in _QUOTABLE, a list of such ints, and
# such an int or None
_TYPES = {
    int: ("type({v}) is int", "%d", "{v}"),
    float: ("type({v}) is float and -_INF < {v} < _INF", "%a", "{v}"),
    str: ("type({v}) is str and {v} in _QUOTABLE", "%s", "_QUOTED[{v}]"),
    list[int]: (
        "type({v}) is list and all([type(x) is int for x in {v}])", "[%s]",
        'b",".join([b"%d" % x for x in {v}])',
    ),
    int | None: (
        "({v} is None or type({v}) is int)", "%s", 'b"null" if {v} is None else b"%d" % {v}',
    ),
}

_INF = math.inf


def _emitter(event, shape):
    """Trace.<event>(frame, slot, phase, station, *, <the kind's keys>).
    Its line fills the kind's template when every value passes its type's
    test in _TYPES, the envelope's too; any other comes from _line. An
    empty list stays in the record, but it leaves its key out of the event
    and takes the kind's second template, which has no such key.

    The method is compiled from _SHAPES, never from input, so that each
    value arrives as an argument and each check is one inline test: a
    generic check that mapped type() over a detail's values took about
    as long as the template saved."""
    keys = "".join(f", {k}" for k, _ in shape)
    src = f"def {event}(self, frame, slot, phase, station{', *' if keys else ''}{keys}):\n"
    src += f"    r = ({event!r}, frame, slot, phase, station{keys})\n"
    src += "    self.append(r)\n"
    for k, t in shape:
        if t == list[int]:
            src += f"    if {k} == []:\n"
            src += _emit_body(event, [kt for kt in shape if kt[0] != k], " " * 8)
            src += "        return\n"
    src += _emit_body(event, shape, " " * 4)
    # compiled in this module's globals: _line, _event, _QUOTABLE, _QUOTED
    # and _INF are looked up here when the method runs
    scope = {}
    exec(src, globals(), scope)
    return scope[event]


def _emit_body(event, shape, indent):
    """The statement of an emitter that appends the line of its record r,
    whose event has this detail shape."""
    pairs = [*shape, ("frame", int), ("phase", str), ("slot", int), ("station", int)]
    test = " and ".join(_TYPES[t][0].format(v=k) for k, t in pairs)
    args = ", ".join(_TYPES[t][2].format(v=k) for k, t in pairs)
    fields = [f'"{k}":{_TYPES[t][1]}' for k, t in pairs]
    n = len(shape)
    # the envelope's keys in sorted order, with the detail's inside
    template = (
        f'{{"detail":{{{",".join(fields[:n])}}},"event":"{event}",{",".join(fields[n:])}}}\n'
    )
    line = f"{template.encode()!r} % ({args},) if {test} else _line(_event(r)).encode()"
    return f"{indent}self._lines.append({line})\n"


# each kind's detail keys in record order, and its list-typed key, which
# its event leaves out when the list is empty
_KEYS = {kind: tuple(k for k, _ in shape) for kind, shape in _SHAPES.items()}
_OPTIONAL = {kind: k for kind, shape in _SHAPES.items() for k, t in shape if t == list[int]}


def _event(item):
    """The event dict of a trace item: a record as the dict of frame,
    slot, phase, station, event and detail it stands for, built anew on
    each call around the record's own values; anything else, such as a
    dict or a tuple that is no record, as it is."""
    if type(item) is not tuple:
        return item
    try:
        kind = item[0]
        keys = _KEYS[kind]
    except (IndexError, KeyError, TypeError):  # no kind first: no record
        return item
    detail = dict(zip(keys, item[5:]))
    k = _OPTIONAL.get(kind)
    if k is not None and detail[k] == []:
        del detail[k]
    return {
        "frame": item[1], "slot": item[2], "phase": item[3], "station": item[4],
        "event": kind, "detail": detail,
    }


class Trace(list):
    """A run's events, plus the canonical text of its first `sealed` ones.

    Its items are records, which its emitters append, and dicts, the
    events of emit and any a caller appends. It reads as a list of event
    dicts: indexing, slicing, iteration, ==, in, count, index and
    pickling give each record's event as _event builds it, and == reads
    the other list's items so too; copy and + see the items themselves.
    The engine only appends to its trace and never changes an event
    after emitting it, so the kept text stays valid while len(trace) ==
    sealed. A list changed in place other than by appending must not be
    a Trace."""

    sealed = 0
    _text: bytearray | str | None = None

    def __init__(self, *args):
        super().__init__(*args)
        self._lines: list[bytes] = []  # the lines emitted since the last fold

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [_event(item) for item in list.__getitem__(self, i)]
        return _event(list.__getitem__(self, i))

    def __iter__(self):
        return map(_event, list.__iter__(self))

    def __eq__(self, other):
        return list(self) == list(map(_event, other)) if isinstance(other, list) else NotImplemented

    def __ne__(self, other):
        return list(self) != list(map(_event, other)) if isinstance(other, list) else NotImplemented

    def __contains__(self, value):
        return value in iter(self)

    def count(self, value):
        return list(self).count(value)

    def index(self, value, *bounds):
        return list(self).index(value, *bounds)

    def emit(self, frame: int, slot: int, phase: str, station: int, event: str, **detail):
        """Append an event as a dict, and its line: a route event, whose
        detail has two shapes, or one a test injects. The detail's values
        must be JSON-ready and never changed afterwards."""
        e = {
            "frame": frame, "slot": slot, "phase": phase, "station": station,
            "event": event, "detail": detail,
        }
        self.append(e)
        self._lines.append(_line(e).encode())

    def fold(self) -> None:
        """Join the lines emitted since the last fold onto the kept bytes
        when these are the lines of every event after the kept text; any
        other text is made anew when it is asked for."""
        lines = self._lines
        if self.sealed + len(lines) == len(self):
            if type(self._text) is not bytearray:  # none kept yet, or serialize_trace's str
                self._text = bytearray(self._text.encode() if self._text else b"")
            self._text += b"".join(lines)
            self.sealed = len(self)
        lines.clear()


for _kind, _shape in _SHAPES.items():
    setattr(Trace, _kind, _emitter(_kind, _shape))
del _kind, _shape


def _held(events) -> bytearray | str | None:
    """The text a Trace keeps for exactly its events, if any."""
    if isinstance(events, Trace) and events.sealed == len(events):
        return events._text
    return None


def trace_bytes(events) -> bytearray | bytes:
    """The UTF-8 bytes of serialize_trace(events): a run's Trace holds them
    already (see Trace), any other Trace gets them through _line once,
    and any other list on every call. A Trace's kept buffer itself is
    returned, so callers only read it.

    The lines are gathered as bytes, which hold a trace once instead of
    as one str object per event: about 12 MB less peak memory than
    joining a list of lines on a 194 k-event trace."""
    text = _held(events)
    if text is None:
        text = bytearray()
        for e in events:
            text += _line(_event(e)).encode()
        if isinstance(events, Trace):
            events.sealed, events._text = len(events), text
    return text.encode() if isinstance(text, str) else text


def serialize_trace(events: list[dict]) -> str:
    """Canonical JSONL form of a trace; digests are taken over this.
    A Trace keeps the str in place of its bytes, so it holds its text
    once."""
    text = _held(events)
    if not isinstance(text, str):
        text = trace_bytes(events).decode()
        if isinstance(events, Trace):
            events._text = text
    return text


def trace_digest(events: list[dict]) -> str:
    """SHA-256 of the UTF-8 bytes of serialize_trace(events)."""
    return hashlib.sha256(trace_bytes(events)).hexdigest()
