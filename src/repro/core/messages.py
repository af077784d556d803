"""Per-function message types for the Enoki-C <-> libEnoki interface.

Paper, section 3.1:

    "Enoki-C takes the interface defined by the core scheduler code and
    translates it into an interface based on message passing. [...] This
    information is placed into per-function type 'message' data structures
    that are passed to the registered processing function in libEnoki."

Each message carries everything the scheduler needs — including the task
runtime that Enoki-C tracks on the scheduler's behalf — so the scheduler
never touches kernel state.  Messages also know how to serialise themselves
for the record log (``to_record``) and how to be rebuilt during replay
(``from_record``): ``Schedulable`` payloads are serialised as plain
descriptions and re-minted by the replay engine's registry.
"""

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Any, Optional, get_args

from repro.core.errors import RecordError
from repro.core.schedulable import Schedulable

_MESSAGE_TYPES = {}     # class name -> class (the record log's key)
_MESSAGE_FOR = {}       # trait function name -> class (the crossing's key)


def _register(cls):
    _MESSAGE_TYPES[cls.__name__] = cls
    _MESSAGE_FOR[cls.FUNCTION] = cls
    # The declared field order IS the trait method's positional signature
    # (tests/test_crossing.py pins it): ``cls(*args)`` builds the message
    # from a crossing's argument tuple and the C-level bulk getter takes
    # it apart again, with no per-field loop either way.
    names = tuple(f.name for f in fields(cls))
    cls._ARG_NAMES = names
    cls._ARG_GETTER = attrgetter(*names) if names else None
    cls._ARG_MULTI = len(names) > 1
    # The record codec's only per-field work: the fields declared to hold
    # a ``Schedulable`` (``sched`` wherever a token crosses) are the ones
    # written as descriptions and re-minted on replay.
    cls._TOKEN_FIELDS = tuple(f.name for f in fields(cls)
                              if Schedulable in get_args(f.type))
    return cls


def message_type(name):
    """Look up a message class by its recorded name."""
    return _MESSAGE_TYPES[name]


def message_for(function):
    """The message class that invokes trait method ``function``."""
    return _MESSAGE_FOR[function]


@dataclass(slots=True)
class Message:
    """Base message: named after the trait function it invokes."""

    #: trait method this message dispatches to (set per subclass)
    FUNCTION = None
    #: field names in positional order (``_register`` fills it per class)
    _ARG_NAMES = ()

    def to_record(self):
        """Serialise to plain data for the record log."""
        getter = self._ARG_GETTER
        if getter is None:
            payload = {}
        elif self._ARG_MULTI:
            payload = dict(zip(self._ARG_NAMES, getter(self)))
        else:
            payload = {self._ARG_NAMES[0]: getter(self)}
        for name in self._TOKEN_FIELDS:
            token = payload[name]
            if isinstance(token, Schedulable):
                payload[name] = {"__schedulable__": token.describe()}
        return {"type": type(self).__name__, "fields": payload}

    @classmethod
    def from_record(cls, record, token_minter):
        """Rebuild a message from a record entry.

        ``token_minter(description)`` supplies fresh ``Schedulable`` tokens
        for serialised token fields (the replay registry mints them).  A
        record that names no registered message, or whose fields are not
        exactly the message's, raises :class:`RecordError`.
        """
        try:
            klass = _MESSAGE_TYPES[record["type"]]
            values = record["fields"]
            if len(values) != len(klass._ARG_NAMES):
                raise TypeError(
                    f"{klass.__name__} takes fields {klass._ARG_NAMES}")
            if klass._TOKEN_FIELDS:
                values = dict(values)     # the entry may be replayed again
                for name in klass._TOKEN_FIELDS:
                    described = values[name]
                    if described is not None:
                        values[name] = token_minter(
                            described["__schedulable__"])
            # With the count right, an unknown name (which the constructor
            # refuses) is the only way a field can be missing.
            return klass(**values)
        except (KeyError, TypeError) as exc:
            raise RecordError(
                f"malformed message record {record!r}: {exc!r}") from exc


@_register
@dataclass(slots=True)
class MsgPickNextTask(Message):
    FUNCTION = "pick_next_task"
    cpu: int = 0
    curr_pid: Optional[int] = None
    curr_runtime: Optional[int] = None
    #: pid -> accumulated runtime of this CPU's queued tasks (Enoki-C
    #: tracks runtimes on the scheduler's behalf, section 3.1)
    runtimes: dict = field(default_factory=dict)


@_register
@dataclass(slots=True)
class MsgPntErr(Message):
    FUNCTION = "pnt_err"
    cpu: int = 0
    pid: int = 0
    err: int = 0
    sched: Optional[Schedulable] = None


@_register
@dataclass(slots=True)
class MsgTaskNew(Message):
    FUNCTION = "task_new"
    pid: int = 0
    tgid: int = 0
    runtime: int = 0
    runnable: bool = True
    prio: int = 0
    sched: Optional[Schedulable] = None


@_register
@dataclass(slots=True)
class MsgTaskWakeup(Message):
    FUNCTION = "task_wakeup"
    pid: int = 0
    agent_data: int = 0
    deferrable: bool = False
    last_run_cpu: int = -1
    wake_up_cpu: int = -1
    waker_cpu: int = -1
    sched: Optional[Schedulable] = None


@_register
@dataclass(slots=True)
class MsgTaskBlocked(Message):
    FUNCTION = "task_blocked"
    pid: int = 0
    runtime: int = 0
    cpu_seqnum: int = 0
    cpu: int = -1
    from_switchto: bool = False


@_register
@dataclass(slots=True)
class MsgTaskPreempt(Message):
    FUNCTION = "task_preempt"
    pid: int = 0
    runtime: int = 0
    cpu_seqnum: int = 0
    cpu: int = -1
    from_switchto: bool = False
    was_latched: bool = False
    sched: Optional[Schedulable] = None


@_register
@dataclass(slots=True)
class MsgTaskYield(Message):
    FUNCTION = "task_yield"
    pid: int = 0
    runtime: int = 0
    cpu_seqnum: int = 0
    cpu: int = -1
    from_switchto: bool = False
    sched: Optional[Schedulable] = None


@_register
@dataclass(slots=True)
class MsgTaskDead(Message):
    FUNCTION = "task_dead"
    pid: int = 0


@_register
@dataclass(slots=True)
class MsgTaskDeparted(Message):
    FUNCTION = "task_departed"
    pid: int = 0
    cpu_seqnum: int = 0
    cpu: int = -1
    from_switchto: bool = False
    was_current: bool = False


@_register
@dataclass(slots=True)
class MsgTaskAffinityChanged(Message):
    FUNCTION = "task_affinity_changed"
    pid: int = 0
    cpumask: tuple = ()


@_register
@dataclass(slots=True)
class MsgTaskPrioChanged(Message):
    FUNCTION = "task_prio_changed"
    pid: int = 0
    prio: int = 0


@_register
@dataclass(slots=True)
class MsgTaskTick(Message):
    FUNCTION = "task_tick"
    cpu: int = 0
    queued: bool = False
    pid: Optional[int] = None
    runtime: int = 0


@_register
@dataclass(slots=True)
class MsgSelectTaskRq(Message):
    FUNCTION = "select_task_rq"
    pid: int = 0
    prev_cpu: int = -1
    waker_cpu: int = -1
    wake_flags: int = 0
    allowed_cpus: Optional[tuple] = None


@_register
@dataclass(slots=True)
class MsgMigrateTaskRq(Message):
    FUNCTION = "migrate_task_rq"
    pid: int = 0
    new_cpu: int = -1
    sched: Optional[Schedulable] = None


@_register
@dataclass(slots=True)
class MsgBalance(Message):
    FUNCTION = "balance"
    cpu: int = 0


@_register
@dataclass(slots=True)
class MsgBalanceErr(Message):
    FUNCTION = "balance_err"
    cpu: int = 0
    pid: int = 0
    err: int = 0
    sched: Optional[Schedulable] = None


@_register
@dataclass(slots=True)
class MsgRegisterQueue(Message):
    FUNCTION = "register_queue"
    queue_id: int = 0


@_register
@dataclass(slots=True)
class MsgRegisterReverseQueue(Message):
    FUNCTION = "register_reverse_queue"
    queue_id: int = 0


@_register
@dataclass(slots=True)
class MsgEnterQueue(Message):
    FUNCTION = "enter_queue"
    queue_id: int = 0
    entries: int = 0


@_register
@dataclass(slots=True)
class MsgUnregisterQueue(Message):
    FUNCTION = "unregister_queue"
    queue_id: int = 0


@_register
@dataclass(slots=True)
class MsgUnregisterRevQueue(Message):
    FUNCTION = "unregister_rev_queue"
    queue_id: int = 0


@_register
@dataclass(slots=True)
class MsgParseHint(Message):
    FUNCTION = "parse_hint"
    pid: int = 0
    payload: Any = None


@_register
@dataclass(slots=True)
class MsgReregisterPrepare(Message):
    FUNCTION = "reregister_prepare"


@_register
@dataclass(slots=True)
class MsgReregisterInit(Message):
    FUNCTION = "reregister_init"
    # The transfer payload travels out of band (it is live state, passed
    # by reference exactly as the paper describes); the message only notes
    # that the call happened.
    has_state: bool = False


def response_to_record(value):
    """Serialise a dispatch response for the record log."""
    if isinstance(value, Schedulable):
        return {"__schedulable__": value.describe()}
    if isinstance(value, tuple):
        return list(value)
    return value
