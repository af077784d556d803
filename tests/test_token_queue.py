"""The shared token run queue against the list-scan code it replaced.

``ScanModel`` is what six policies each did by hand before
``repro.schedulers.base``: per-CPU lists, a stable sort on every push,
a scan of every CPU to find one pid.  Random operation sequences must
get the same answers from both and leave the same queues behind.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedulers.base import TokenQueue
from repro.schedulers.fifo import EnokiFifo, FifoTransferState


class ScanModel:
    def __init__(self, nr_cpus):
        self.cpus = {cpu: [] for cpu in range(nr_cpus)}
        self.seq = 0

    def push(self, cpu, key, pid, token):
        self.remove(pid)
        self.cpus[cpu].append((key, pid, token))
        self.cpus[cpu].sort(key=lambda entry: entry[0])   # stable

    def push_back(self, cpu, pid, token):
        self.seq += 1
        self.push(cpu, self.seq, pid, token)

    def remove(self, pid):
        for queue in self.cpus.values():
            for entry in list(queue):
                if entry[1] == pid:
                    queue.remove(entry)
                    return entry[2]
        return None

    def longest_other(self, cpu):
        depth, best = max(((len(queue), -other)
                           for other, queue in self.cpus.items()
                           if other != cpu), default=(0, 0))
        return -best if depth else None


CPU = st.integers(0, 7)
PID = st.integers(1, 12)        # few pids: re-pushes and hits are common
KEY = st.integers(0, 3)         # few keys: ties are common

#: a queue ordered by caller-supplied keys (the fair tiers)
KEYED_OPS = st.one_of(
    st.tuples(st.just("push"), CPU, KEY, PID),
    st.tuples(st.just("remove"), PID),
    st.tuples(st.just("pop"), CPU),
    st.tuples(st.just("longest"), CPU),
    st.tuples(st.just("add_cpus"), st.integers(1, 8)),
)
#: a FIFO queue, plus Shinjuku's front-of-line push (a key below every
#: queued one) — the only keyed push ``push_back`` may be mixed with
FIFO_OPS = st.one_of(
    st.tuples(st.just("push_back"), CPU, PID),
    st.tuples(st.just("push_front"), CPU, PID),
    st.tuples(st.just("remove"), PID),
    st.tuples(st.just("pop"), CPU),
    st.tuples(st.just("longest"), CPU),
    st.tuples(st.just("add_cpus"), st.integers(1, 8)),
)


def check_invariants(queue, model):
    assert queue.cpus == model.cpus
    where = {}
    for cpu, entries in queue.cpus.items():
        keys = [entry[0] for entry in entries]
        assert keys == sorted(keys)
        for _key, pid, _token in entries:
            assert pid not in where         # at most one entry per pid
            where[pid] = cpu
    assert queue.where == where


def run(nr_cpus, ops):
    queue, model = TokenQueue(nr_cpus), ScanModel(nr_cpus)

    def both(method, *args):
        getattr(queue, method)(*args)
        getattr(model, method)(*args)
        assert queue.seq == model.seq

    # token = the op's index, so a replaced entry is told from its successor
    for token, (op, *args) in enumerate(ops):
        known = len(queue.cpus)
        if op == "add_cpus":
            queue.add_cpus(*args)
            for cpu in range(*args):
                model.cpus.setdefault(cpu, [])
        elif op == "push":
            cpu, key, pid = args
            both("push", cpu % known, key, pid, token)
        elif op == "push_back":
            cpu, pid = args
            both("push_back", cpu % known, pid, token)
        elif op == "push_front":
            cpu, pid = args
            front = min((entries[0][0]
                         for entries in model.cpus.values() if entries),
                        default=1) - 1
            both("push", cpu % known, front, pid, token)
        elif op == "remove":
            before = {cpu: list(q) for cpu, q in queue.cpus.items()}
            got = queue.remove(*args)
            assert got == model.remove(*args)
            if got is None:                 # a miss touches nothing
                assert queue.cpus == before
        elif op == "pop":
            cpu = args[0] % known
            if model.cpus[cpu]:
                assert queue.pop_head(cpu) == model.cpus[cpu].pop(0)
        elif op == "longest":
            cpu = args[0] % known
            assert queue.longest_other(cpu) == model.longest_other(cpu)
        check_invariants(queue, model)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.lists(KEYED_OPS, max_size=60))
def test_keyed_queue_matches_the_scan_model(nr_cpus, ops):
    run(nr_cpus, ops)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.lists(FIFO_OPS, max_size=60))
def test_fifo_queue_matches_the_scan_model(nr_cpus, ops):
    run(nr_cpus, ops)


def test_equal_keys_keep_arrival_order():
    queue = TokenQueue(1)
    for pid in (1, 2, 3):
        queue.push(0, 10, pid, f"t{pid}")
    queue.push(0, 5, 4, "t4")
    assert [pid for _key, pid, _token in queue.cpus[0]] == [4, 1, 2, 3]


def test_second_push_of_a_queued_pid_replaces_the_first():
    queue = TokenQueue(2)
    queue.push_back(0, 7, "stale")
    queue.push_back(1, 7, "fresh")
    assert queue.cpus == {0: [], 1: [(2, 7, "fresh")]}
    assert queue.where == {7: 1}
    assert queue.remove(7) == "fresh"
    assert queue.remove(7) is None


def test_longest_other_tie_goes_to_the_lowest_cpu():
    queue = TokenQueue(4)
    for pid, cpu in enumerate((3, 3, 1, 1, 0, 0)):
        queue.push_back(cpu, pid, None)
    assert queue.longest_other(0) == 1
    assert queue.longest_other(1) == 0
    assert TokenQueue(4).longest_other(0) is None


def test_incoming_version_adopts_cpus_the_outgoing_one_did_not_know():
    outgoing = TokenQueue(2)
    outgoing.push_back(1, 5, "t5")
    incoming = EnokiFifo(4, 7)
    incoming.reregister_init(FifoTransferState(queues=outgoing,
                                               generation=1))
    assert incoming.queues is outgoing
    assert incoming.generation == 2
    assert sorted(outgoing.cpus) == [0, 1, 2, 3]
    outgoing.push_back(3, 6, "t6")
    assert outgoing.longest_other(0) == 1
    assert outgoing.pop_head(3) == (2, 6, "t6")
    assert outgoing.where == {5: 1}
