"""CPU topology: sockets, last-level-cache domains, SMT siblings.

Two presets mirror the paper's testbeds (section 5.1):

* :func:`Topology.small8` — one socket, 8 cores, no SMT (Intel i7-9700).
* :func:`Topology.big80` — two sockets, 20 cores each, 2-way SMT
  (dual Xeon Gold 6138, 80 logical CPUs).
"""

from dataclasses import dataclass

from repro.simkernel.errors import SimError


@dataclass(frozen=True)
class CpuInfo:
    """Static description of one logical CPU."""

    cpu: int
    socket: int
    llc: int
    core: int          # physical core id (shared by SMT siblings)
    smt_sibling: int   # logical cpu id of the sibling, or -1


class Topology:
    """Immutable machine layout plus distance helpers."""

    def __init__(self, cpus):
        if not cpus:
            raise SimError("a topology needs at least one CPU")
        self.cpus = list(cpus)
        for idx, info in enumerate(self.cpus):
            if info.cpu != idx:
                raise SimError("CPU ids must be dense and ordered")
        self.nr_cpus = len(self.cpus)
        self.sockets = sorted({c.socket for c in self.cpus})
        self.llcs = sorted({c.llc for c in self.cpus})
        self._llc_members = {
            llc: tuple(c.cpu for c in self.cpus if c.llc == llc)
            for llc in self.llcs
        }
        #: per CPU, the CPUs at :meth:`distance` 4 from it (another
        #: socket): the wakeup cost model's one locality test
        self.cross_socket = tuple(
            frozenset(b for b in range(self.nr_cpus)
                      if self.distance(a, b) >= 4)
            for a in range(self.nr_cpus))

    # -- constructors ---------------------------------------------------

    @classmethod
    def smp(cls, nr_cpus, sockets=1, smt=1):
        """Build a symmetric topology.

        ``nr_cpus`` logical CPUs are split evenly over ``sockets`` sockets
        (one LLC per socket).  With ``smt=2``, logical CPUs ``i`` and
        ``i + nr_cpus // 2`` within a socket share a physical core, matching
        Linux's enumeration of hyperthreads.
        """
        if nr_cpus % sockets:
            raise SimError("nr_cpus must divide evenly across sockets")
        per_socket = nr_cpus // sockets
        if per_socket % smt:
            raise SimError("per-socket CPUs must divide evenly across SMT")
        cores_per_socket = per_socket // smt
        cpus = []
        for cpu in range(nr_cpus):
            socket = cpu // per_socket
            local = cpu % per_socket
            core_local = local % cores_per_socket
            core = socket * cores_per_socket + core_local
            if smt == 2:
                if local < cores_per_socket:
                    sibling = cpu + cores_per_socket
                else:
                    sibling = cpu - cores_per_socket
            else:
                sibling = -1
            cpus.append(
                CpuInfo(cpu=cpu, socket=socket, llc=socket,
                        core=core, smt_sibling=sibling)
            )
        return cls(cpus)

    @classmethod
    def small8(cls):
        """The paper's 8-core one-socket i7-9700 machine."""
        return cls.smp(8, sockets=1, smt=1)

    @classmethod
    def big80(cls):
        """The paper's 80-CPU two-socket Xeon Gold 6138 machine."""
        return cls.smp(80, sockets=2, smt=2)

    # -- queries ----------------------------------------------------------

    def siblings_in_llc(self, cpu):
        """All logical CPUs sharing ``cpu``'s LLC (including ``cpu``)."""
        return self._llc_members[self.cpus[cpu].llc]

    def smt_sibling(self, cpu):
        return self.cpus[cpu].smt_sibling

    def distance(self, a, b):
        """Scheduling distance between two logical CPUs.

        0 = same CPU, 1 = SMT sibling, 2 = same LLC, 3 = same socket,
        4 = cross socket.  The wakeup cost model and the CFS balancer use
        this as their locality metric.
        """
        if a == b:
            return 0
        ia, ib = self.cpus[a], self.cpus[b]
        if ia.core == ib.core:
            return 1
        if ia.llc == ib.llc:
            return 2
        if ia.socket == ib.socket:
            return 3
        return 4

    def all_cpus(self):
        return tuple(range(self.nr_cpus))

    def __repr__(self):
        return (
            f"Topology(nr_cpus={self.nr_cpus}, sockets={len(self.sockets)}, "
            f"llcs={len(self.llcs)})"
        )
