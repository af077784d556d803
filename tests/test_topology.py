"""Unit tests for CPU topologies."""

import pytest

from repro.simkernel.errors import SimError
from repro.simkernel.topology import Topology


class TestPresets:
    def test_small8_shape(self):
        topo = Topology.small8()
        assert topo.nr_cpus == 8
        assert len(topo.sockets) == 1
        assert len(topo.llcs) == 1
        assert all(topo.smt_sibling(c) == -1 for c in topo.all_cpus())

    def test_big80_shape(self):
        topo = Topology.big80()
        assert topo.nr_cpus == 80
        assert len(topo.sockets) == 2
        assert [sum(c.socket == s for c in topo.cpus)
                for s in topo.sockets] == [40, 40]

    def test_big80_smt_pairing(self):
        topo = Topology.big80()
        for cpu in topo.all_cpus():
            sib = topo.smt_sibling(cpu)
            assert sib != -1
            assert topo.smt_sibling(sib) == cpu
            assert topo.distance(cpu, sib) == 1


class TestDistance:
    def test_same_cpu(self):
        topo = Topology.small8()
        assert topo.distance(3, 3) == 0

    def test_same_llc(self):
        topo = Topology.small8()
        assert topo.distance(0, 7) == 2

    def test_cross_socket(self):
        topo = Topology.smp(8, sockets=2)
        assert topo.distance(0, 4) == 4
        assert topo.distance(0, 3) == 2

    def test_llc_members(self):
        topo = Topology.smp(8, sockets=2)
        assert topo.siblings_in_llc(0) == (0, 1, 2, 3)
        assert topo.siblings_in_llc(5) == (4, 5, 6, 7)

    @pytest.mark.parametrize("topo", [
        Topology.small8(), Topology.smp(4), Topology.big80()],
        ids=["small8", "smp:4", "big80"])
    def test_cross_socket_is_distance_four(self, topo):
        """The wakeup cost model's set test and :meth:`distance` agree on
        every ordered pair."""
        assert len(topo.cross_socket) == topo.nr_cpus
        for a in topo.all_cpus():
            for b in topo.all_cpus():
                assert ((b in topo.cross_socket[a])
                        == (topo.distance(a, b) >= 4)), (a, b)
        # big80's CPUs each see the other socket's 40; one socket, none.
        other_socket = 40 if topo.nr_cpus == 80 else 0
        assert all(len(cpus) == other_socket for cpus in topo.cross_socket)


class TestValidation:
    def test_uneven_socket_split_rejected(self):
        with pytest.raises(SimError):
            Topology.smp(7, sockets=2)

    def test_uneven_smt_split_rejected(self):
        with pytest.raises(SimError):
            Topology.smp(6, sockets=2, smt=2)

    def test_empty_rejected(self):
        with pytest.raises(SimError):
            Topology([])
