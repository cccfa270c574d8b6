"""Collective operations of the discrete-event MPI engine."""

import numpy as np
import pytest

from repro.core.hmcl.model import MpiCostModel
from repro.errors import CommunicatorError
from repro.profiling.curvefit import PiecewiseLinearModel
from repro.simmpi.engine import ClusterEngine, collective_cost
from repro.simmpi.operations import ReduceOp
from repro.simnet.link import LinkModel
from repro.simnet.topology import ClusterTopology


@pytest.fixture
def engine() -> ClusterEngine:
    link = LinkModel(name="test", latency=5e-6, bandwidth=200e6,
                     send_overhead=1e-6, recv_overhead=1e-6)
    topology = ClusterTopology(name="flat", processors_per_node=1, inter_node=link)
    return ClusterEngine(topology)


class TestAllReduce:
    def test_sum(self, engine):
        def program(comm):
            total = yield comm.allreduce(float(comm.rank + 1), op="sum")
            return total

        result = engine.run(program, nranks=4)
        assert result.return_values == [10.0, 10.0, 10.0, 10.0]

    def test_max(self, engine):
        def program(comm):
            largest = yield comm.allreduce(float(comm.rank), op="max")
            return largest

        result = engine.run(program, nranks=5)
        assert result.return_values == [4.0] * 5

    def test_array_reduction(self, engine):
        def program(comm):
            contribution = np.full(3, float(comm.rank))
            total = yield comm.allreduce(contribution, op="sum")
            return total

        result = engine.run(program, nranks=3)
        np.testing.assert_allclose(result.return_values[0], [3.0, 3.0, 3.0])

    def test_all_ranks_synchronised_to_same_time(self, engine):
        def program(comm):
            yield comm.compute(1e-3 * comm.rank)
            yield comm.allreduce(1.0, op="sum")
            finish = yield comm.now()
            return finish

        result = engine.run(program, nranks=4)
        finishes = result.return_values
        assert max(finishes) - min(finishes) < 1e-12
        # Completion cannot precede the slowest rank's arrival.
        assert min(finishes) >= 3e-3

    def test_single_rank_costs_nothing(self, engine):
        def program(comm):
            value = yield comm.allreduce(5.0, op="sum")
            return value

        result = engine.run(program, nranks=1)
        assert result.return_values == [5.0]
        assert result.elapsed_time == pytest.approx(0.0)

    def test_cost_grows_with_rank_count(self, engine):
        def program(comm):
            yield comm.allreduce(1.0, op="sum")
            return None

        small = engine.run(program, nranks=2).elapsed_time
        large = engine.run(program, nranks=16).elapsed_time
        assert large > small

    def test_repeated_collectives_in_a_loop(self, engine):
        def program(comm):
            totals = []
            for iteration in range(5):
                totals.append((yield comm.allreduce(float(iteration), op="sum")))
            return totals

        result = engine.run(program, nranks=3)
        assert result.return_values[0] == [0.0, 3.0, 6.0, 9.0, 12.0]

    def test_mismatched_collectives_raise(self, engine):
        def program(comm):
            yield comm.allreduce(1.0, op="max" if comm.rank == 0 else "sum")
            return None

        with pytest.raises(CommunicatorError, match="collective mismatch"):
            engine.run(program, nranks=2)


class TestCollectiveCost:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 4, 5, 8, 9, 16, 17, 64])
    def test_rounds_match_the_hmcl_collective_template(self, nranks):
        """Measured and modelled allreduce walk the same binomial tree:
        with one second per hop both cost two seconds per round."""
        hop = LinkModel(name="hop", latency=1.0, bandwidth=1e6,
                        send_overhead=0.0, recv_overhead=0.0)
        one_second = PiecewiseLinearModel(A=0.0, B=2.0, C=0.0, D=2.0, E=0.0)
        hmcl = MpiCostModel(send=one_second, recv=one_second,
                            pingpong=one_second)
        assert collective_cost(0.0, nranks, hop) == hmcl.collective_cost(
            nranks, 0.0)


class TestReduceOp:
    def test_coerce_from_string(self):
        assert ReduceOp.coerce("SUM") is ReduceOp.SUM
        assert ReduceOp.coerce(ReduceOp.MAX) is ReduceOp.MAX

    @pytest.mark.parametrize("name", ["median", "min", "prod"])
    def test_unknown_operator(self, name):
        """SWEEP3D reduces with sum and max only; others fail loudly."""
        with pytest.raises(CommunicatorError, match="unknown reduction"):
            ReduceOp.coerce(name)

    def test_combine_empty_rejected(self):
        with pytest.raises(CommunicatorError):
            ReduceOp.SUM.combine([])
