"""Shape checks for the rotation family."""

import pytest

from chaseterm.chase import ChasePolicy, TERMINATED, chase, monitored_chase
from chaseterm.fixtures import rotation_family
from chaseterm.model import Atom, Constant, ModelError, Variable
from chaseterm.static import is_inductively_restricted


class TestShape:
    def test_three(self):
        I, sigma = rotation_family(3)
        c1, c2, c3 = (Constant(f"c{i}") for i in (1, 2, 3))
        assert I.facts == frozenset({
            Atom("S", (c1,)), Atom("S", (c2,)), Atom("S", (c3,)),
            Atom("R3", (c1, c2, c3)),
        })
        (phi,) = sigma
        assert phi.id == "phi"
        assert phi.body[0] == Atom("S", (Variable("X3"),))
        assert phi.head == (Atom("R3", (Variable("Y"), Variable("X1"),
                                        Variable("X2"))),)

    def test_relation_name_carries_the_arity(self):
        # members of different arity never share their R relation, so mixing
        # two members in one schema cannot produce an arity clash
        (phi2,) = rotation_family(2)[1]
        (phi4,) = rotation_family(4)[1]
        assert phi2.head[0].relation == "R2"
        assert phi4.head[0].relation == "R4"

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_nonpositive(self, k):
        with pytest.raises(ModelError):
            rotation_family(k)


class TestBehavior:
    def test_degenerate_member_never_fires(self):
        I, sigma = rotation_family(1)
        res = chase(I, sigma)
        assert res.outcome == TERMINATED
        assert res.steps == ()
        assert is_inductively_restricted(sigma)

    @pytest.mark.parametrize("k", [2, 3])
    def test_run_length_equals_k(self, k):
        I, sigma = rotation_family(k)
        res = chase(I, sigma)
        assert res.outcome == TERMINATED
        assert len(res.steps) == k

    def test_monitor_at_matching_depth_lets_the_run_finish(self):
        I, sigma = rotation_family(3)
        assert monitored_chase(I, sigma, 3).outcome == TERMINATED
