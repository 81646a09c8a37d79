"""Each constraint's shape against the per-field definitions it replaced.

One walk over a constraint's atoms fills every shape field on the first
read of any of them. tests.oracles.ref_shape keeps the old definitions,
each its own walk; every field must come out equal, tuple and dict order
included, on the generators' sets, the benchmark's analyze-batch sets,
alpha_I of the travel instances and constraints built directly. On the
same inputs never_violated must agree with the join over fresh nulls. The
walk runs on first read only: parsing a rule file leaves it undone.
"""

import random

import pytest

from chaseterm.dynamic import constraint_from_instance
from chaseterm.model import (
    _SHAPE, EGD, TGD, Constraint, Position,
)
from chaseterm.syntax import parse_constraints, parse_instance

from . import generators, oracles
from .conftest import A, C, V
from .test_cli import perfbench_workloads


def _ordered(x):
    """x with each dict as its list of items, so that == sees the order."""
    if isinstance(x, dict):
        return [(k, _ordered(v)) for k, v in x.items()]
    return x


def assert_shape(c):
    """Returns whether c is never violated."""
    ref = oracles.ref_shape(c)
    assert set(ref) == _SHAPE
    for field, want in ref.items():
        got = getattr(c, field)
        assert type(got) is type(want), (c, field)
        assert _ordered(got) == _ordered(want), (c, field)
    assert c.never_violated == oracles.ref_never_violated(c), c
    return c.never_violated


def _batch_sets(seed):
    files, _ = perfbench_workloads().generate("analyze-batch", seed, "full")
    return [parse_constraints(text).constraints for text in files.values()]


def _direct():
    """Constraints built with Constraint(...), bypassing tgd() and egd():
    repeated atoms, an atom in both body and head, constants, and a head
    atom that holds a body variable twice."""
    x, y, z, w = V("X"), V("Y"), V("Z"), V("W")
    cb, ca = C("b"), C("a")  # first seen in the opposite of name order
    return [
        Constraint("t1", TGD, (A("R", x, y), A("R", x, y), A("S", y)),
                   (A("R", x, y), A("T", z, x), A("T", z, x))),
        Constraint("t2", TGD, (), (A("R", cb, z), A("S", ca), A("R", z, w))),
        Constraint("t3", TGD, (A("R", x, cb),), (A("T", x, x), A("U", y, ca, x))),
        Constraint("t4", TGD, (A("S", x), A("R", x, x)), (A("R", x, x),)),
        Constraint("e1", EGD, (A("R", x, y), A("R", x, cb), A("R", x, y)),
                   equated=(y, x)),
    ]


class TestShapeAgainstOracle:
    def test_generator_sets(self):
        count = 0
        for seed in range(200):
            rng = random.Random(f"shape/{seed}")
            sigma = generators.random_constraints(
                rng, max_constraints=4, max_atoms=rng.choice([2, 3]),
                constant_rate=rng.choice([0.0, 0.3]))
            for c in sigma:
                assert_shape(c)
                count += 1
        for n in (3, 4, 6):
            for c in generators.width_family(n):
                assert_shape(c)
        for sigma in generators.wide_sets():
            for c in sigma:
                assert_shape(c)
        for n in (10, 100):
            for c in generators.sparse_sets(n):
                assert_shape(c)
        assert count > 400
        rng = random.Random("shape/constants")
        drawn = never = 0
        for _ in range(2000):
            for c in generators.random_constraints(rng, constant_rate=0.4):
                never += assert_shape(c)
                drawn += 1
        assert 0 < never < drawn

    @pytest.mark.parametrize("seed", [1, 7])
    def test_analyze_batch_sets(self, seed):
        sets = _batch_sets(seed)
        assert len(sets) == 122
        for sigma in sets:
            for c in sigma:
                assert_shape(c)

    def test_alpha_of_travel_instances(self, oneway_instance, roundtrip_instance):
        files, spec = perfbench_workloads().generate("termcheck-travel", 1, "full")
        instances = [oneway_instance, roundtrip_instance] + [
            parse_instance(files[op["argv"][2]]) for op in spec["ops"]]
        large, _ = perfbench_workloads().gen_termcheck_travel(
            random.Random(1), {"rail": 1000, "airports": 250, "k": 10})
        instances.append(parse_instance(large["travel.inst"]))
        assert len(instances[-1].facts) == 1251
        for I in instances:
            alpha = constraint_from_instance(I)
            assert alpha.body == () and alpha.existential_vars
            assert_shape(alpha)

    def test_direct_constraints(self):
        for c in _direct():
            assert_shape(c)
        t1, t2, t3, t4, e1 = _direct()
        assert t1.atom_positions[A("T", V("Z"), V("X"))] == (
            Position("T", 1), Position("T", 2))
        assert t2.constants == (C("a"), C("b"))
        assert e1.frontier == (V("Y"), V("X")) and e1.existential_vars == ()
        assert not t3.never_violated and t4.never_violated

    def test_never_violated_needs_the_join(self):
        # every head atom holds an existential, so only the join decides
        x, y, z = V("X"), V("Y"), V("Z")
        held = Constraint("h", TGD, (A("R", x, y), A("R", y, y)), (A("R", z, y),))
        not_held = Constraint("n", TGD, (A("R", x, y),), (A("R", y, z),))
        assert held.never_violated and oracles.ref_never_violated(held)
        assert not not_held.never_violated
        assert not oracles.ref_never_violated(not_held)


class TestShapeIsLazy:
    def test_parsing_leaves_the_walk_undone(self):
        texts = [text for text in perfbench_workloads().generate(
            "analyze-batch", 1, "full")[0].values()]
        files, _ = perfbench_workloads().generate("termcheck-travel", 1, "full")
        texts += [text for name, text in files.items() if name.endswith(".rules")]
        for text in texts:
            for c in parse_constraints(text).constraints:
                assert _SHAPE.isdisjoint(c.__dict__), c

    def test_one_read_fills_every_field(self, travel_sigma):
        for c in travel_sigma:
            assert _SHAPE.isdisjoint(c.__dict__)
            c.frontier
            assert _SHAPE <= set(c.__dict__)

    def test_other_names_are_missing(self):
        c = _direct()[0]
        with pytest.raises(AttributeError, match="no attribute 'nothing'"):
            c.nothing
        assert not hasattr(c, "__deepcopy__")
        assert _SHAPE.isdisjoint(c.__dict__)
