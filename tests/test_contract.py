"""The input contract of every exported callable.

Each callable that `treerep` exports, except the exception classes and the
plain records, gets one well-formed call.  Each of its arguments in turn is
then replaced by a malformed value: a string, None, a float, NaN, -1, a
2 x 2 zero matrix, a list and True.  Every such call must raise a
TreeRepError subclass or return normally; a raw AttributeError, TypeError
or ValueError is an escape.  True in an integer slot must raise: a bool is
never an integer.
"""
import math
import types

import numpy as np
import pytest

import treerep
from treerep import automorphism as au
from treerep import measure as me
from treerep import operators as op
from treerep import representation as rp
from treerep import suites as su
from treerep import tree as tr
from treerep.errors import ConfigError, TreeRepError

BAD = {
    "str": "x",
    "None": None,
    "float": 2.5,
    "nan": math.nan,
    "negative": -1,
    "matrix": np.zeros((2, 2)),
    "list": [1],
    "bool": True,
}

RECORDS = {"Cylinder", "Halftree", "OperatorPair", "SuiteReport"}

P2 = tr.TreeParams(2, depth_cap=4)
PAIR = op.build_pair(np.eye(2) * 0.5, 2)
G = au.step_translation(P2)
EDGE = tr.FiniteSubtree(P2, [(), (1,)])
BALL = tr.closed_neighborhood(EDGE, 1)
PRUNED = tr.FiniteSubtree(P2, BALL.vertices - {(1, 1), (1, 2)})
V = rp.constant_fn(P2, np.ones(2))
CFG = su.SuiteConfig(q=2, depth_cap=4, dim=1, trials=1)

# name -> (the arguments of a well-formed call, built afresh per call, and
# the positions of its integer slots)
CALLS = {
    "TreeParams": (lambda: [2, 4], {0, 1}),
    "FiniteSubtree": (lambda: [P2, [(), (1,)]], set()),
    "busemann_on_cylinder": (lambda: [P2, (1, 1), (1,)], set()),
    "closed_neighborhood": (lambda: [EDGE, 1], {1}),
    "is_complete": (lambda: [EDGE], set()),
    "Portrait": (lambda: [(2, 1, 3), {(1,): (2, 1)}], set()),
    "TreeAutomorphism": (lambda: [P2, [(au.EdgeInversionGen(), False)]], set()),
    "compose": (lambda: [G, G], set()),
    "edge_inversion": (lambda: [P2], set()),
    "from_portrait": (lambda: [P2, au.Portrait((2, 1, 3))], set()),
    "identity": (lambda: [P2], set()),
    "step_translation": (lambda: [P2], set()),
    "cell_measure": (lambda: [P2, me.Cylinder((1,))], set()),
    "map_cell": (lambda: [G, me.Cylinder((1,))], set()),
    "orbit_cells": (lambda: [BALL], set()),
    "orbit_merge_under_pruning": (lambda: [BALL, PRUNED], set()),
    "rn_cocycle": (lambda: [G, me.Cylinder((1, 1))], set()),
    "build_pair": (lambda: [np.eye(2) * 0.5, 2], {1}),
    "guard_spectrum": (lambda: [PAIR], set()),
    "phi_scalar": (lambda: [0.5, 2], {1}),
    "power": (lambda: [PAIR, 2], {1}),
    "spectral_norm": (lambda: [np.eye(2)], set()),
    "StepFunction": (lambda: [P2, 1, np.ones((3, 2))], {1}),
    "alpha_via_rep": (lambda: [P2, np.ones(2), PAIR], set()),
    "constant_fn": (lambda: [P2, np.ones(2)], set()),
    "fixed_space_report": (lambda: [BALL], set()),
    "haar_average_fix": (lambda: [BALL, V], set()),
    "halftree_element": (lambda: [P2, np.ones(2), (1,), PAIR], set()),
    "halftree_preimage": (lambda: [PAIR, np.ones(2)], set()),
    "indicator_fn": (lambda: [P2, me.Cylinder((1,)), np.ones(2)], set()),
    "invariant_lift_check": (
        lambda: [P2, np.eye(2)[:, :1], PAIR, [G], np.random.default_rng(0)], set()
    ),
    "pi_apply": (lambda: [G, V, PAIR], set()),
    # q, depth_cap, dim, trials, seed, tol: a bool tolerance is refused too
    "SuiteConfig": (lambda: [2, 4, 1, 1, 0, 1e-8], {0, 1, 2, 3, 4, 5}),
    "run_suite": (lambda: [CFG, "prune_replay"], set()),
    "run_all": (lambda: [CFG], set()),
}

SLOTS = [(name, i) for name, (build, _) in CALLS.items() for i in range(len(build()))]


def exported_callables() -> set[str]:
    out = set()
    for name in dir(treerep):
        obj = getattr(treerep, name)
        if name.startswith("_") or not callable(obj) or isinstance(obj, types.GenericAlias):
            continue  # private, a value, or the Address alias
        if isinstance(obj, type) and issubclass(obj, BaseException) or name in RECORDS:
            continue
        out.add(name)
    return out


def test_the_table_covers_every_exported_callable():
    assert set(CALLS) == exported_callables()


@pytest.mark.parametrize("name", sorted(CALLS))
def test_the_well_formed_call_returns(name):
    build, _ = CALLS[name]
    getattr(treerep, name)(*build())


@pytest.mark.parametrize("name, slot", SLOTS, ids=[f"{name}-{i}" for name, i in SLOTS])
def test_a_malformed_argument_raises_a_library_error(name, slot):
    build, integers = CALLS[name]
    escapes = []
    for label, bad in BAD.items():
        args = build()
        args[slot] = bad
        try:
            getattr(treerep, name)(*args)
        except TreeRepError:
            continue
        except Exception as exc:  # noqa: BLE001 - any other class is the escape reported
            escapes.append(f"{label}: {type(exc).__name__}: {exc}")
            continue
        if label == "bool" and slot in integers:
            escapes.append("bool: accepted where an integer belongs")
    assert escapes == []


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda b: tr.TreeParams(2, b), "depth_cap must be an integer >= 1, got {}",
                     id="TreeParams-depth_cap"),
        pytest.param(lambda b: su.SuiteConfig(trials=b), "trials must be an integer >= 1, got {}",
                     id="SuiteConfig-trials"),
        pytest.param(lambda b: su.SuiteConfig(seed=b), "seed must be an integer >= 0, got {}",
                     id="SuiteConfig-seed"),
        pytest.param(lambda b: su.SuiteConfig(tol=b), "tolerance must be positive and finite, got {}",
                     id="SuiteConfig-tol"),
        pytest.param(lambda b: rp.StepFunction(P2, b, np.ones((3, 2))),
                     "resolution must be an integer, got {}", id="StepFunction-resolution"),
        pytest.param(lambda b: au.random_portrait(P2, b, np.random.default_rng(0)),
                     "portrait depth must be an integer >= 1, got {}", id="random_portrait-depth"),
        pytest.param(lambda b: au.random_word(P2, np.random.default_rng(0), b),
                     "max_factors must be an integer >= 1, got {}", id="random_word-max_factors"),
        # a raw TypeError from the draw, before the bool rule
        pytest.param(lambda b: op.random_in_disc(b, 2, np.random.default_rng(0)),
                     "d must be an integer >= 1, got {}", id="random_in_disc-d"),
    ],
)
def test_a_bool_is_never_an_integer(call, message):
    # at the parent each of these but random_in_disc took True as 1
    for b in (True, False):
        with pytest.raises(ConfigError) as err:
            call(b)
        assert str(err.value) == message.format(b)
