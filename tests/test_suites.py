import dataclasses
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from treerep import automorphism as au
from treerep import measure as me
from treerep import representation as rp
from treerep import suites as su
from treerep import tree as tr
from treerep.errors import ConfigError, OperatorDomainError

SCHEMA = json.loads(
    (Path(__file__).resolve().parents[1] / "docs" / "report_schema.json").read_text()
)


# -- configuration ------------------------------------------------------------


def test_config_defaults_and_validation():
    cfg = su.SuiteConfig()
    assert cfg.q == 2 and cfg.depth_cap == 8 and cfg.trials == 100
    assert cfg.tol == 1e-8
    with pytest.raises(ConfigError):
        su.SuiteConfig(q=1)
    with pytest.raises(ConfigError):
        su.SuiteConfig(depth_cap=3)
    with pytest.raises(ConfigError):
        su.SuiteConfig(dim=0)
    with pytest.raises(ConfigError):
        su.SuiteConfig(trials=0)
    with pytest.raises(ConfigError):
        su.SuiteConfig(tol=0.0)
    with pytest.raises(ConfigError):
        su.SuiteConfig(seed=-1)
    # a wrong type is a configuration error too, not a TypeError later on
    for bad in (dict(trials=2.5), dict(dim=2.5), dict(seed=1.5), dict(tol="1e-8")):
        with pytest.raises(ConfigError):
            su.SuiteConfig(**bad)


def test_config_stores_numpy_integers_as_int():
    # the config's JSON form and its tree parameters are those of the int config
    names = ("q", "depth_cap", "dim", "trials", "seed")
    plain = su.SuiteConfig(q=3, depth_cap=6, dim=2, trials=4, seed=7)
    cfg = su.SuiteConfig(
        q=np.int64(3), depth_cap=np.int32(6), dim=np.uint8(2), trials=np.int16(4), seed=np.int64(7)
    )
    assert cfg == plain and all(type(getattr(cfg, name)) is int for name in names)
    assert json.dumps(dataclasses.asdict(cfg)) == json.dumps(dataclasses.asdict(plain))
    assert cfg.params == plain.params and type(cfg.params.q) is int


def test_config_stores_numpy_tolerances_as_python_numbers():
    # the config's JSON form is that of the equal Python int or float
    for tol, plain in (
        (np.float32(0.5), 0.5), (np.float64(1e-8), 1e-8), (np.float16(0.25), 0.25),
        (np.int64(1), 1), (np.uint8(3), 3),
    ):
        cfg, want = su.SuiteConfig(tol=tol), su.SuiteConfig(tol=plain)
        assert cfg == want and type(cfg.tol) is type(plain)
        assert json.dumps(dataclasses.asdict(cfg)) == json.dumps(dataclasses.asdict(want))
    assert su.SuiteConfig(tol=np.float32(1e-8)).tol == float(np.float32(1e-8))
    for bad, message in (
        (True, "tolerance must be positive and finite, got True"),
        (np.True_, f"expected a real tolerance, got {type(np.True_).__name__}"),
        (np.False_, f"expected a real tolerance, got {type(np.False_).__name__}"),
        (np.float32("nan"), "tolerance must be positive and finite, got nan"),
        (np.int64(0), "tolerance must be positive and finite, got 0"),
    ):
        with pytest.raises(ConfigError) as err:
            su.SuiteConfig(tol=bad)
        assert str(err.value) == message


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        su.run_suite(su.SuiteConfig(trials=1), "not_a_suite")


def test_trial_rng_is_keyed_by_suite_and_trial():
    cfg = su.SuiteConfig(seed=5)
    a = su.trial_rng(cfg, "alpha", 0).integers(0, 2**31)
    b = su.trial_rng(cfg, "alpha", 0).integers(0, 2**31)
    c = su.trial_rng(cfg, "alpha", 1).integers(0, 2**31)
    d = su.trial_rng(cfg, "beta", 0).integers(0, 2**31)
    assert a == b
    assert len({a, c, d}) == 3


# -- the suites themselves ----------------------------------------------------


@pytest.mark.parametrize("name", sorted(su.SUITES))
@pytest.mark.parametrize("q", [2, 3])
def test_each_suite_passes_small(name, q):
    cfg = su.SuiteConfig(q=q, trials=8, seed=2)
    report = su.run_suite(cfg, name)
    assert report.passed, report.failures[:2]
    assert report.suite_name == name
    assert report.trial_count > 0
    assert report.failures == []


def test_report_json_shape():
    cfg = su.SuiteConfig(trials=4)
    rep = su.run_suite(cfg, "measure_cocycle")
    obj = rep.to_json_obj()
    assert set(obj) == {
        "suite",
        "passed",
        "max_residual",
        "trial_count",
        "failures",
        "details",
    }


def test_prune_replay_details():
    cfg = su.SuiteConfig(q=3, trials=4)
    rep = su.run_suite(cfg, "prune_replay")
    assert rep.passed
    assert rep.details["replay_exponent"] == -1
    assert len(rep.details["merged_sources"]) == 3


def test_admissibility_details_table():
    cfg = su.SuiteConfig(q=2, depth_cap=6, trials=4, dim=2)
    rep = su.run_suite(cfg, "admissibility_table")
    assert rep.passed
    rows = rep.details["rows"]
    for row in rows:
        assert row["fixed_dim"] == row["d"] * row["orbit_count"]
        assert row["orbit_count"] == 3 * 2 ** (row["r"] - 1)
    header, *lines = rep.details["csv"].splitlines()
    assert header == "q,r,d,orbit_count,fixed_dim"
    assert len(lines) == len(rows)


def test_admissibility_table_builds_no_vertex_sets_and_no_cells(monkeypatch):
    # each ball's orbit count and labels come from its level arrays: no
    # vertex tuples, and no cell objects but the one depth-r cylinder per
    # ball whose measure the mass check reads
    built = Counter()
    vertices = tr.FiniteSubtree.vertices

    def read_vertices(tree):
        built["vertices"] += 1
        return vertices.fget(tree)

    monkeypatch.setattr(tr.FiniteSubtree, "vertices", property(read_vertices))
    for cls in (me.Cylinder, me.Halftree):

        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    cfg = su.SuiteConfig(q=3, depth_cap=9, trials=1)
    assert su.suite_admissibility_table(cfg).passed
    assert built == {"Cylinder": cfg.depth_cap - 1}


def test_measure_cocycle_builds_each_constant_word_once(monkeypatch):
    # a step translation drawn into a random word is the shared word, not a
    # fresh portrait; the shared one may be built once, here or earlier
    built, drawn = [], []
    init, draw = au.PortraitGen.__init__, au.random_portrait
    monkeypatch.setattr(
        au.PortraitGen, "__init__", lambda self, p: built.append(p) or init(self, p)
    )
    monkeypatch.setattr(au, "random_portrait", lambda *a: drawn.append(a) or draw(*a))
    assert su.run_suite(su.SuiteConfig(q=2, trials=20), "measure_cocycle").passed
    assert drawn and len(built) <= len(drawn) + 1


def test_invariance_correspondence_builds_no_level_table(monkeypatch):
    # the lift check moves only constant functions, which never run a
    # batch, so its random portrait words never build their level tables
    built = []
    tables = au._tables
    monkeypatch.setattr(au, "_tables", lambda perms: built.append(perms) or tables(perms))
    au.step_translation(tr.TreeParams(2))  # the shared word, built once before the suite
    built.clear()
    assert su.run_suite(su.SuiteConfig(q=2, trials=5), "invariance_correspondence").passed
    assert built == []


def test_forced_failure_records_counterexamples():
    # an impossibly tight tolerance must produce failure records, not a crash
    cfg = su.SuiteConfig(trials=6, tol=1e-300, seed=0)
    rep = su.run_suite(cfg, "fixed_vector_transfer")
    assert not rep.passed
    assert rep.failures
    first = rep.failures[0]
    assert "trial" in first
    assert rep.max_residual > 0


@pytest.mark.parametrize("name", ["homomorphism", "fixed_vector_transfer", "halftree_reach"])
def test_a_bad_alpha_names_its_trial(monkeypatch, name):
    # the suite's alphas are rescaled and its pairs built in stacked calls;
    # an alpha outside the disc at trial 3 stops the suite with an error
    # that names trial 3
    exact = su._in_disc

    def outside_at_trials_3_and_5(d, q, rngs):
        alphas = exact(d, q, rngs)
        alphas[[3, 5]] *= 2
        return alphas

    monkeypatch.setattr(su, "_in_disc", outside_at_trials_3_and_5)
    with pytest.raises(OperatorDomainError, match="stack index 3") as info:
        su.run_suite(su.SuiteConfig(trials=8), name)
    assert info.value.index == 3


def test_json_data_converts_context_values():
    # the "p/q" form is the one fractions.Fraction parses back
    for value in (Fraction(2, 3), Fraction(1), Fraction(-5, 4)):
        assert Fraction(su._json_data(value)) == value
    assert su._json_data(Fraction(1)) == "1/1"
    word = au.step_translation(tr.TreeParams(2))
    context = {
        "g": word, "cell": me.Cylinder((2, 1)), "got": Fraction(1, 3), "r": 2,
        "report": {"leak": math.nan, "per": (math.inf, 0.5), "name": "x"},
    }
    assert su._json_data(context) == {
        "g": word.to_json_obj(), "cell": {"kind": "cylinder", "base": "2.1"}, "got": "1/3",
        "r": 2, "report": {"leak": None, "per": [None, 0.5], "name": "x"},
    }


def test_a_failing_check_records_json_and_a_passing_one_nothing():
    rep = su.SuiteReport("measure_cocycle", 1, exact=True)
    cell = me.Cylinder((1,))
    assert rep.check(0, "held", 0, 0, got=cell)
    assert rep.failures == []
    assert not rep.check(3, "broke", 1, 0, got=Fraction(1, 2), cell=cell)
    assert rep.failures == [{
        "stream": "measure_cocycle", "trial": 3, "kind": "broke", "residual": 1.0,
        "bound": 0.0, "got": "1/2", "cell": {"kind": "cylinder", "base": "1"},
    }]
    rep.details = {"merged": [cell], "worst": math.nan}
    assert rep.to_json_obj()["details"] == {
        "merged": [{"kind": "cylinder", "base": "1"}], "worst": None
    }


@pytest.mark.parametrize("name", ["measure_cocycle", "homomorphism"])
def test_passing_checks_serialize_no_word(monkeypatch, name):
    calls = []
    to_json_obj = au.TreeAutomorphism.to_json_obj
    monkeypatch.setattr(
        au.TreeAutomorphism, "to_json_obj", lambda self: calls.append(self) or to_json_obj(self)
    )
    assert su.run_suite(su.SuiteConfig(q=2, trials=10), name).passed
    assert calls == []


def test_run_all_order_and_determinism():
    cfg = su.SuiteConfig(trials=6, seed=9)
    first = su.run_all(cfg)
    assert [r.suite_name for r in first] == list(su.SUITES)
    again = su.run_all(cfg)
    assert [r.to_json_obj() for r in again] == [r.to_json_obj() for r in first]


def test_built_values_skip_the_public_checks(monkeypatch):
    # a value built from parts the package has checked comes from a private
    # _of constructor: inside these builders no checked constructor runs,
    # every value an _of builds passes the checked one with equal fields
    builders = {
        rp.StepFunction: [rp.pi_apply, rp.StepFunction.refine, rp.StepFunction._refine,
                          rp.StepFunction.__sub__, rp.haar_average_fix],
        au.TreeAutomorphism: [au.compose, au.TreeAutomorphism.inverse, au.random_word],
        au.Portrait: [au.random_portrait],
    }
    codes = {cls: {fn.__code__ for fn in fns} for cls, fns in builders.items()}
    checked_inside, built = Counter(), {cls: [] for cls in builders}

    def inside(cls):
        frame = sys._getframe(2)
        while frame is not None and frame.f_code not in codes[cls]:
            frame = frame.f_back
        return frame is not None

    def spy_checked(cls, check):
        def spy(self, *args):
            checked_inside[cls.__name__] += inside(cls)
            check(self, *args)
        return spy

    def spy_of(cls, of):
        def spy(_, *args):
            out = of(*args)
            built[cls].append((inside(cls), out))
            return out
        return classmethod(spy)

    for cls in builders:
        name = "__post_init__" if cls is au.Portrait else "__init__"
        monkeypatch.setattr(cls, name, spy_checked(cls, getattr(cls, name)))
        monkeypatch.setattr(cls, "_of", spy_of(cls, cls._of))
    reports = su.run_all(su.SuiteConfig(q=2, trials=5))
    monkeypatch.undo()
    assert all(r.passed for r in reports)
    assert checked_inside == Counter()
    assert all(any(below for below, _ in built[cls]) for cls in builders)
    for v in (v for _, v in built[rp.StepFunction]):
        again = rp.StepFunction(v.params, v.resolution, v.values)
        assert again.values is v.values and type(v.resolution) is int
        assert (again.params, again.resolution) == (v.params, v.resolution)
    for g in (g for _, g in built[au.TreeAutomorphism]):
        again = au.TreeAutomorphism(g.params, g.word)
        assert (again.params, again.word, again.x0_image) == (g.params, g.word, g.x0_image)
    for p in (p for _, p in built[au.Portrait]):
        assert au.Portrait(p.root_perm, p.node_perms) == p


@pytest.mark.parametrize("exact", [False, True], ids=["tolerance", "exact"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_residual_fails_with_a_valid_record(value, exact):
    rep = su.SuiteReport("homomorphism", 1, exact=exact)
    assert rep.check(0, "fine", 0.5 if not exact else 0, 1.0)
    assert not rep.check(0, "broken", value, 1e-8)
    assert not rep.passed
    (failure,) = rep.failures
    assert failure["residual"] is None
    assert failure["non_finite"] == {math.inf: "inf", -math.inf: "-inf"}.get(value, "nan")
    # the worst residual stays finite: the mismatch count, or the worst finite one
    assert rep.max_residual == (1.0 if exact else 0.5)
    payload = {
        "command": "suite",
        "config": {"q": 2, "depth": 8, "dim": 2, "trials": 1, "seed": 0, "tol": 1e-8},
        "passed": rep.passed,
        "suites": [rep.to_json_obj()],
    }
    text = json.dumps(payload, allow_nan=False)
    validator = jsonschema.Draft202012Validator(SCHEMA)
    assert [e.message for e in validator.iter_errors(json.loads(text))] == []
    # a null residual without its non_finite tag, or the reverse, is invalid
    failure.pop("non_finite")
    assert list(validator.iter_errors(json.loads(json.dumps(payload))))
    failure.update(residual=1.0, non_finite="nan")
    assert list(validator.iter_errors(json.loads(json.dumps(payload))))
