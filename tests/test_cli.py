import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from treerep import automorphism as au
from treerep import cli, measure, operators, representation, suites
from treerep import tree as tr
from treerep.errors import IllConditionedError

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "docs" / "report_schema.json").read_text())
EXACT_SUITES = ("measure_cocycle", "prune_replay", "admissibility_table")


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- exit codes ---------------------------------------------------------------


def test_verify_passes_and_emits_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "4", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "verify"
    assert payload["passed"] is True
    assert len(payload["suites"]) == 7
    assert payload["config"]["trials"] == 4


def test_suite_failure_gives_exit_1(capsys):
    code, out, _ = run_cli(
        capsys, "suite", "fixed_vector_transfer", "--trials", "4", "--tol", "1e-300", "--no-timestamp"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["suites"][0]["failures"]


def test_config_errors_give_exit_2(capsys):
    assert run_cli(capsys, "verify", "--q", "1")[0] == 2
    assert run_cli(capsys, "verify", "--depth", "2")[0] == 2
    assert run_cli(capsys, "suite", "nonsense")[0] == 2
    assert run_cli(capsys, "verify", "--definitely-not-a-flag")[0] == 2
    assert run_cli(capsys, "verify", "--trials", "4", "--format", "csv")[0] == 2
    # an infinite bound would pass every tolerance check
    for argv in (("verify", "--format", "text"), ("verify",), ("spectrum",)):
        for tol in ("inf", "nan", "-inf"):
            code, out, err = run_cli(capsys, *argv, "--trials", "2", f"--tol={tol}")
            assert (code, out) == (2, ""), (argv, tol)
            assert err.startswith("configuration error: tolerance")


def test_negative_seed_gives_exit_2(capsys):
    # a seeded generator needs a non-negative seed; the check runs before any draw
    for argv in (("verify",), ("suite", "homomorphism"), ("spectrum",), ("admissibility-table",)):
        code, out, err = run_cli(capsys, *argv, "--trials", "2", "--seed", "-1")
        assert (code, out) == (2, ""), argv
        assert err == "configuration error: seed must be an integer >= 0, got -1\n"


def test_csv_is_refused_for_every_non_tabular_report(capsys):
    one_suite = ("suite", "homomorphism", "--trials", "2")
    for argv in (("spectrum",), ("verify", "--trials", "2"), one_suite):
        code, out, err = run_cli(capsys, *argv, "--format", "csv", "--no-timestamp")
        assert (code, out) == (2, ""), argv
        assert err == "configuration error: csv output is only available for tabular reports\n"


def test_unwritable_out_path_gives_exit_2(capsys, tmp_path):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(
        capsys, "verify", "--trials", "2", "--no-timestamp", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error:") and str(target) in err
    assert len(err.strip().splitlines()) == 1
    assert not target.parent.exists()


def test_numeric_breakdown_gives_exit_3(capsys, monkeypatch):
    def boom(args):
        raise IllConditionedError("synthetic breakdown")

    monkeypatch.setattr(cli, "_spectrum_report", boom)
    code, _, err = run_cli(capsys, "spectrum", "--no-timestamp")
    assert code == 3
    assert "breakdown" in err


@pytest.mark.parametrize("name", ["perturbed", "nan"])
def test_bad_square_root_gives_exit_3(capsys, monkeypatch, name):
    exact = operators.principal_sqrt

    def corrupt(a):
        root = exact(a)
        if name == "nan":
            root[..., 0, 0] = np.nan
            return root
        return root + 1e-3 * np.eye(root.shape[-1])

    monkeypatch.setattr(operators, "principal_sqrt", corrupt)
    code, _, err = run_cli(capsys, "spectrum", "--no-timestamp")
    assert code == 3
    assert "breakdown" in err


@pytest.mark.parametrize("q,seed", [(2, 1), (3, 4)])
def test_measure_cocycle_pulls_cells_past_the_depth_cap(capsys, q, seed):
    # pulling a depth-cap cell back by g can make it deeper than the cap;
    # the cocycle is a closed formula and must not reject it
    code, out, err = run_cli(
        capsys, "suite", "measure_cocycle", "--q", str(q), "--seed", str(seed), "--no-timestamp"
    )
    assert code == 0, err
    assert json.loads(out)["passed"] is True


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


# -- subcommands --------------------------------------------------------------


def test_suite_subcommand_single_report(capsys):
    code, out, _ = run_cli(capsys, "suite", "homomorphism", "--trials", "4", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert [s["suite"] for s in payload["suites"]] == ["homomorphism"]


def test_admissibility_table_pinned_row(capsys):
    code, out, _ = run_cli(
        capsys, "admissibility-table", "--q", "2", "--depth", "6", "--dim", "1",
        "--format", "csv", "--no-timestamp",
    )
    assert code == 0
    rows = out.strip().splitlines()
    assert rows[0] == "q,r,d,orbit_count,fixed_dim"
    assert "2,3,1,12,12" in rows  # r=3: 1 * 3 * 2^2


def test_spectrum_reports_guards(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--dim", "3", "--seed", "4", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    guard = payload["spectrum"]["guard"]
    assert guard["margin_to_pm_q"] > 0
    assert guard["sigma_min_diff"] > 0
    assert payload["spectrum"]["alpha"]["d"] == 3


def test_replay_subcommand_and_its_alias(capsys):
    code, out, _ = run_cli(capsys, "replay-prune", "--trials", "4", "--no-timestamp")
    assert code == 0
    payload = json.loads(out)
    assert payload["suites"][0]["suite"] == "prune_replay"
    # the old replay-prop21 alias is gone: a usage error, not a second name
    code2, out2, _ = run_cli(capsys, "replay-prop21", "--trials", "4", "--no-timestamp")
    assert code2 == 2
    assert out2 == ""


# -- report plumbing ----------------------------------------------------------


def test_reports_are_byte_identical_without_timestamp(capsys):
    _, out1, _ = run_cli(capsys, "verify", "--trials", "3", "--seed", "8", "--no-timestamp")
    _, out2, _ = run_cli(capsys, "verify", "--trials", "3", "--seed", "8", "--no-timestamp")
    assert out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--trials", "4"),
        ("spectrum",),
        ("admissibility-table", "--depth", "10"),
        ("replay-prune", "--dim", "3"),
    ],
    ids=["verify", "spectrum", "admissibility-table", "replay-prune"],
)
def test_reports_validate_against_the_schema(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--no-timestamp")
    assert code == 0
    jsonschema.Draft202012Validator.check_schema(SCHEMA)
    errors = [e.message for e in jsonschema.Draft202012Validator(SCHEMA).iter_errors(json.loads(out))]
    assert errors == []


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_failing_exact_suite_reports_a_finite_mismatch_count(capsys, monkeypatch):
    exact = measure.rn_cocycle
    monkeypatch.setattr(measure, "rn_cocycle", lambda g, cell: exact(g, cell) * g.params.q)
    code, out, _ = run_cli(capsys, "suite", "measure_cocycle", "--trials", "4", "--no-timestamp")
    assert code == 1
    (suite,) = json.loads(out, parse_constant=reject_constant)["suites"]
    assert suite["failures"]
    assert suite["max_residual"] == len(suite["failures"])


def force_failures(monkeypatch):
    """Make every suite fail once run with --tol 1e-30: the tolerance suites
    fail on their own, the exact ones see rn_cocycle scaled by q, the lift
    probe leaks 1e-3 and the fixed-space report finds no orbits."""
    exact = measure.rn_cocycle
    monkeypatch.setattr(measure, "rn_cocycle", lambda g, cell: exact(g, cell) * g.params.q)
    monkeypatch.setattr(suites, "invariant_lift_check", lambda *args: {"max_leakage": 1e-3})
    monkeypatch.setattr(suites, "fixed_space_report", lambda ball: 0)


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_forced_failure_reports_validate_against_the_schema(capsys, monkeypatch, name):
    force_failures(monkeypatch)
    code, out, _ = run_cli(
        capsys, "suite", name, "--trials", "4", "--tol", "1e-30", "--no-timestamp"
    )
    assert code == 1
    payload = json.loads(out, parse_constant=reject_constant)
    errors = [e.message for e in jsonschema.Draft202012Validator(SCHEMA).iter_errors(payload)]
    assert errors == []
    (suite,) = payload["suites"]
    assert suite["passed"] is False and suite["failures"]
    for failure in suite["failures"]:
        assert math.isfinite(failure["residual"]) and failure["residual"] > failure["bound"]
    if name in EXACT_SUITES:
        assert suite["max_residual"] == len(suite["failures"])


def test_every_failure_replays_from_its_seed_path(capsys, monkeypatch):
    force_failures(monkeypatch)
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "3", "--tol", "1e-30", "--seed", "4", "--no-timestamp"
    )
    assert code == 1
    payload = json.loads(out)
    config = payload["config"]
    replayed = {}
    for suite in payload["suites"]:
        assert suite["failures"], suite["suite"]
        for failure in suite["failures"]:
            # a structural check (trial -1) replays with the report's own trial count
            trials = config["trials"] if failure["trial"] == -1 else failure["trial"] + 1
            key = (suite["suite"], trials)
            if key not in replayed:
                cfg = suites.SuiteConfig(
                    q=config["q"], depth_cap=config["depth"], dim=config["dim"],
                    trials=trials, seed=config["seed"], tol=config["tol"],
                )
                report = suites.run_suite(cfg, suite["suite"])
                replayed[key] = json.loads(json.dumps(report.failures))
            assert failure in replayed[key]


def test_every_failure_names_its_suite_as_its_stream(capsys, monkeypatch):
    force_failures(monkeypatch)
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "3", "--tol", "1e-30", "--seed", "4", "--no-timestamp"
    )
    assert code == 1
    suites_out = json.loads(out)["suites"]
    assert [s["suite"] for s in suites_out] == list(suites.SUITES)
    for suite in suites_out:
        assert suite["failures"]
        assert {failure["stream"] for failure in suite["failures"]} == {suite["suite"]}


def negate_the_square_root(monkeypatch):
    # tau and q tau^{-1} swap: the other root of t^2 - alpha t + q
    exact = operators.principal_sqrt
    monkeypatch.setattr(operators, "principal_sqrt", lambda a: -exact(a))


def scale_the_cocycle_by_q(monkeypatch):
    exact = measure.rn_cocycle
    monkeypatch.setattr(measure, "rn_cocycle", lambda g, cell: exact(g, cell) * g.params.q)


def make_cell_distances_nan(monkeypatch):
    monkeypatch.setattr(
        representation.StepFunction, "max_cell_distance", lambda self, other: math.nan
    )


def transpose_tau_powers(monkeypatch):
    exact = representation.power
    monkeypatch.setattr(representation, "power", lambda pair, k: exact(pair, k).T)


def conjugate_tau_powers(monkeypatch):
    exact = representation.power
    monkeypatch.setattr(representation, "power", lambda pair, k: exact(pair, k).conj())


def scale_tau_powers(monkeypatch):
    # a relative error of 1e-7 on every tau^k: ten times the default --tol
    exact = representation.power
    monkeypatch.setattr(representation, "power", lambda pair, k: exact(pair, k) * (1 + 1e-7))


def shift_tau_ranges(monkeypatch):
    # every nested range of one tau-power starts one cylinder late
    exact = representation.index_unchecked
    monkeypatch.setattr(representation, "index_unchecked", lambda q, addr: exact(q, addr) + 1)


def negate_the_cocycle_exponent(monkeypatch):
    exact = measure.rn_cocycle
    monkeypatch.setattr(measure, "rn_cocycle", lambda g, cell: 1 / exact(g, cell))


def mis_normalise_the_measure(monkeypatch):
    # a depth-k cylinder weighs 1/q^k instead of 1/((q+1) q^(k-1)); every
    # ratio of two measures stays right, only the total mass is wrong
    def uniform_by_letter(params, cell):
        cell = measure.canonicalize(params, cell)
        if isinstance(cell, measure.Cylinder):
            return Fraction(1, params.q ** len(cell.base))
        return 1 - uniform_by_letter(params, measure.Cylinder(cell.tail))

    monkeypatch.setattr(measure, "cell_measure", uniform_by_letter)


def give_complements_their_cylinders_mass(monkeypatch):
    # the complement of the cylinder at t weighs what the cylinder does
    exact = measure.cell_measure

    def cylinder_mass(params, cell):
        cell = measure.canonicalize(params, cell)
        if isinstance(cell, measure.Halftree):
            return exact(params, measure.Cylinder(cell.tail))
        return exact(params, cell)

    monkeypatch.setattr(measure, "cell_measure", cylinder_mass)


def make_lift_leakage_nan(monkeypatch):
    # the NaN also reaches the failure record's context and the details
    exact = suites.invariant_lift_check

    def leaky(*args):
        return dict(exact(*args), max_leakage=math.nan)

    monkeypatch.setattr(suites, "invariant_lift_check", leaky)


# each wrong program, and the suites that must fail it: no more, no fewer
DEFECTS = {
    "wrong_branch": (negate_the_square_root, {"invariance_correspondence"}),
    "cocycle_times_q": (scale_the_cocycle_by_q, {"measure_cocycle", "prune_replay"}),
    "nan_residual": (make_cell_distances_nan, {"homomorphism", "halftree_reach"}),
    "tau_power_transposed": (
        transpose_tau_powers,
        {"fixed_vector_transfer", "halftree_reach", "invariance_correspondence"},
    ),
    "tau_power_conjugated": (
        conjugate_tau_powers,
        {"fixed_vector_transfer", "halftree_reach", "invariance_correspondence"},
    ),
    "cocycle_exponent_negated": (
        negate_the_cocycle_exponent, {"measure_cocycle", "prune_replay"}
    ),
    "nan_leakage": (make_lift_leakage_nan, {"invariance_correspondence"}),
    "complement_mass": (give_complements_their_cylinders_mass, {"prune_replay"}),
    "tau_power_scaled": (
        scale_tau_powers, {"homomorphism", "fixed_vector_transfer", "halftree_reach"}
    ),
    "tau_ranges_shifted": (shift_tau_ranges, {"homomorphism", "halftree_reach"}),
    "measure_mis_normalised": (
        mis_normalise_the_measure, {"prune_replay", "admissibility_table"}
    ),
}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_verify_catches_every_catalogued_defect(capsys, monkeypatch, defect, q):
    # each defect is a wrong program: verify must fail it with a valid
    # report (exit 1), neither pass it (0) nor crash on it (2, 3), and
    # exactly the suites named in the catalogue must catch it
    patch, catchers = DEFECTS[defect]
    patch(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--q", str(q), "--trials", "10", "--no-timestamp")
    assert code == 1, err
    payload = json.loads(out, parse_constant=reject_constant)
    errors = [e.message for e in jsonschema.Draft202012Validator(SCHEMA).iter_errors(payload)]
    assert errors == []
    assert payload["passed"] is False
    assert {s["suite"] for s in payload["suites"] if s["failures"]} == catchers
    if defect == "nan_leakage":
        (lift,) = [s for s in payload["suites"] if s["suite"] == "invariance_correspondence"]
        assert lift["details"]["worst_invariant_leakage"] is None


def test_violated_spectral_guard_gives_exit_3(capsys, monkeypatch):
    # every eigenvalue of tau at +q: the guard margin is exactly zero
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.full(len(a), 2.0 + 0j))
    code, out, err = run_cli(capsys, "spectrum", "--q", "2", "--no-timestamp")
    assert (code, out) == (3, "")
    assert err.startswith("numeric breakdown: spectral guard violated")


def json_digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def letters_digest(outputs, width):
    # the benchmark's digest of apply_batch images: the rows' lengths, then
    # their letters zero-padded to `width`, nothing past a row's length
    h = hashlib.sha256()
    for letters, lengths in outputs:
        lengths = np.asarray(lengths, dtype=np.int64)
        canon = np.zeros((letters.shape[0], width), dtype=np.int64)
        used = min(width, letters.shape[1])
        canon[:, :used] = letters[:, :used]
        canon[np.arange(width)[None, :] >= lengths[:, None]] = 0
        h.update(lengths.tobytes())
        h.update(canon.tobytes())
    return h.hexdigest()


# recorded before closed neighbourhoods merged levels with one stable sort
# and the stabilizer average summed with np.bincount
DEEP_TABLE_SHA256 = {
    (3, 12): "d647f14a0011011095a50fbe5b01ccbaa618d6c93d36a933357ccbeeb6fa4f1b",
    (5, 9): "15d44894846b11c38f2abe74a30b2a85ce0a0d2a2b5ca4c86ff1763480996888",
    (5, 10): "2fbb3ab3370617a978d9f141fbb3e169a412cea22b17b2dd5fcab29dfcf91d6a",
}


@pytest.mark.parametrize("q, depth", sorted(DEEP_TABLE_SHA256))
def test_deeper_admissibility_tables_keep_their_bytes(capsys, q, depth):
    """The tables where the depth cap bites, byte for byte.  Recorded with

        treerep admissibility-table --q 3 --depth 12 --no-timestamp | sha256sum
        treerep admissibility-table --q 5 --depth 9 --no-timestamp | sha256sum
        treerep admissibility-table --q 5 --depth 10 --no-timestamp | sha256sum
    """
    code, out, _ = run_cli(
        capsys, "admissibility-table", "--q", str(q), "--depth", str(depth), "--no-timestamp"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DEEP_TABLE_SHA256[q, depth]


def test_exact_outputs_match_the_recorded_digests(capsys):
    # the benchmark rejects a change whose exact outputs differ from these
    # recorded digests, so the unit tests hold the same line
    recorded = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    for q, seed in ((2, 5), (3, 2)):
        code, out, _ = run_cli(
            capsys, "verify", "--q", str(q), "--seed", str(seed), "--no-timestamp"
        )
        assert code == 0
        exact = [s for s in json.loads(out)["suites"] if s["suite"] in EXACT_SUITES]
        assert json_digest(exact) == recorded["verify"][str(q)][str(seed)], (q, seed)
    for q, depth in ((2, 12), (3, 9)):
        code, out, _ = run_cli(
            capsys, "admissibility-table", "--q", str(q), "--depth", str(depth), "--no-timestamp"
        )
        assert code == 0
        (table,) = json.loads(out)["suites"]
        assert json_digest(table["details"]["rows"]) == recorded["orbit_table"][str(q)], q
    # boundary_action input set 0: a depth-5 random portrait and the step
    # translation after the edge inversion, on the full letter matrix
    for q, cap in ((2, 12), (3, 9), (5, 7)):
        params = tr.TreeParams(q, cap)
        rng = np.random.default_rng([0, q, cap])
        portrait = au.from_portrait(params, au.random_portrait(params, 5, rng))
        translation = au.compose(au.step_translation(params), au.edge_inversion(params))
        letters = tr.letter_matrix(params, cap)
        lengths = np.full(letters.shape[0], cap, dtype=np.int64)
        images = [g.apply_batch(letters, lengths) for g in (portrait, translation)]
        width = cap + translation.displacement
        assert letters_digest(images, width) == recorded["boundary_action"][str(q)][0], q


def test_timestamp_present_by_default(capsys):
    _, out, _ = run_cli(capsys, "verify", "--trials", "2")
    assert "timestamp" in json.loads(out)


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--trials", "3", "--no-timestamp", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["passed"] is True


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--trials", "3", "--format", "text", "--no-timestamp")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 7
    assert all("PASS" in line for line in lines)


def test_cli_import_loads_numpy_but_not_scipy():
    # scipy's import costs about as much as numpy's; every command would pay it
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, treerep.cli; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split("'")[1::2]
    assert "numpy" in loaded
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []


def test_console_script_entry_point():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "treerep.cli", "verify", "--trials", "2", "--no-timestamp"],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
