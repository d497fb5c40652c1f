"""End-to-end tests of the command-line interface and its file contracts."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import koopcascade as kc
from koopcascade.cli import ALL_CHECKS, LINEAR_CHECKS, main
from koopcascade.orbits import CSV_COLUMNS
from tests.conftest import cli_cascade, cli_state


def run(*argv) -> int:
    return main([str(a) for a in argv])


def assert_one_line_overflow(capsys):
    err = capsys.readouterr().err
    assert "orbit overflow" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def assert_one_line_naming(capsys, flag):
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.fixture()
def scalar_spec(tmp_path, scalar_pair):
    path = tmp_path / "scalar.json"
    kc.save_cascade(scalar_pair, path)
    return path


@pytest.fixture()
def decoupled_spec(tmp_path):
    sys_ = kc.CascadeSystem.build(
        [np.diag([0.4, 0.3]), np.diag([0.9, 0.8])],
        {(2, 1): np.zeros((2, 2))},
    )
    path = tmp_path / "decoupled.json"
    kc.save_cascade(sys_, path)
    return path


@pytest.fixture()
def resonant_spec(tmp_path):
    sys_ = kc.CascadeSystem.build(
        [np.array([[0.5]]), np.array([[0.5]])], {(2, 1): np.array([[1.0]])}
    )
    path = tmp_path / "resonant.json"
    kc.save_cascade(sys_, path)
    return path


@pytest.fixture()
def general_spec(tmp_path, general_triple):
    path = tmp_path / "general.json"
    path.write_text(json.dumps(kc.cascade_to_json(general_triple)))
    return path


class TestGenerate:
    def test_writes_valid_spec(self, tmp_path):
        out = tmp_path / "gen"
        assert run("generate", "--layers", 7, "--norm-base", 0.9, "--seed", 42,
                   "--out-dir", out) == 0
        sys_, rep = kc.load_cascade(out / "cascade.json")
        assert sys_.n == 7 and rep.overall
        np.testing.assert_allclose(
            sys_.norms, [0.9 ** (8 - i) for i in range(1, 8)], rtol=1e-12
        )
        assert (out / "conditions.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert "cascade.json" in manifest["files"]

    def test_single_layer_trivial(self, tmp_path):
        out = tmp_path / "one"
        assert run("generate", "--layers", 1, "--seed", 3, "--out-dir", out) == 0
        sys_, rep = kc.load_cascade(out / "cascade.json")
        pd = kc.compute_perturbation(sys_, rep)
        np.testing.assert_array_equal(pd.P, np.eye(sys_.dims[0]))

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("generate", "--seed", 11, "--out-dir", a) == 0
        assert run("generate", "--seed", 11, "--out-dir", b) == 0
        assert (a / "cascade.json").read_bytes() == (b / "cascade.json").read_bytes()
        assert (a / "conditions.json").read_bytes() == (b / "conditions.json").read_bytes()


class TestSimulate:
    def test_csv_contract(self, tmp_path, scalar_spec):
        out = tmp_path / "sim"
        assert run("simulate", "--spec", scalar_spec, "--horizon", 20,
                   "--seed", 1, "--out-dir", out) == 0
        with open(out / "errors.csv") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert tuple(header) == CSV_COLUMNS
            rows = list(reader)
        assert len(rows) == 21 * 2
        layer1 = [r for r in rows if r[1] == "1"]
        assert all(float(r[2]) == 0.0 for r in layer1)
        # bound column dominates the error column row-wise
        assert all(float(r[2]) <= float(r[4]) + 1e-9 for r in rows)
        assert (out / "errors.gp").exists()
        assert (out / "x0.json").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["layer1_excluded_from_plots"] is True

    def test_decoupled_all_zero(self, tmp_path, decoupled_spec):
        out = tmp_path / "sim0"
        assert run("simulate", "--spec", decoupled_spec, "--horizon", 10,
                   "--seed", 2, "--out-dir", out) == 0
        with open(out / "errors.csv") as fh:
            reader = csv.reader(fh)
            next(reader)
            assert all(float(r[2]) == 0.0 for r in reader)

    def test_invalid_spec_exit_3(self, tmp_path, resonant_spec):
        assert run("simulate", "--spec", resonant_spec, "--out-dir", tmp_path / "x") == 3

    def test_overflowing_initial_state_exit_4(self, tmp_path, scalar_spec):
        x0_path = tmp_path / "big.json"
        x0_path.write_text(json.dumps(
            kc.state_to_json(kc.StateVector.of([[1e13], [1e13]]))
        ))
        assert run("simulate", "--spec", scalar_spec, "--x0", x0_path,
                   "--out-dir", tmp_path / "ovf") == 4

    def test_x0_from_file(self, tmp_path, scalar_spec):
        x0_path = tmp_path / "x0.json"
        x0_path.write_text(json.dumps(
            kc.state_to_json(kc.StateVector.of([[1.0], [1.0]]))
        ))
        out = tmp_path / "simx"
        assert run("simulate", "--spec", scalar_spec, "--x0", x0_path,
                   "--horizon", 5, "--out-dir", out) == 0
        with open(out / "errors.csv") as fh:
            reader = csv.reader(fh)
            next(reader)
            rows = {(r[0], r[1]): r for r in reader}
        # known value: abs err layer 2 at t=3 is 2.5 * 0.5^3
        assert float(rows[("3", "2")][2]) == pytest.approx(0.3125, rel=1e-10)

    def test_determinism(self, tmp_path, scalar_spec):
        a, b = tmp_path / "da", tmp_path / "db"
        run("simulate", "--spec", scalar_spec, "--seed", 5, "--out-dir", a)
        run("simulate", "--spec", scalar_spec, "--seed", 5, "--out-dir", b)
        assert (a / "errors.csv").read_bytes() == (b / "errors.csv").read_bytes()


class TestVerify:
    def test_scalar_pair_all_linear_checks_pass(self, tmp_path, scalar_spec):
        out = tmp_path / "ver"
        code = run("verify", "--spec", scalar_spec, "--horizon", 120,
                   "--seed", 3, "--out-dir", out)
        assert code == 0
        rep = json.loads((out / "verify_report.json").read_text())
        assert rep["overall"]
        assert set(rep["checks"]) == {
            "error-bounds", "asymptotic-equivalence",
            "eigenfunction-bounds", "eigenfunction-exactness",
        }

    def test_resonant_spec_exit_3_checks_skipped(self, tmp_path, resonant_spec):
        out = tmp_path / "verbad"
        assert run("verify", "--spec", resonant_spec, "--out-dir", out) == 3
        rep = json.loads((out / "verify_report.json").read_text())
        assert rep["checks"] == {}
        assert not rep["overall"]

    def test_check_subset(self, tmp_path, scalar_spec):
        out = tmp_path / "versub"
        assert run("verify", "--spec", scalar_spec, "--checks", "error-bounds",
                   "--horizon", 100, "--out-dir", out) == 0
        rep = json.loads((out / "verify_report.json").read_text())
        assert list(rep["checks"]) == ["error-bounds"]

    def test_repeated_checks_run_once_in_first_seen_order(self, tmp_path, scalar_spec, capsys):
        out = tmp_path / "verdup"
        checks = "eigenfunction-exactness,error-bounds,eigenfunction-exactness,error-bounds"
        assert run("verify", "--spec", scalar_spec, "--checks", checks, "--out-dir", out) == 0
        assert capsys.readouterr().out.splitlines()[:-1] == [
            "eigenfunction-exactness: pass", "error-bounds: pass",
        ]
        rep = json.loads((out / "verify_report.json").read_text())
        assert sorted(rep["checks"]) == ["eigenfunction-exactness", "error-bounds"]

    @pytest.mark.parametrize("spec, conjugacy", [
        ("general_spec", None),
        ("scalar_spec", {"kind": "polynomialDiagonal", "a": [0.1, 0.2]}),
    ])
    def test_each_check_alone_matches_all(self, tmp_path, request, spec, conjugacy):
        # a check run alone, without the orbits and series the others share,
        # reports what it reports in a full run; horizon 150 puts the decay
        # sweep's 100 steps short of the nonlinear orbit's full length
        argv = ["verify", "--spec", request.getfixturevalue(spec), "--horizon", 150]
        if conjugacy:
            conj_path = tmp_path / "conj.json"
            conj_path.write_text(json.dumps(conjugacy))
            argv += ["--conjugacy", conj_path]
        assert run(*argv, "--out-dir", tmp_path / "all") == 0
        full = json.loads((tmp_path / "all" / "verify_report.json").read_text())["checks"]
        assert sorted(full) == sorted(ALL_CHECKS if conjugacy else LINEAR_CHECKS)
        for name in full:
            out = tmp_path / name
            assert run(*argv, "--checks", name, "--out-dir", out) == 0
            alone = json.loads((out / "verify_report.json").read_text())["checks"]
            assert alone == {name: full[name]}

    def test_unknown_check_rejected(self, tmp_path, scalar_spec):
        assert run("verify", "--spec", scalar_spec, "--checks", "bogus",
                   "--out-dir", tmp_path / "vx") == 2

    def test_nonlinear_check_without_conjugacy_rejected(self, tmp_path, scalar_spec):
        assert run("verify", "--spec", scalar_spec, "--checks",
                   "nonlinear-equivalence", "--out-dir", tmp_path / "vnc") == 2

    def test_identity_conjugacy_margins_match_linear(self, tmp_path, scalar_spec):
        conj_path = tmp_path / "conj_id.json"
        conj_path.write_text(json.dumps({"kind": "identity"}))
        out = tmp_path / "verconj"
        code = run("verify", "--spec", scalar_spec, "--horizon", 150, "--seed", 3,
                   "--conjugacy", conj_path, "--out-dir", out)
        assert code == 0
        rep = json.loads((out / "verify_report.json").read_text())
        assert set(rep["checks"]) >= set(
            ["nonlinear-equivalence", "nonlinear-eigenfunction-decay"]
        )
        lin_term = rep["checks"]["asymptotic-equivalence"]["terminal_error"]
        nl_term = rep["checks"]["nonlinear-equivalence"]["terminal_error"]
        assert nl_term == pytest.approx(lin_term, rel=1e-12, abs=1e-300)
        pair = rep["checks"]["nonlinear-eigenfunction-decay"]["pairs"]["2,1"]
        assert pair["path_discrepancy"] == 0.0

    def test_cubic_conjugacy_passes(self, tmp_path, scalar_spec):
        conj_path = tmp_path / "conj.json"
        conj_path.write_text(json.dumps({"kind": "polynomialDiagonal", "a": [0.1, 0.1]}))
        out = tmp_path / "vercube"
        assert run("verify", "--spec", scalar_spec, "--horizon", 150, "--seed", 3,
                   "--conjugacy", conj_path, "--out-dir", out) == 0


    def test_non_finite_nonlinear_orbit_exit_4(self, tmp_path, capsys):
        # the seed-45 state scaled by 1e110: its cubic image overflows to inf
        system = cli_cascade(45)
        spec, x0_path, conj_path = (tmp_path / f for f in ("c.json", "x0.json", "conj.json"))
        kc.save_cascade(system, spec)
        x0 = cli_state(system, 45)
        x0_path.write_text(json.dumps(kc.state_to_json(
            kc.StateVector.unstack(1e110 * x0.stacked(), system.dims)
        )))
        conj_path.write_text(json.dumps({"kind": "polynomialDiagonal", "a": [0.1] * system.n}))
        assert run("verify", "--spec", spec, "--x0", x0_path, "--conjugacy", conj_path,
                   "--checks", "nonlinear-equivalence", "--out-dir", tmp_path / "v") == 4
        assert_one_line_overflow(capsys)

    def test_general_coupling_passes(self, tmp_path, general_spec):
        out = tmp_path / "vg"
        assert run("verify", "--spec", general_spec, "--horizon", 200,
                   "--out-dir", out) == 0
        rep = json.loads((out / "verify_report.json").read_text())
        assert set(rep["checks"]) == {
            "error-bounds", "asymptotic-equivalence",
            "eigenfunction-bounds", "eigenfunction-exactness",
        }


class TestEigs:
    def test_decoupled_residuals_zero_averages_exact(self, tmp_path, decoupled_spec):
        out = tmp_path / "eigs0"
        assert run("eigs", "--spec", decoupled_spec, "--seed", 4, "--out-dir", out) == 0
        inv = json.loads((out / "eigenfunctions.json").read_text())
        assert len(inv["entries"]) == 4
        for entry in inv["entries"]:
            assert entry["residual"] < 1e-12
            for row in entry["laplace"]:
                assert row["status"] == "ok"
                assert row["abs_error"] < 1e-9

    def test_scalar_pair_laplace_quality(self, tmp_path, scalar_spec):
        out = tmp_path / "eigs1"
        assert run("eigs", "--spec", scalar_spec, "--seed", 4, "--out-dir", out) == 0
        inv = json.loads((out / "eigenfunctions.json").read_text())
        by_layer = {e["eigenfunction"]["layer"]: e for e in inv["entries"]}
        assert by_layer[2]["residual"] < 1e-10
        n1000 = [r for r in by_layer[2]["laplace"] if r["N"] == 1000][0]
        ref = kc.state_from_json(inv["reference_state"])
        sys_, rep_ = kc.load_cascade(scalar_spec)
        pd = kc.compute_perturbation(sys_, rep_)
        target = kc.inherited_eigenfunctions(sys_, pd, ref.stacked())[1]
        assert n1000["abs_error"] < 5e-3 * abs(target)

    def test_layer_filter(self, tmp_path, scalar_spec):
        out = tmp_path / "eigs2"
        assert run("eigs", "--spec", scalar_spec, "--layer", 2, "--out-dir", out) == 0
        inv = json.loads((out / "eigenfunctions.json").read_text())
        assert len(inv["entries"]) == 1
        assert inv["entries"][0]["eigenfunction"]["layer"] == 2

    def test_laplace_csv_columns(self, tmp_path, scalar_spec):
        out = tmp_path / "eigs3"
        assert run("eigs", "--spec", scalar_spec, "--out-dir", out) == 0
        header = (out / "laplace.csv").read_text().split("\n")[0]
        assert header == (
            "layer,index,eigenvalue_re,eigenvalue_im,peripheral,deflated,N,"
            "avg_re,avg_im,ref_re,ref_im,abs_error,status"
        )


    def test_general_coupling(self, tmp_path, general_spec):
        out = tmp_path / "eg"
        assert run("eigs", "--spec", general_spec, "--out-dir", out) == 0
        inv = json.loads((out / "eigenfunctions.json").read_text())
        assert len(inv["entries"]) == 3

    def test_residual_above_tolerance_exit_5(self, tmp_path, capsys):
        # the 12-layer seed-45 cascade has max residual 3.48e-8 > 1e-8
        gen = tmp_path / "g12"
        assert run("generate", "--seed", 45, "--layers", 12, "--out-dir", gen) == 0
        code = run("eigs", "--spec", gen / "cascade.json", "--layer", 1, "--index", 1,
                   "--out-dir", tmp_path / "e12")
        assert code == 5
        assert "exceeds" in capsys.readouterr().err


    def test_orbit_overflow_exit_4(self, tmp_path, capsys):
        # a valid spec whose coupling 1e13 drives the sample orbits past the
        # overflow limit, as verify and simulate see it too
        spec = tmp_path / "loud.json"
        kc.save_cascade(kc.CascadeSystem.build(
            [np.array([[0.5]]), np.array([[0.9]])], {(2, 1): np.array([[1e13]])}
        ), spec)
        for command in ("eigs", "verify", "simulate"):
            assert run(command, "--spec", spec, "--out-dir", tmp_path / command) == 4
            err = capsys.readouterr().err
            assert "orbit overflow" in err and "Traceback" not in err


class TestReproPaper:
    def test_full_run_passes_and_is_deterministic(self, tmp_path):
        a, b = tmp_path / "r1", tmp_path / "r2"
        assert run("repro-paper", "--out-dir", a) == 0
        assert run("repro-paper", "--out-dir", b) == 0
        assert (a / "errors.csv").read_bytes() == (b / "errors.csv").read_bytes()
        assert (a / "laplace.csv").read_bytes() == (b / "laplace.csv").read_bytes()
        rep = json.loads((a / "verify_report.json").read_text())
        assert rep["overall"]
        manifest = json.loads((a / "manifest.json").read_text())
        assert manifest["files"]["errors.csv"]["sha256"] == \
            json.loads((b / "manifest.json").read_text())["files"]["errors.csv"]["sha256"]

    def test_report_field_names(self, tmp_path):
        out = tmp_path / "fields"
        assert run("repro-paper", "--out-dir", out) == 0
        checks = json.loads((out / "verify_report.json").read_text())["checks"]
        assert {name: sorted(fields) for name, fields in checks.items()} == {
            "error-bounds": [
                "bounds_ok", "decay_factor", "decay_ok", "decay_ratios",
                "max_bound_violation", "max_envelope_violation", "passed", "slack",
                "terminal_ratios", "window_start",
            ],
            "asymptotic-equivalence": ["initial_error", "passed", "ratio", "terminal_error"],
            "eigenfunction-bounds": [
                "bounds_ok", "decay_factor", "decay_ok", "decay_ratios",
                "max_bound_violation", "passed", "slack",
            ],
            "eigenfunction-exactness": ["max_residual", "passed", "residual_tol"],
            "nonlinear-equivalence": [
                "decay_factor", "entered_ball_at", "max_error", "passed",
                "terminal_error", "terminal_ratio",
            ],
            "nonlinear-eigenfunction-decay": ["pairs", "passed"],
        }
        pairs = checks["nonlinear-eigenfunction-decay"]["pairs"]
        assert list(pairs) == ["7,1", "7,2", "7,3"]
        for fields in pairs.values():
            assert sorted(fields) == [
                "agreement_horizon", "agreement_tol", "decay_factor", "decay_ok",
                "max_ratio", "passed", "path_discrepancy", "paths_agree", "terminal_ratio",
            ]

    def test_orbit_overflow_exit_4(self, tmp_path, capsys):
        # 20 layers: |P x0| is about 1e23, past the absolute overflow limit
        assert run("repro-paper", "--layers", 20, "--horizon", 5,
                   "--out-dir", tmp_path / "deep") == 4
        assert "orbit overflow" in capsys.readouterr().err

    def test_non_finite_nonlinear_orbit_exit_4(self, tmp_path, capsys):
        # a = 1e300 sends the first cubic image of the unit state to inf
        assert run("repro-paper", "--seed", 45, "--cubic", 1e300,
                   "--out-dir", tmp_path / "huge") == 4
        assert_one_line_overflow(capsys)

    def test_failed_trial_does_not_stop_sweep(self, tmp_path, capsys):
        # both 20-layer trials overflow; each still writes its own directory
        out = tmp_path / "deep"
        assert run("repro-paper", "--layers", 20, "--horizon", 5, "--trials", 2,
                   "--out-dir", out) == 4
        for k in range(2):
            assert (out / f"trial_{k:04d}" / "cascade.json").exists()
        err = capsys.readouterr().err
        assert err.count("orbit overflow") == 2 and "Traceback" not in err

    def test_near_limit_orbit_norms_stay_finite(self, tmp_path, capsys):
        # a = 1e250 drives the coupled and nominal orbits about 9e262 apart:
        # the squares of that distance overflow, its norm must not
        out = tmp_path / "big"
        assert run("repro-paper", "--seed", 45, "--cubic", 1e250, "--out-dir", out) == 0
        assert capsys.readouterr().err == ""
        rep = json.loads((out / "verify_report.json").read_text(),
                         parse_constant=lambda name: pytest.fail(f"non-finite {name}"))
        assert rep["checks"]["nonlinear-equivalence"]["passed"]

    def test_log_rel_err_decreases_linearly(self, tmp_path):
        out = tmp_path / "r3"
        assert run("repro-paper", "--out-dir", out) == 0
        series: dict[str, list[tuple[int, float]]] = {}
        with open(out / "errors.csv") as fh:
            for row in csv.DictReader(fh):
                series.setdefault(row["layer"], []).append(
                    (int(row["t"]), float(row["log_rel_err"]))
                )
        for layer, pts in series.items():
            if layer == "1":
                continue
            pts.sort()
            ts = np.array([t for t, _ in pts if 100 <= t <= 200])
            ys = np.array([v for t, v in pts if 100 <= t <= 200])
            slope = np.polyfit(ts, ys, 1)[0]
            assert slope < 0, f"layer {layer} log rel err not decreasing"


class TestTrialSweep:
    """repro-paper --trials runs its trials on forked workers."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # two workers on any machine: trial k runs on worker k % 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    @pytest.fixture()
    def raising_seed(self, monkeypatch):
        """Make the trial of one seed raise a RuntimeError."""
        from koopcascade import cli

        repro_single = cli._repro_single

        def set_seed(raising):
            def trial(seed, out_dir, args):
                if seed == raising:
                    raise RuntimeError(f"trial {seed} raised")
                return repro_single(seed, out_dir, args)

            monkeypatch.setattr(cli, "_repro_single", trial)

        return set_seed

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_lines_in_seed_order(self, tmp_path, capsys):
        assert run("repro-paper", "--trials", 3, "--out-dir", tmp_path / "s") == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "seed 45", "seed 46", "seed 47", "all 3 trials passed"
        ]
        self.assert_no_child_left()

    def test_one_cpu_forks_nothing(self, tmp_path, monkeypatch):
        two, one = tmp_path / "two", tmp_path / "one"
        assert run("repro-paper", "--trials", 2, "--out-dir", two) == 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked with one CPU"))
        assert run("repro-paper", "--trials", 2, "--out-dir", one) == 0
        names = sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
        assert names == sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
        for name in names:
            if name.name != "manifest.json":
                assert (two / name).read_bytes() == (one / name).read_bytes(), name
        self.assert_no_child_left()

    def test_forked_trial_that_raises_is_exit_1(self, tmp_path, capsys, raising_seed):
        raising_seed(46)
        out = tmp_path / "s"
        assert run("repro-paper", "--trials", 2, "--out-dir", out) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith("seed 45: checks pass")
        assert "Traceback" in captured.err and "RuntimeError: trial 46 raised" in captured.err
        assert captured.err.endswith("failing trials (seed: exit code): {46: 1}\n")
        self.assert_no_child_left()

    def test_worker_0_trial_that_raises_leaves_no_child(self, tmp_path, raising_seed):
        raising_seed(45)
        out = tmp_path / "s"
        with pytest.raises(RuntimeError, match="trial 45 raised"):
            run("repro-paper", "--trials", 2, "--out-dir", out)
        assert (out / "trial_0001" / "manifest.json").exists()
        self.assert_no_child_left()


class TestBadFileArguments:
    @pytest.fixture()
    def bad_paths(self, tmp_path):
        text = tmp_path / "notjson.json"
        text.write_text("not json")
        return {"missing": tmp_path / "missing.json", "directory": tmp_path,
                "not-json": text}

    @pytest.mark.parametrize("command", ["simulate", "verify", "eigs"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "not-json"])
    def test_spec_exit_2(self, tmp_path, capsys, bad_paths, command, kind):
        code = run(command, "--spec", bad_paths[kind], "--out-dir", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 2
        assert "--spec" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--conjugacy", "--x0"])
    @pytest.mark.parametrize("kind", ["missing", "directory", "not-json"])
    def test_other_files_exit_2(self, tmp_path, capsys, scalar_spec, bad_paths, flag, kind):
        code = run("verify", "--spec", scalar_spec, flag, bad_paths[kind],
                   "--out-dir", tmp_path / "o")
        err = capsys.readouterr().err
        assert code == 2
        assert flag in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("content", [
        {},
        {"kind": "polynomialDiagonal"},
        [1, 2],
        {"kind": "polynomialDiagonal", "a": 5},
        {"kind": "polynomialDiagonal", "a": [0.1]},  # one layer, the spec has two
    ], ids=json.dumps)
    def test_conjugacy_not_fitting_spec_exit_2(self, tmp_path, capsys, scalar_spec, content):
        conj = tmp_path / "conj.json"
        conj.write_text(json.dumps(content))
        assert run("verify", "--spec", scalar_spec, "--conjugacy", conj,
                   "--out-dir", tmp_path / "o") == 2
        assert_one_line_naming(capsys, "--conjugacy")

    def test_spec_coupling_list_exit_2(self, tmp_path, capsys):
        # layer 2 of the seed-45 spec with its chain coupling given as
        # "C": [matrix] instead of {"1": matrix}
        obj = kc.cascade_to_json(cli_cascade(45))
        layer = obj["layers"][1]
        layer["C"] = [layer.pop("C_prev")]
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(obj))
        assert run("verify", "--spec", spec, "--out-dir", tmp_path / "o") == 2
        assert_one_line_naming(capsys, "--spec")

    @pytest.mark.parametrize("content", [
        {"layers": [{"dim": 1, "data": [[1.0, 0.0]]}]},  # one layer, the spec has two
        {"layers": [{"dim": 1, "data": [[1.0]]}, {"dim": 1, "data": [[1.0]]}]},
    ], ids=["layer-count", "short-pair"])
    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_x0_not_fitting_spec_exit_2(self, tmp_path, capsys, scalar_spec, command, content):
        x0 = tmp_path / "x0.json"
        x0.write_text(json.dumps(content))
        assert run(command, "--spec", scalar_spec, "--x0", x0,
                   "--out-dir", tmp_path / "o") == 2
        assert_one_line_naming(capsys, "--x0")

    @pytest.mark.parametrize("argv", [
        ["repro-paper", "--layers", 0],
        ["repro-paper", "--horizon", -1],
        ["simulate", "--spec", "SPEC", "--horizon", -1],
        ["repro-paper", "--norm-base", 1.1],
        ["generate", "--norm-base", 1.2],
        ["generate", "--dim-min", 5, "--dim-max", 2],
        ["generate", "--dim-min", 0, "--seed", 1],
        ["eigs", "--spec", "SPEC", "--layer", 99],
        ["eigs", "--spec", "SPEC", "--index", 0],
        ["repro-paper", "--seed", -1],
        ["repro-paper", "--cubic", -1],
        ["repro-paper", "--trials", 0],
    ], ids=lambda argv: " ".join(map(str, argv)))
    def test_unusable_numbers_exit_2(self, tmp_path, capsys, scalar_spec, argv):
        argv = [scalar_spec if a == "SPEC" else a for a in argv]
        assert run(*argv, "--out-dir", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"koopcascade {argv[0]}: ") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_process_stderr_has_no_traceback(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(kc.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "koopcascade.cli", "eigs", "--spec",
             str(tmp_path / "missing.json"), "--out-dir", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "missing.json" in proc.stderr


class TestTopLevel:
    def test_trials_fan_out(self, tmp_path):
        out = tmp_path / "sweep"
        assert run("repro-paper", "--out-dir", out, "--trials", 2) == 0
        assert (out / "trial_0000" / "errors.csv").exists()
        assert (out / "trial_0001" / "errors.csv").exists()
        # per-trial seeds differ, so the systems differ
        assert (out / "trial_0000" / "cascade.json").read_bytes() != \
            (out / "trial_0001" / "cascade.json").read_bytes()
        # trial k is the standalone run at seed 45 + k
        alone = tmp_path / "seed46"
        assert run("repro-paper", "--out-dir", alone, "--seed", 46) == 0
        for name in ("errors.csv", "laplace.csv", "verify_report.json"):
            assert (out / "trial_0001" / name).read_bytes() == (alone / name).read_bytes()

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_tol_profile_strict_accepted(self, tmp_path, scalar_spec):
        out = tmp_path / "strict"
        assert run("verify", "--spec", scalar_spec, "--checks", "error-bounds",
                   "--horizon", 150, "--tol-profile", "strict", "--out-dir", out) == 0
