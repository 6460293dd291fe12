"""Config parsing, canonical serialization, CLI commands and exit codes."""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sts
from sts.cli import _build_parser, main
from sts.config import (
    PRESETS,
    ConfigError,
    abc_field,
    build_flow,
    build_model,
    build_noise,
    build_potential,
    canonical_json,
    parse_config,
)
from sts.report import write_table_csv
from sts.trig import TrigField

MINIMAL = {
    "dimension": 1,
    "truncation": 8,
    "theta": 0.5,
    "flow": {"preset": "langevin-cos"},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_parse_minimal_defaults():
    cfg = parse_config(json.dumps(MINIMAL))
    assert cfg.alpha == 0.5
    assert cfg.noise == "identity"
    assert cfg.t_grid == [0.1, 1.0, 10.0]
    assert cfg.tolerances.tol_zero == 1e-8
    assert cfg.seed == 0


def test_parse_rejects_bad_documents():
    bad = [
        "not json",
        json.dumps({**MINIMAL, "bogus": 1}),
        json.dumps({**MINIMAL, "dimension": 4}),
        json.dumps({**MINIMAL, "truncation": 0}),
        json.dumps({**MINIMAL, "theta": -1.0}),
        json.dumps({**MINIMAL, "alpha": 1.5}),
        json.dumps({**MINIMAL, "flow": {"preset": "unknown"}}),
        # preset pinned to another dimension
        json.dumps({**MINIMAL, "dimension": 2, "flow": {"preset": "abc"}}),
        json.dumps({**MINIMAL, "flow": {"preset": "custom"}}),
        json.dumps(
            {**MINIMAL, "sweep": {"theta": [0.1], "parameter": "a",
                                  "values": list(range(2000))}}
        ),
    ]
    for text in bad:
        with pytest.raises(ConfigError):
            parse_config(text)


def test_parse_refuses_oversized_bases():
    abc = {"dimension": 3, "theta": 0.1, "flow": {"preset": "abc"}}
    assert parse_config(json.dumps({**abc, "truncation": 8}))
    random3 = {**abc, "truncation": 2,
               "flow": {"preset": "random", "params": {"bandwidth": 14}}}
    assert parse_config(json.dumps(random3))
    too_big = [
        {**abc, "truncation": 9},
        {**MINIMAL, "truncation": 13890},
        {**MINIMAL, "dimension": 2, "truncation": 57,
         "flow": {"preset": "diffusion"}},
        {**random3, "flow": {"preset": "random",
                             "params": {"bandwidth": 1000000}}},
        {**random3, "flow": {"preset": "random", "params": {"bandwidth": 15}}},
        {**random3, "sweep": {"theta": [0.1], "parameter": "bandwidth",
                              "values": [1, 15]}},
    ]
    for doc in too_big:
        with pytest.raises(ConfigError, match="limit is 27783"):
            parse_config(json.dumps(doc))
    # json.loads refuses these with ValueError and RecursionError
    for text in ['{"truncation": ' + "9" * 5000 + "}", "[" * 100000]:
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config(text)


def test_config_round_trip_byte_identical():
    doc = {**MINIMAL, "seed": 7, "t_grid": [0.5, 5.0],
           "tolerances": {"tol_pair": 1e-7}}
    once = parse_config(json.dumps(doc)).to_json()
    twice = parse_config(once).to_json()
    assert once == twice


def _refuse_constant(token):
    raise ValueError(f"{token} is not RFC 8259 JSON")


def test_canonical_json_handles_numpy_scalars():
    # a non-finite float, numpy's included, is null, never a NaN token
    text = canonical_json(
        {"a": np.bool_(True), "b": np.int64(3), "c": np.float64(0.5),
         "d": [float("nan"), np.float64("-inf")]}
    )
    assert json.loads(text, parse_constant=_refuse_constant) == {
        "a": True, "b": 3, "c": 0.5, "d": [None, None]}


def test_build_flow_presets():
    cfg = parse_config(json.dumps({
        "dimension": 2, "truncation": 2, "theta": 0.1,
        "flow": {"preset": "drift", "params": {"c": [1.0, -2.0]}},
    }))
    F = build_flow(cfg)
    assert F[0].mean() == 1.0 and F[1].mean() == -2.0

    cfg = parse_config(json.dumps({
        "dimension": 1, "truncation": 2, "theta": 0.1,
        "flow": {"preset": "langevin-double", "params": {"a": 0.4}},
    }))
    # drift must be minus the gradient of the emitted potential
    F, U = build_flow(cfg), build_potential(cfg)
    assert (F[0] + U.diff(0)).max_abs() < 1e-15

    cfg = parse_config(json.dumps({
        "dimension": 3, "truncation": 1, "theta": 0.1,
        "flow": {"preset": "abc", "params": {"A": 1.0, "B": 0.5, "C": 0.0}},
    }))
    got = build_flow(cfg)
    ref = abc_field(1.0, 0.5, 0.0)
    assert all((got[i] - ref[i]).max_abs() == 0.0 for i in range(3))


def test_custom_flow_is_real_and_conjugate_completed():
    cfg = parse_config(json.dumps({
        "dimension": 1, "truncation": 4, "theta": 0.2,
        "flow": {"preset": "custom", "modes": [
            {"axis": 1, "wavevector": [1], "re": 0.5, "im": -0.25},
        ]},
    }))
    F = build_flow(cfg)
    expect = TrigField(1, {(1,): 0.5 - 0.25j, (-1,): 0.5 + 0.25j})
    assert (F[0] - expect).max_abs() == 0.0


def test_build_noise_custom_frame():
    cfg = parse_config(json.dumps({
        **MINIMAL,
        "noise": [[{"axis": 1, "wavevector": [0], "re": 1.0, "im": 0.0},
                   {"axis": 1, "wavevector": [1], "re": 0.15, "im": 0.0}]],
    }))
    frame = build_noise(cfg)
    assert len(frame) == 1
    expect = TrigField.constant(1, 1.0) + TrigField.cos(1, 0, 0.3)
    assert (frame[0][0] - expect).max_abs() < 1e-15


def test_cli_spectrum_writes_reports(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["payload"]["classification"] == "unbroken"
    assert report["checks"] == {"converged": True}
    assert (out / "eigenvalues.csv").exists()
    assert (out / "traces.csv").exists()
    assert (out / "report.timing.txt").exists()


def test_cli_reports_are_deterministic(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--config", cfg, "--out", str(a)]) == 0
    assert main(["spectrum", "--config", cfg, "--out", str(b)]) == 0
    for name in ("report.json", "eigenvalues.csv", "traces.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_csv_is_rfc4180(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    raw = (out / "eigenvalues.csv").read_bytes()
    lines = raw.split(b"\r\n")
    assert lines[0] == b"degree,index,re,im,converged"
    assert raw.count(b"\r\n") == len([l for l in lines if l]) or raw.endswith(b"\r\n")


def test_table_csv_formats_every_cell_in_one_place(tmp_path):
    path = write_table_csv(tmp_path / "t.csv", ["a", "b", "c", "d"],
                           [(np.float64(0.1), True, None, 3)])
    assert path.read_bytes() == b"a,b,c,d\r\n0.1,true,,3\r\n"


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path)]) == 2
    missing = str(tmp_path / "nope.json")
    assert main(["spectrum", "--config", missing, "--out", str(tmp_path)]) == 2


# the 1-D commands run on MINIMAL
_INDETERMINATE_DOCS = {
    "dynamo": {"dimension": 3, "truncation": 1, "theta": 0.1,
               "flow": {"preset": "abc"}},
    "sweep": {**MINIMAL, "flow": {"preset": "random"},
              "sweep": {"theta": [0.3, 0.6], "parameter": "seed",
                        "values": [1, 2]}},
}


@pytest.mark.parametrize("command", [
    "classify", "spectrum", "witten", "pair", "langevin-check", "dynamo",
    "sweep",
])
def test_cli_indeterminate_exit_code(tmp_path, monkeypatch, command):
    # a guard that certifies nothing leaves no verdict and no ground state,
    # which every spectral command reports as not converged
    monkeypatch.setattr(
        sts.spectral, "convergence_masks",
        lambda systems, *args: [np.zeros(s.size, bool) for s in systems])
    cfg = write_config(tmp_path, _INDETERMINATE_DOCS.get(command, MINIMAL))
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["converged"] is False
    if command == "sweep":
        assert report["payload"]["classifications"] == {"indeterminate": 4}
        rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert [r.rsplit(",", 2)[1:] for r in rows] == [
            ["false", "nothing certified"]] * 4
    else:
        assert report["payload"]["classification"] == "indeterminate"
        assert report["payload"]["ground"] is None


def test_cli_nonfinite_trace_exits_3(tmp_path, recwarn):
    # at t = 20000 an uncertified eigenvalue with Re E < 0 overflows the
    # traces of an unbroken ABC verdict: W(t) is nan and Z(t) is -inf
    doc = {"dimension": 3, "truncation": 2, "theta": 0.08,
           "flow": {"preset": "abc"}, "tolerances": {"tol_converge": 1e-2},
           "t_grid": [1, 20000]}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["witten", "--config", cfg, "--out", str(out)]) == 3
    # RFC 8259 JSON: a non-finite number is null, never a NaN or Infinity token
    report = json.loads((out / "report.json").read_text(),
                        parse_constant=_refuse_constant)
    assert report["payload"]["classification"] == "unbroken"
    assert report["checks"]["converged"] is False
    assert report["checks"]["witten_zero"] is False
    assert report["payload"]["witten_max_abs"] is None
    # the exit code says it; numpy's overflow warnings would only precede it
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_cli_deterministic_limit_is_classified(tmp_path):
    # theta = 0 drift: the guard certifies the zero modes, and the verdict
    # agrees with the reported ground state
    doc = {**MINIMAL, "theta": 0.0, "flow": {"preset": "drift"}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["classify", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())["payload"]
    assert payload["classification"] == "unbroken"
    assert payload["ground"]["re"] == 0 and payload["ground"]["im"] == 0


def test_cli_witten_check(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["witten", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["payload"]["witten_max_abs"] <= 1e-6


def test_cli_pair_check(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["pair", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["payload"]["pairing_detail"]["violations"] == 0


def test_cli_evolve(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out), "--t", "0.5"]) == 0
    rows = (out / "density.csv").read_text().strip().split("\n")
    assert rows[0].strip() == "x,density"
    assert len(rows) == 65
    assert json.loads((out / "report.json").read_text())["checks"]["converged"]


_RANDOM_2D = {
    "dimension": 2, "truncation": 4, "theta": 0.4,
    "flow": {"preset": "random",
             "params": {"seed": 5, "bandwidth": 1, "amplitude": 0.5}},
}


@pytest.mark.parametrize("truncation", [4, 6])
def test_cli_evolve_unresolved_density_exits_3(tmp_path, truncation):
    # the negative bins shrink with N: under-resolution, not a physics failure
    cfg = write_config(tmp_path, {**_RANDOM_2D, "truncation": truncation})
    out = tmp_path / "out"
    assert main(["evolve", "--config", cfg, "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["converged"] is False
    assert report["payload"]["min_density"] < 0


_MULT_NOISE_1D = {
    "dimension": 1, "truncation": 12, "theta": 0.5,
    "flow": {"preset": "langevin-cos"},
    "noise": [[{"axis": 1, "wavevector": [0], "re": 1.0, "im": 0.0},
               {"axis": 1, "wavevector": [1], "re": 0.15, "im": 0.0}]],
}


def test_cli_mc_compare_clamped_dt_stays_within_the_stability_bound(
        tmp_path, capsys):
    # dt clamps to 0.0606; t / dt = 16.5 rounded down to 16 steps of 0.0625
    cfg = write_config(tmp_path, _MULT_NOISE_1D)
    out = tmp_path / "out"
    code = main(["mc-compare", "--config", cfg, "--out", str(out), "--t", "1",
                 "--dt", "1", "--samples", "2000", "--l1-bound", "10"])
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["payload"]["dt"] == 1 / 17
    assert report["checks"]["converged"]


@pytest.mark.parametrize("alpha", ["0", "1"])
def test_cli_mc_compare_steps_the_interpretation_it_is_given(tmp_path, alpha):
    # e = 1 + 0.3 cos x is multiplicative: the paths must sample the
    # alpha-interpretation's law, the one the operator density evolves
    cfg = write_config(tmp_path, _MULT_NOISE_1D)
    out = tmp_path / "out"
    code = main(["mc-compare", "--config", cfg, "--out", str(out),
                 "--alpha", alpha, "--t", "2", "--samples", "100000"])
    report = json.loads((out / "report.json").read_text())
    assert code == 0, report["payload"]["l1_distance"]
    assert report["payload"]["l1_distance"] <= 0.05


def dynamo_with_every_eigenvalue_certified(tmp_path, monkeypatch, C,
                                           truncation, theta):
    """Exit code and report of ``dynamo`` on ABC(1, 1, C) with the guard
    replaced by one that certifies every eigenvalue, so that a broken
    ground state reaches the time-stepping oracle."""
    def certify_all(systems, builder, tol, blocks):
        return [np.ones(s.size, bool) for s in systems]

    monkeypatch.setattr(sts.spectral, "convergence_masks", certify_all)
    doc = {"dimension": 3, "truncation": truncation, "theta": theta,
           "flow": {"preset": "abc",
                    "params": {"A": 1.0, "B": 1.0, "C": C}},
           "tolerances": {"tol_converge": 1e-2}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    code = main(["dynamo", "--config", cfg, "--out", str(out)])
    return code, json.loads((out / "report.json").read_text())


def test_cli_dynamo_checks_a_broken_ground_state_against_the_oracle(
        tmp_path, monkeypatch):
    # ABC at N = 2 has a broken-complex ground state
    code, report = dynamo_with_every_eigenvalue_certified(
        tmp_path, monkeypatch, C=1.0, truncation=2, theta=0.08)
    assert code == 0
    payload = report["payload"]
    assert payload["classification"] == "broken-complex"
    assert report["checks"] == {"converged": True, "growth_rate_2pct": True,
                                "frequency_5pct": True}
    oracle, eig = payload["oracle"], payload["eigensolve"]
    assert eig["gamma"] > 0 and eig["omega"] > 0
    assert oracle["gamma"] == pytest.approx(eig["gamma"], rel=0.02)
    assert oracle["omega"] == pytest.approx(eig["omega"], rel=0.05)


def test_cli_dynamo_checks_a_real_ground_state_against_the_oracle(
        tmp_path, monkeypatch):
    # Roberts (ABC with C = 0) at N = 3 has a broken-real ground state; the
    # oracle resolves its zero frequency to about 1e-4, which the 5 % bound
    # on |E_g| allows
    code, report = dynamo_with_every_eigenvalue_certified(
        tmp_path, monkeypatch, C=0.0, truncation=3, theta=0.05)
    assert code == 0
    payload = report["payload"]
    assert payload["classification"] == "broken-real"
    assert report["checks"] == {"converged": True, "growth_rate_2pct": True,
                                "frequency_5pct": True}
    oracle, eig = payload["oracle"], payload["eigensolve"]
    assert eig["gamma"] > 0 and eig["omega"] == 0
    assert oracle["gamma"] == pytest.approx(eig["gamma"], rel=0.02)
    assert abs(oracle["omega"]) <= 0.05 * eig["gamma"]


def test_cli_pure_advection_abc_is_unbroken(tmp_path):
    # at theta 0 degrees 1 and 2 of ABC at N = 2 hold a defective cluster
    # of R_1 at zero that roundoff scatters to Re ~ -5e-6, far below the
    # zero threshold; neither R_0's refined solve nor the Betti zeros may
    # vouch for it, so no broken verdict is certified
    doc = {"dimension": 3, "truncation": 2, "theta": 0.0,
           "flow": {"preset": "abc",
                    "params": {"A": 1.0, "B": 1.0, "C": 1.0}},
           "tolerances": {"tol_converge": 1e-2}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "report.json").read_text())["payload"]
    assert payload["classification"] == "unbroken"
    ground = payload["ground"]
    assert abs(complex(ground["re"], ground["im"])) < 1e-12
    certified = [r for d in payload["spectra"] for r in d if r["converged"]]
    assert max(abs(r["re"]) for r in certified) < 1e-12


def test_cli_mc_compare_failure_exit_code(tmp_path, monkeypatch):
    # every path at one point: an L1 distance of about 2, far above both
    # the bound and the sampling floor, so the check can judge it
    def one_point(model, n_traj, dt, steps, rng, x0=None):
        return np.full((n_traj, model.dimension), 1.0)

    monkeypatch.setattr(sts.sde, "ensemble_states", one_point)
    cfg = write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    code = main(["mc-compare", "--config", cfg, "--out", str(out),
                 "--t", "0.5"])
    assert code == 4
    report = json.loads((out / "report.json").read_text())
    assert report["checks"] == {"l1_within_bound": False, "converged": True}
    payload = report["payload"]
    assert payload["l1_floor"] < 0.05 < 1.9 < payload["l1_distance"]


def test_cli_mc_compare_under_sampled_exits_3(tmp_path):
    # the 2-D diffusion density is exactly uniform, yet the sampling noise
    # of 1e5 paths in 32^2 bins alone is above the default bound of 0.05
    doc = {"dimension": 2, "truncation": 2, "theta": 0.5,
           "flow": {"preset": "diffusion"}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["mc-compare", "--config", cfg, "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["converged"] is False
    payload = report["payload"]
    assert payload["l1_floor"] > 0.05
    assert payload["l1_distance"] == pytest.approx(payload["l1_floor"], rel=0.1)
    rows = (out / "densities.csv").read_text().strip().split("\n")
    assert rows[0].strip() == "cell,monte_carlo,operator"
    assert len(rows) == 1 + 32 ** 2


def test_cli_mc_compare_unresolved_density_exits_3(tmp_path):
    # at N = 4 the operator density's bins move by 0.028 at N + 2: the L1
    # distance would measure truncation error, so the run is not converged
    doc = {**_RANDOM_2D, "theta": 0.3,
           "flow": {"preset": "random",
                    "params": {"seed": 7, "bandwidth": 1, "amplitude": 0.5}}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    code = main(["mc-compare", "--config", cfg, "--out", str(out), "--t", "2",
                 "--samples", "2000", "--l1-bound", "10"])
    assert code == 3
    report = json.loads((out / "report.json").read_text())
    assert report["checks"] == {"l1_within_bound": True, "converged": False}


def test_cli_langevin_check(tmp_path, monkeypatch):
    # the evolution operator is assembled once at N and once at N + 2
    truncations = []
    seo_alpha = sts.cli.seo_alpha

    def counted(model, *shared):
        truncations.append(model.layout.truncation)
        return seo_alpha(model, *shared)

    monkeypatch.setattr(sts.cli, "seo_alpha", counted)
    doc = {**MINIMAL, "truncation": 16}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["langevin-check", "--config", cfg, "--out", str(out)]) == 0
    assert truncations == [16, 18]
    report = json.loads((out / "report.json").read_text())
    assert report["checks"]["spectrum_real"]
    assert report["checks"]["matches_hermitian_oracle"]
    assert report["payload"]["langevin"]["oracle_mismatch"] <= 1e-8


def test_cli_langevin_check_rejects_other_flows(tmp_path):
    doc = {**MINIMAL, "flow": {"preset": "diffusion"}}
    cfg = write_config(tmp_path, doc)
    assert main(["langevin-check", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2


def test_cli_sweep(tmp_path):
    doc = {
        "dimension": 1, "truncation": 6, "theta": 0.5,
        "flow": {"preset": "random", "params": {"bandwidth": 1}},
        "sweep": {"theta": [0.3, 0.6], "parameter": "seed",
                  "values": [1, 2]},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    raw = (out / "sweep.csv").read_bytes()
    lines = raw.decode().strip().split("\r\n")
    assert lines[0] == "theta,seed,classification,re_eg,im_eg,converged,reason"
    assert len(lines) == 5
    report = json.loads((out / "report.json").read_text())
    assert report["payload"]["cells"] == 4


@pytest.mark.parametrize("dimension, truncation", [(1, 8), (2, 4)])
def test_cli_sweep_cells_agree_with_spectrum(tmp_path, dimension, truncation):
    # a cell solves for eigenvalues only; under the same guard it must
    # reach the verdict and ground energy of a full spectrum run
    doc = {
        "dimension": dimension, "truncation": truncation, "theta": 0.05,
        "flow": {"preset": "random",
                 "params": {"bandwidth": 1, "amplitude": 0.5}},
    }
    sweep = {"theta": [0.05, 0.5], "parameter": "seed", "values": [1, 2]}
    cfg = write_config(tmp_path, {**doc, "sweep": sweep}, "sweep.json")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")[1:]
    assert len(lines) == 4
    single = write_config(tmp_path, doc, "single.json")
    for line in lines:
        theta, seed, label, re_eg, im_eg, converged, reason = (
            line.strip().split(","))
        cell = tmp_path / f"cell-{theta}-{seed}"
        main(["spectrum", "--config", single, "--theta", theta, "--seed", seed,
              "--out", str(cell)])
        payload = json.loads((cell / "report.json").read_text())["payload"]
        assert label == payload["classification"], (theta, seed)
        assert converged == "true"
        assert reason == ""
        ground = complex(payload["ground"]["re"], payload["ground"]["im"])
        energy = complex(float(re_eg), float(im_eg))
        assert abs(energy - ground) <= 1e-12 * max(1.0, abs(ground)), (theta, seed)


_MULT_NOISE_2D = [
    [{"axis": 1, "wavevector": [0, 0], "re": 1.0, "im": 0.0},
     {"axis": 1, "wavevector": [1, 0], "re": 0.15, "im": 0.0}],
    [{"axis": 2, "wavevector": [0, 0], "re": 1.0, "im": 0.0}],
]
_SHARED_SWEEPS = [
    # (config, noise fields, whether the drift depends on theta)
    pytest.param({"dimension": 2, "truncation": 3, "theta": 0.05,
                  "flow": {"preset": "random", "params": {"bandwidth": 1}},
                  "sweep": {"theta": [0.05, 0.5], "parameter": "seed",
                            "values": [3, 8, 3]}}, 2, False, id="random-2d"),
    pytest.param({"dimension": 2, "truncation": 3, "theta": 0.3, "alpha": 0.2,
                  "flow": {"preset": "random", "params": {"bandwidth": 1}},
                  "noise": _MULT_NOISE_2D,
                  "sweep": {"theta": [0.05, 0.5], "parameter": "seed",
                            "values": [3, 8]}}, 2, True, id="alpha-mult-2d"),
    pytest.param({"dimension": 3, "truncation": 1, "theta": 0.3,
                  "flow": {"preset": "abc"}, "tolerances": {"tol_converge": 1e-2},
                  "sweep": {"theta": [0.3, 0.5], "parameter": "C",
                            "values": [1.0, 0.0]}}, 3, False, id="abc-3d"),
]


@pytest.mark.parametrize("doc, noise_fields, theta_drift", _SHARED_SWEEPS)
def test_cli_sweep_shares_each_flow_value_exactly(tmp_path, monkeypatch, doc,
                                                  noise_fields, theta_drift):
    # the cells of one flow value share its theta-free operator parts:
    # every block equals a fresh assembly bit for bit, every row a cell
    # built from scratch, and nothing is kept from one run to the next
    built = []
    seo_alpha = sts.cli.seo_alpha

    def captured(model, *shared):
        # a snapshot: the guard's readers may sort a block's indices later
        blocks = seo_alpha(model, *shared)
        built.append([b.matrix.copy() for b in blocks])
        return blocks

    lies = []
    lie_matrices = sts.operators.lie_matrices

    def counted(G, layout):
        lies.append(layout)
        return lie_matrices(G, layout)

    monkeypatch.setattr(sts.cli, "seo_alpha", captured)
    monkeypatch.setattr(sts.operators, "lie_matrices", counted)
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    sweep = doc["sweep"]
    thetas, values = sweep["theta"], sweep["values"]
    terms = len(thetas) if theta_drift else 1
    calls = len(values) * 2 * (terms + noise_fields)
    assert len(lies) == calls

    # one flow value at a time, each at N and N + 2
    cell_doc = {k: v for k, v in doc.items() if k != "sweep"}
    fresh = []
    for value in values:
        flow = {**doc["flow"],
                "params": {**doc["flow"].get("params", {}),
                           sweep["parameter"]: value}}
        for theta in thetas:
            config = parse_config(json.dumps({**cell_doc, "theta": theta,
                                              "flow": flow}))
            for n in (config.truncation, config.truncation + 2):
                fresh.append(seo_alpha(build_model(config, n)))
    assert len(built) == len(fresh)
    for blocks, reference in zip(built, fresh):
        for a, r in zip(blocks, reference):
            e = r.matrix
            assert np.array_equal(a.indptr, e.indptr)
            assert np.array_equal(a.indices, e.indices)
            assert a.data.tobytes() == e.data.tobytes()

    config = parse_config(json.dumps(doc))
    rows = [sts.cli._sweep_cell(config, theta, value, {})
            for theta in thetas for value in values]
    header = (out / "sweep.csv").read_text().splitlines()[0].split(",")
    write_table_csv(tmp_path / "scratch.csv", header, rows)
    assert ((out / "sweep.csv").read_bytes()
            == (tmp_path / "scratch.csv").read_bytes())

    lies.clear()
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "again")]) == 0
    assert len(lies) == calls


def test_cli_sweep_reuses_nothing_from_a_failed_cell(tmp_path, monkeypatch):
    # the overflowed cell fails at its base solve, after its base assembly
    # (the drift and two noise fields); the next cell assembles anew
    lies = []
    lie_matrices = sts.operators.lie_matrices

    def counted(G, layout):
        lies.append(layout.truncation)
        return lie_matrices(G, layout)

    monkeypatch.setattr(sts.operators, "lie_matrices", counted)
    doc = {"dimension": 2, "truncation": 3, "theta": 0.3,
           "flow": {"preset": "random", "params": {"bandwidth": 1}},
           "sweep": {"theta": [1e308, 0.3], "parameter": "seed", "values": [7]}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    assert lies == [3] * 6 + [5] * 3
    rows = (out / "sweep.csv").read_text().strip().split("\n")[1:]
    assert rows[0].strip().endswith(
        "indeterminate,,,false,FloatingPointError: operator block contains "
        "non-finite entries")
    assert rows[1].strip() == "0.3,7,unbroken,0.0,0.0,true,"


def test_cli_numerical_failure(tmp_path, capsys, monkeypatch):
    # a sweep records a failed cell and goes on, and both exit 3
    def fail(block, vectors=True):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(sts.spectral, "eigensolve", fail)
    doc = {**MINIMAL, "truncation": 4, "flow": {"preset": "random"},
           "sweep": {"theta": [0.5], "parameter": "seed", "values": [1]}}
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
    rows = (out / "sweep.csv").read_text().strip().split("\n")
    assert rows[1].strip() == (
        "0.5,1,indeterminate,,,false,LinAlgError: eigenvalues did not converge")
    capsys.readouterr()
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("sts: numerical failure")
    assert "Traceback" not in err


_LANGEVIN_HOT = {**MINIMAL, "truncation": 4, "theta": 1e308}
_OVERFLOWS = [
    pytest.param(command, _LANGEVIN_HOT, [], id=command)
    for command in ("spectrum", "witten", "pair", "langevin-check", "mc-compare")
] + [
    pytest.param("spectrum", {"dimension": 2, "truncation": 2, "theta": 0.5,
                              "flow": {"preset": "drift",
                                       "params": {"c": [1e308, 1e308]}}},
                 [], id="spectrum-2d-drift"),
    pytest.param("dynamo", {"dimension": 3, "truncation": 1, "theta": 1e308,
                            "flow": {"preset": "abc"}}, [], id="dynamo"),
    pytest.param("mc-compare", {**MINIMAL, "truncation": 4},
                 ["--t", "1e308"], id="mc-compare-t"),
    pytest.param("evolve", {**MINIMAL, "truncation": 4},
                 ["--t", "1e308"], id="evolve-t"),
    pytest.param("sweep", {**MINIMAL, "truncation": 4,
                           "flow": {"preset": "random"},
                           "sweep": {"theta": [0.5, 1e308], "parameter": "seed",
                                     "values": [1]}},
                 [], id="sweep"),
]


@pytest.mark.parametrize("command,doc,flags", _OVERFLOWS)
def test_cli_overflowing_model_exits_3(tmp_path, capsys, recwarn, command, doc,
                                      flags):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert code == 3
    assert "Traceback" not in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    if command == "sweep":
        # an overflowed cell is indeterminate, and the sweep goes on
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[1:] == ["0.5,1,unbroken,0.0,0.0,true,",
                            "1e+308,1,indeterminate,,,false,FloatingPointError: "
                            "operator block contains non-finite entries"]
    else:
        assert err.startswith("sts: numerical failure")


def test_cli_overrides(tmp_path):
    cfg = write_config(tmp_path, MINIMAL)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out),
                 "--truncation", "6", "--theta", "0.7",
                 "--t-grid", "0.2,2.0"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["truncation"] == 6
    assert report["config"]["theta"] == 0.7
    assert report["payload"]["witten"]["t"] == [0.2, 2.0]


_NOISE_MODE = {"axis": 1, "wavevector": [1], "re": 0.2, "im": 0.0}
_SWEEP = {"theta": [0.3], "parameter": "seed", "values": [1, 2]}

_ABC = {"dimension": 3, "truncation": 1, "theta": 0.1, "flow": {"preset": "abc"}}


def _case(name, command, doc, *flags):
    return pytest.param(command, doc, list(flags), id=name)


_RANDOM_SWEEP = {**MINIMAL, "flow": {"preset": "random"}, "sweep": _SWEEP}

# each case has one value out of range, in a flag or the config
_OUT_OF_RANGE = [
    _case("truncation-0", "spectrum", MINIMAL, "--truncation", "0"),
    _case("theta-negative", "spectrum", MINIMAL, "--theta", "-1"),
    _case("alpha-3", "spectrum", MINIMAL, "--alpha", "3"),
    _case("t-grid-text", "spectrum", MINIMAL, "--t-grid", "0.1,abc"),
    _case("t-grid-negative", "spectrum", MINIMAL, "--t-grid", "-1"),
    _case("t-grid-empty", "spectrum", {**MINIMAL, "t_grid": []}),
    _case("seed-negative", "spectrum", MINIMAL, "--seed", "-1"),
    _case("dimension-bool", "spectrum", {**MINIMAL, "dimension": True}),
    _case("truncation-bool", "spectrum", {**MINIMAL, "truncation": True}),
    _case("seed-bool", "spectrum", {**MINIMAL, "seed": True}),
    _case("noise-no-wavevector", "spectrum", {**MINIMAL, "noise": [[
        {k: v for k, v in _NOISE_MODE.items() if k != "wavevector"}]]}),
    _case("noise-axis-text", "spectrum",
          {**MINIMAL, "noise": [[{**_NOISE_MODE, "axis": "1"}]]}),
    _case("sweep-theta-negative", "sweep",
          {**MINIMAL, "flow": {"preset": "random"},
           "sweep": {**_SWEEP, "theta": [0.3, -0.1]}}),
    # a key the preset's flow builder does not read is refused
    _case("params-unread", "spectrum",
          {**MINIMAL, "dimension": 2, "flow": {"preset": "shear-2d",
                                               "params": {"amplitude": 7}}}),
    _case("sweep-unread-parameter", "sweep",
          {**MINIMAL, "dimension": 2, "flow": {"preset": "shear-2d"},
           "sweep": {**_SWEEP, "parameter": "bogus"}}),
    _case("sweep-seed-text", "sweep",
          {**MINIMAL, "flow": {"preset": "random"},
           "sweep": {**_SWEEP, "values": [1, "two"]}}),
    _case("evolve-t-negative", "evolve", MINIMAL, "--t", "-1"),
    _case("mc-samples-0", "mc-compare", MINIMAL, "--samples", "0"),
    _case("mc-t-0", "mc-compare", MINIMAL, "--t", "0"),
    _case("mc-dt-0", "mc-compare", MINIMAL, "--dt", "0"),
    _case("mc-dt-negative", "mc-compare", MINIMAL, "--dt", "-0.01"),
    _case("mc-dt-nan", "mc-compare", MINIMAL, "--dt", "nan"),
    _case("dynamo-steps-0", "dynamo", _ABC, "--steps", "0"),
    _case("dynamo-steps-1", "dynamo", _ABC, "--steps", "1"),
    # flags a command never reads are refused: each sweep cell sets its
    # own theta, and only the spectral pipeline's trace samples read the t
    # grid
    _case("sweep-theta-override", "sweep", _RANDOM_SWEEP, "--theta", "0.7"),
    _case("evolve-t-grid", "evolve", MINIMAL, "--t-grid", "0.1,1"),
    _case("mc-compare-t-grid", "mc-compare", MINIMAL, "--t-grid", "0.1,1"),
    _case("sweep-t-grid", "sweep", _RANDOM_SWEEP, "--t-grid", "0.1,1"),
    # theta is the dynamo's magnetic diffusivity, and its noise is fixed
    _case("dynamo-theta-0", "dynamo", {**_ABC, "theta": 0}),
    _case("dynamo-theta-0-override", "dynamo", _ABC, "--theta", "0"),
    # theta is the Hermitian oracle's temperature
    _case("langevin-check-theta-0", "langevin-check", {**MINIMAL, "theta": 0}),
    _case("dynamo-noise", "dynamo",
          {**_ABC, "noise": [[{**_NOISE_MODE, "wavevector": [1, 0, 0]}]]}),
    # every spectral command runs the refinement guard, and a sweep
    # already builds the dynamo operator from a 3-D identity-noise config
    _case("spectrum-no-check-convergence", "spectrum", MINIMAL,
          "--no-check-convergence"),
    _case("spectrum-check-convergence", "spectrum", MINIMAL,
          "--check-convergence"),
    _case("sweep-no-check-convergence", "sweep", _RANDOM_SWEEP,
          "--no-check-convergence"),
    _case("langevin-check-no-check-convergence", "langevin-check", MINIMAL,
          "--no-check-convergence"),
    _case("sweep-dynamo", "sweep",
          {**_ABC, "sweep": {"theta": [0.1], "parameter": "C",
                             "values": [1.0]}}, "--dynamo"),
    _case("out-unwritable", "spectrum", MINIMAL,
          "--out", os.path.join(os.devnull, "out")),
]


@pytest.mark.parametrize("command,doc,flags", _OUT_OF_RANGE)
def test_out_of_range_input_exits_2(tmp_path, capsys, command, doc, flags):
    cfg = write_config(tmp_path, doc)
    try:
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o"),
                     *flags])
    except SystemExit as exc:  # argparse rejects a flag by exiting
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err
    assert "Traceback" not in err


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _config_documents(draw):
    """Config documents near the schema, with some values and keys broken."""
    D = draw(st.integers(1, 3))

    def mode():
        return st.fixed_dictionaries(
            {"axis": st.integers(0, D + 1),
             "wavevector": st.lists(st.integers(-2, 2), min_size=D, max_size=D),
             "re": st.floats(-1, 1), "im": st.floats(-1, 1)},
        ) | _JSON

    param = st.floats(-2, 2) | st.integers(-1, 3) | st.lists(
        st.floats(-1, 1), min_size=D, max_size=D) | _JSON
    flow = st.fixed_dictionaries(
        {"preset": st.sampled_from(PRESETS)},
        optional={
            "params": st.dictionaries(
                st.sampled_from(["a", "A", "c", "seed", "bandwidth",
                                 "amplitude", "other"]), param, max_size=3),
            "modes": st.lists(mode(), max_size=3),
        },
    )
    doc = draw(st.fixed_dictionaries(
        {"dimension": st.just(D), "truncation": st.integers(0, 4),
         "theta": st.floats(-0.5, 2), "flow": flow},
        optional={
            "alpha": st.floats(-0.5, 1.5),
            "noise": st.just("identity")
            | st.lists(st.lists(mode(), max_size=2), max_size=2),
            "tolerances": st.dictionaries(
                st.sampled_from(["tol_zero", "tol_pair", "tol_converge"]),
                st.floats(-1e-3, 1)),
            "seed": st.integers(-1, 2**40),
            "t_grid": st.lists(st.floats(-1, 10), max_size=3),
            "output": st.text(max_size=4),
            "sweep": st.fixed_dictionaries(
                {"theta": st.lists(st.floats(-0.5, 2), max_size=3),
                 "parameter": st.sampled_from(["seed", "a", "amplitude"]),
                 "values": st.lists(param, max_size=3)}),
        },
    ))
    broken = draw(st.dictionaries(
        st.sampled_from(sorted(doc) + ["bogus"]), _JSON, max_size=1))
    return {**doc, **broken}


@settings(max_examples=300, deadline=None)
@given(doc=_config_documents())
def test_parse_config_accepts_canonically_or_raises_config_error(doc):
    try:
        cfg = parse_config(json.dumps(doc))
    except ConfigError:
        return
    once = cfg.to_json()
    assert parse_config(once).to_json() == once


def _declared_console_script():
    """The ``sts`` entry of ``[project.scripts]`` in the repository's pyproject."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["sts"]


def test_console_script_entry_point(tmp_path):
    """The declared ``sts`` script runs as its own process and passes on exit codes.

    The ``[project.scripts]`` entry is run through this interpreter the way a
    generated console-script wrapper runs it, so no install is needed; an
    ``sts`` found on ``PATH`` is run as well. The child imports the same
    ``sts`` source as this test, whatever its working directory.
    """
    wrapper = (
        "import sys; from importlib.metadata import EntryPoint; "
        f"sys.exit(EntryPoint(name='sts', value={_declared_console_script()!r}, "
        "group='console_scripts').load()())"
    )
    commands = [[sys.executable, "-c", wrapper]]
    installed = shutil.which("sts")
    if installed:
        commands.append([installed])
    source_root = str(Path(sts.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [source_root, os.environ.get("PYTHONPATH")]))}

    cfg = write_config(tmp_path, {**MINIMAL, "truncation": 6})
    missing = str(tmp_path / "missing.json")
    out = str(tmp_path / "out")
    for command in commands:
        proc = subprocess.run(
            command + ["classify", "--config", cfg, "--out", out],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "classify: ok" in proc.stdout

        # main's return code must reach the exit status, not just a clean exit
        proc = subprocess.run(
            command + ["classify", "--config", missing, "--out", out],
            capture_output=True, text=True, cwd=tmp_path, env=env,
        )
        assert proc.returncode == 2, proc.stderr
        assert "sts: cannot read config" in proc.stderr
        assert "Traceback" not in proc.stderr


def _subcommand_options():
    """Each subcommand's long options, from the parser ``main`` uses."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: {opt for a in p._actions for opt in a.option_strings
               if opt.startswith("--") and opt != "--help"}
        for name, p in sub.choices.items()
    }


def test_readme_names_exactly_the_parser_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    options = _subcommand_options()
    undocumented = sorted(
        f"{name} {opt}" for name, opts in options.items() for opt in opts
        if not re.search(re.escape(opt) + r"(?![\w-])", readme))
    assert not undocumented
    # install and test command lines carry pip's and pytest's own flags
    named = {
        flag for line in readme.splitlines()
        if not re.search(r"\b(pip|pytest)\b", line)
        for flag in re.findall(r"--[a-z][\w-]*", line)
    }
    assert not named - set().union(*options.values())
