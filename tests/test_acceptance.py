"""Acceptance criteria for the full package, one test per criterion.

Each test prints a single [ACnn] PASS/FAIL line (visible with pytest -s
or in the failure report) in addition to the usual pytest verdict.
"""

import csv
import json
from math import comb

import numpy as np

from sts.cli import main
from sts.config import abc_field
from sts.exterior import codifferential_matrix, d_matrix, hodge_star_matrix
from sts.layout import BasisLayout, FormVector
from sts.operators import (
    SdeModel,
    fp_matrix_direct,
    kd_model,
    kd_operator,
    seo_alpha,
    seo_time_reversed,
)
from sts.sde import (
    density_bin_averages,
    ensemble_density,
    ensemble_states,
    induction_timestep_oracle,
    l1_distance,
)
from sts.spectral import (
    BROKEN_COMPLEX,
    BROKEN_REAL,
    UNBROKEN,
    Tolerances,
    adjoint_check,
    eigensolve,
    ground_state,
    isospectral_check,
    pairing_check,
    response,
    targeted_eigenpair,
    witten_index,
    zero_modes,
)
from sts.trig import FlowField, TrigField, identity_frame

from conftest import (
    ABC_ETA,
    DYNAMO_N,
    langevin_cos_model,
    multiplicative_model,
    random_flow_model,
    shear_model,
)

TOL = Tolerances()


def verdict(number, label, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"[AC{number:02d}] {label}: {state} {detail}".rstrip())
    assert ok, f"criterion {number} ({label}) failed: {detail}"


def ground_energy(payload):
    return complex(payload["ground"]["re"], payload["ground"]["im"])


def max_witten(payload):
    return max(abs(complex(*w)) for w in payload["witten"]["w"])


def langevin_double_model(layout=None, theta=0.5, a=0.3):
    layout = layout or BasisLayout(1, 12)
    drift = FlowField([TrigField.sin(1, 0) + TrigField.sin(1, 0, 2 * a, 2)])
    return SdeModel(layout, drift, identity_frame(1), theta)


def pairing_suite():
    return [
        langevin_cos_model(BasisLayout(1, 12)),
        langevin_double_model(),
        multiplicative_model(BasisLayout(1, 12)),
        shear_model(BasisLayout(2, 4)),
        random_flow_model(17, dimension=2, layout=BasisLayout(2, 4)),
    ]


def _preset_models(N):
    """One model per flow preset at its native dimension, truncation N."""
    out = []
    for D in (1, 2, 3):
        out.append(SdeModel(BasisLayout(D, N), FlowField.zero(D),
                            identity_frame(D), 0.7))
        out.append(SdeModel(BasisLayout(D, N), FlowField.constant([1.0] * D),
                            identity_frame(D), 0.7))
        rng = np.random.default_rng(D)
        out.append(SdeModel(
            BasisLayout(D, N),
            FlowField([TrigField.random(D, 1, rng, 0.5) for _ in range(D)]),
            identity_frame(D), 0.4,
        ))
    out.append(langevin_cos_model(BasisLayout(1, N)))
    out.append(langevin_double_model(BasisLayout(1, N)))
    out.append(multiplicative_model(BasisLayout(1, N)))
    out.append(shear_model(BasisLayout(2, N)))
    out.append(SdeModel(BasisLayout(3, N), abc_field(1.0, 1.0, 1.0),
                        identity_frame(3), 0.1))
    return out


def test_criterion_01_algebraic_suite():
    worst_alg = 0.0
    worst_comm = 0.0
    for N in (2, 4):
        for D in (1, 2, 3):
            lay = BasisLayout(D, N)
            for k in range(D):
                d2 = d_matrix(lay, k + 1) @ d_matrix(lay, k) if k + 1 < D else None
                if k + 1 < D:
                    worst_alg = max(worst_alg, abs(d2).max() if d2.nnz else 0.0)
                cd = codifferential_matrix(lay, k + 1).toarray()
                worst_alg = max(
                    worst_alg, np.abs(cd - d_matrix(lay, k).toarray().conj().T).max()
                )
            for k in range(D + 1):
                twice = hodge_star_matrix(lay, D - k) @ hodge_star_matrix(lay, k)
                sign = (-1) ** (k * (D - k))
                worst_alg = max(
                    worst_alg, abs(twice - sign * np.eye(lay.size(k))).max()
                )
        for m in _preset_models(N):
            worst_comm = max(worst_comm, max(seo_alpha(m).d_commutator_residuals()))
    ok = worst_alg < 1e-13 and worst_comm <= 1e-12
    verdict(1, "exterior-calculus identities and d-exactness of H", ok,
            f"(algebra {worst_alg:.2e}, commutator {worst_comm:.2e})")


def test_criterion_02_free_diffusion_spectra():
    theta = 0.7
    worst = 0.0
    betti_ok = True
    for D in (1, 2, 3):
        lay = BasisLayout(D, 2)
        blocks = seo_alpha(
            SdeModel(lay, FlowField.zero(D), identity_frame(D), theta)
        )
        k2 = theta * (lay.modes() ** 2).sum(axis=1)
        systems = []
        for k in range(D + 1):
            w = np.sort(np.linalg.eigvals(blocks[k].dense).real)
            expect = np.sort(np.tile(k2, comb(D, k)))
            worst = max(worst, float(np.abs(w - expect).max()))
            systems.append(eigensolve(blocks[k], vectors=False))
        zm = zero_modes(systems, TOL)
        betti_ok = betti_ok and zm["match"]
        if D == 2:
            betti_ok = betti_ok and zm["counts"] == [1, 2, 1]
        if D == 3:
            betti_ok = betti_ok and zm["counts"] == [1, 3, 3, 1]
    ok = worst <= 1e-10 and betti_ok
    verdict(2, "free-diffusion spectra and Betti zero modes", ok,
            f"(max deviation {worst:.2e})")


def test_criterion_03_witten_index(abc_report, roberts_report):
    t_grid = [0.1, 1.0, 10.0]
    worst = 0.0
    for m in _preset_models(2) + pairing_suite():
        systems = [eigensolve(b, vectors=False) for b in seo_alpha(m)]
        worst = max(worst, max(abs(w) for w in witten_index(systems, t_grid)))
    for _, _, payload in (abc_report, roberts_report):
        worst = max(worst, max_witten(payload))
    ok = worst <= 1e-6
    verdict(3, "Witten index vanishes on all presets", ok, f"(max |W| {worst:.2e})")


def test_criterion_04_pairing_suite():
    total_pairs = 0
    worst_dist = 0.0
    violations = 0
    for m in pairing_suite():
        blocks = seo_alpha(m)
        systems = [eigensolve(b) for b in blocks]
        res = pairing_check(systems, TOL, blocks=blocks)
        total_pairs += res["pairs"]
        violations += res["violations"]
        worst_dist = max(worst_dist, res["even_odd_distance"])
    ok = not violations and worst_dist <= 1e-6 and total_pairs > 0
    verdict(4, "boson-fermion pairing on the five-model suite", ok,
            f"({total_pairs} pairs, {violations} violations, "
            f"even/odd {worst_dist:.2e})")


def test_criterion_05_isospectrality_and_adjoint():
    worst_iso = 0.0
    worst_adj = 0.0
    # the Ito model's time reversal negates its Stratonovich-shifted drift
    for m in pairing_suite() + [multiplicative_model(alpha=0.0)]:
        H = seo_alpha(m)
        HT = seo_time_reversed(m)
        sys_h = [eigensolve(b, vectors=False) for b in H]
        sys_t = [eigensolve(b, vectors=False) for b in HT]
        worst_iso = max(worst_iso, max(isospectral_check(sys_h, sys_t)))
        worst_adj = max(worst_adj, max(adjoint_check(H, HT)))
    ok = worst_iso <= 1e-8 and worst_adj <= 1e-10
    verdict(5, "time-reversal isospectrality and adjoint identity", ok,
            f"(Hausdorff {worst_iso:.2e}, adjoint {worst_adj:.2e})")


def test_criterion_06_langevin_oracle(tmp_path):
    worst = 0.0
    for preset in ("langevin-cos", "langevin-double"):
        for theta in (0.3, 0.5, 1.0):
            doc = {"dimension": 1, "truncation": 16, "theta": theta,
                   "flow": {"preset": preset}}
            cfg = tmp_path / f"{preset}-{theta}.json"
            cfg.write_text(json.dumps(doc), encoding="utf-8")
            out = tmp_path / f"{preset}-{theta}"
            code = main(["langevin-check", "--config", str(cfg),
                         "--out", str(out)])
            report = json.loads((out / "report.json").read_text())
            assert code == 0, (preset, theta, report["checks"])
            assert report["payload"]["classification"] == "unbroken"
            worst = max(worst, report["payload"]["langevin"]["oracle_mismatch"])
    verdict(6, "real spectra matching the Hermitianized Langevin operator",
            worst <= 1e-8, f"(worst mismatch {worst:.2e})")


def test_criterion_07_ito_stratonovich():
    # direct degree-D assembly vs the projected-factor construction
    worst_fp = 0.0
    for m in [multiplicative_model(BasisLayout(1, 12), alpha=0.0),
              shear_model(BasisLayout(2, 4))]:
        model = SdeModel(m.layout, m.drift, m.noise, m.theta, 0.0)
        a = seo_alpha(model)[model.dimension].dense
        b = fp_matrix_direct(m.drift, m.noise, m.theta, 0.0, m.layout).dense
        worst_fp = max(worst_fp, np.abs(a - b).max() / max(np.abs(a).max(), 1.0))
    assert worst_fp <= 1e-10

    # additive noise: the alpha-shift must not touch a single bit
    lay = BasisLayout(1, 8)
    ref = None
    bit_exact = True
    for alpha in (0.0, 0.5, 1.0):
        m = SdeModel(lay, FlowField([TrigField.sin(1, 0)]),
                     identity_frame(1), 0.5, alpha)
        dense = [b.dense for b in seo_alpha(m)]
        if ref is None:
            ref = dense
        else:
            bit_exact = bit_exact and all(
                np.array_equal(x, y) for x, y in zip(ref, dense)
            )
    assert bit_exact

    # Monte-Carlo discrimination of the two stationary laws
    theta, eps, bins = 0.5, 0.5, 64
    lay = BasisLayout(1, 12)

    def stationary(alpha):
        m = multiplicative_model(lay, theta=theta, eps=eps, alpha=alpha)
        top = seo_alpha(m)[1]
        sys = eigensolve(top)
        n = int(np.argmin(np.abs(sys.eigenvalues)))
        rho = FormVector(1, lay, sys.right[:, n].copy())
        vals = density_bin_averages(rho, bins)
        return vals / (vals.mean() * 2 * np.pi)

    # the one stepper samples each interpretation's own law
    rho = {0.0: stationary(0.0), 0.5: stationary(0.5)}
    results = {}
    for alpha, other in [(0.0, 0.5), (0.5, 0.0)]:
        m = multiplicative_model(BasisLayout(1, 4), theta=theta, eps=eps,
                                 alpha=alpha)
        rng = np.random.default_rng([77, 0])
        xs = ensemble_states(m, 100000, 0.02, 400, rng)
        hist = ensemble_density(xs, bins)
        results[alpha] = (
            l1_distance(hist, rho[alpha]), l1_distance(hist, rho[other]),
        )
    ok = all(own <= 0.05 and own < other for own, other in results.values())
    verdict(7, "alpha-interpretation consistency and MC discrimination", ok,
            f"(fp {worst_fp:.2e}, ito L1 {results[0.0][0]:.3f}, "
            f"stratonovich L1 {results[0.5][0]:.3f})")


def test_criterion_08_mc_vs_operator_evolution(tmp_path):
    doc = {"dimension": 1, "truncation": 12, "theta": 0.5,
           "flow": {"preset": "langevin-cos"}, "seed": 4}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["mc-compare", "--config", str(cfg), "--out", str(out),
                 "--t", "1.0", "--samples", "100000", "--l1-bound", "0.05"])
    report = json.loads((out / "report.json").read_text())
    l1 = report["payload"]["l1_distance"]
    verdict(8, "MC ensemble matches operator-evolved density", code == 0,
            f"(L1 {l1:.4f} at 1e5 samples)")


def test_criterion_09_kinematic_dynamo(tmp_path, abc_report):
    # operator identity
    lay = BasisLayout(3, 2)
    v = abc_field(1.0, 1.0, 1.0)
    kd = kd_operator(v, 0.1, lay)
    seo = seo_alpha(kd_model(v, 0.1, lay))
    ident = abs((kd[2].matrix - seo[2].matrix)).max()
    assert ident <= 1e-12

    # locate the window by sweeping eta and the C amplitude
    doc = {
        "dimension": 3, "truncation": DYNAMO_N, "theta": ABC_ETA,
        "flow": {"preset": "abc", "params": {"A": 1.0, "B": 1.0, "C": 1.0}},
        "tolerances": {"tol_converge": 1e-2},
        "sweep": {"theta": [0.08, 0.1], "parameter": "C", "values": [1.0, 0.0]},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    cells = {(float(r["theta"]), float(r["C"])): r["classification"]
             for r in rows}
    window_ok = cells[(ABC_ETA, 1.0)] == BROKEN_COMPLEX
    broken_real_seen = BROKEN_REAL in cells.values()

    # eigensolve vs time stepping on the window cell
    flow, blocks, payload = abc_report
    assert payload["classification"] == BROKEN_COMPLEX
    e_g = ground_energy(payload)
    layout = blocks.layout
    rng = np.random.default_rng([4, 1])
    b0 = FormVector(2, layout, rng.standard_normal(layout.size(2)) + 0j)
    for r in range(3):
        b0.coeffs[r * layout.n_modes + layout.mode_index((0, 0, 0))] = 0.0
    gamma, omega = induction_timestep_oracle(flow, ABC_ETA, b0, 0.05, 6000)
    gamma_eig, omega_eig = -e_g.real, abs(e_g.imag)
    growth_ok = abs(gamma - gamma_eig) <= 0.02 * abs(gamma_eig)
    freq_ok = abs(omega - omega_eig) <= 0.05 * omega_eig
    ok = window_ok and broken_real_seen and growth_ok and freq_ok
    verdict(9, "dynamo window, growth rate and both breaking types", ok,
            f"(gamma {gamma:.5f} vs {gamma_eig:.5f}, "
            f"omega {omega:.4f} vs {omega_eig:.4f}, cells {cells})")


def test_criterion_10_no_chaos_in_low_dimensions(tmp_path):
    labels = []
    plans = [
        (1, 8, [0.05, 0.3, 1.0], list(range(1, 13))),
        (2, 4, [0.05, 0.5, 1.0], list(range(1, 9))),
    ]
    for D, N, thetas, seeds in plans:
        doc = {
            "dimension": D, "truncation": N, "theta": thetas[0],
            "flow": {"preset": "random", "params": {"bandwidth": 1,
                                                    "amplitude": 0.5}},
            "sweep": {"theta": thetas, "parameter": "seed", "values": seeds},
        }
        cfg = tmp_path / f"sweep-{D}d.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / f"out-{D}d"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "sweep.csv", newline="", encoding="utf-8") as fh:
            labels += [r["classification"] for r in csv.DictReader(fh)]
    broken = [l for l in labels if l in (BROKEN_REAL, BROKEN_COMPLEX)]
    ok = len(labels) >= 60 and not broken and all(l == UNBROKEN for l in labels)
    verdict(10, "no broken cells among random 1-D/2-D flows", ok,
            f"({len(labels)} cells, {len(broken)} broken)")


def test_criterion_11_response_probe(abc_report):
    rng = np.random.default_rng(99)
    worst_unbroken = 0.0
    for m in pairing_suite():
        blocks = seo_alpha(m)
        systems = [eigensolve(b) for b in blocks]
        g = ground_state(systems, TOL)
        assert abs(g["energy"]) <= 1e-8
        D = m.dimension
        for _ in range(5):
            f = FlowField([TrigField.random(D, 1, rng, 0.7) for _ in range(D)])
            worst_unbroken = max(worst_unbroken, abs(response(f, g, systems)))
    _, blocks, payload = abc_report
    pair = targeted_eigenpair(
        blocks[payload["ground"]["degree"]], ground_energy(payload)
    )
    broken_vals = []
    for _ in range(5):
        f = FlowField([TrigField.random(3, 1, rng, 0.7) for _ in range(3)])
        broken_vals.append(abs(response(f, pair)))
    ok = worst_unbroken <= 1e-6 and min(broken_vals) > 1e-5
    verdict(11, "d-exact probe silent on unbroken, loud on broken states", ok,
            f"(unbroken max {worst_unbroken:.2e}, "
            f"broken min {min(broken_vals):.3f})")


def test_criterion_12_partition_growth(roberts_report):
    _, _, payload = roberts_report
    assert payload["classification"] in (BROKEN_REAL, BROKEN_COMPLEX)
    e_g = ground_energy(payload)
    slope = payload["partition"]["slope"]
    rel = abs(slope - (-e_g.real)) / abs(e_g.real)
    witten_ok = max_witten(payload) <= 1e-6
    ok = rel <= 0.05 and witten_ok
    verdict(12, "Z(t) log-slope recovers the ground-state rate", ok,
            f"(slope {slope:.5f} vs {-e_g.real:.5f}, rel {rel:.3f})")
