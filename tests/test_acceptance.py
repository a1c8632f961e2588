"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured values (run with -s or -rA to see them).

Statistical criteria use fixed seeds; tolerances are stated inline next to
each assertion.
"""

import json
import time
from pathlib import Path

import numpy as np

from cvteleport.cli import main, verify_manifest
from cvteleport.fock import (
    classical_noise_channel,
    coherent_density,
    oracle_fidelity,
    teleported_coherent_oracle,
)
from cvteleport.gaussian import (
    GaussianState,
    coherent_vs_gaussian_fidelity,
    from_db,
    make_vacuum,
    quad_statistics,
    to_db,
)
from cvteleport.teleporter import (
    Regime,
    TeleporterConfig,
    analytic_noise_budget,
    fidelity_from_variances,
    intrinsic_from_raw,
    run_teleport,
)
from cvteleport.timetrace import (
    SldSourceSpec,
    adjacent_mode_correlation,
    extract_modes,
    synth_random_coherent,
    variance_se_db,
    TimeTrace,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
QUANTUM_CFG = str(CONFIGS / "reference_quantum.cfg")
CLASSICAL_CFG = str(CONFIGS / "reference_classical.cfg")

REFERENCE = dict(n_sq=0.178, eta_bell=0.9, eta_meas=0.9)


def announce(number, ok, detail):
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_analytic_noise_budget():
    quantum = analytic_noise_budget(TeleporterConfig(**REFERENCE))
    classical = analytic_noise_budget(
        TeleporterConfig(**REFERENCE, regime=Regime.CLASSICAL))
    start = time.perf_counter()
    for _ in range(100):
        analytic_noise_budget(TeleporterConfig(**REFERENCE))
    per_call = (time.perf_counter() - start) / 100
    ok = (abs(quantum.n_out_db - 1.82) <= 0.005
          and abs(quantum.n_out - 1.52) <= 0.005
          and abs(classical.n_out_db - 4.77) <= 0.005
          and abs(classical.n_out - 3.00) <= 1e-9
          and per_call < 1e-3)
    announce(1, ok, f"budget {quantum.n_out:.4f} ({quantum.n_out_db:+.4f} dB) "
                    f"quantum, {classical.n_out:.4f} "
                    f"({classical.n_out_db:+.4f} dB) classical, "
                    f"{per_call * 1e6:.0f} us/call")


def test_criterion_02_circuit_matches_analytic():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        cfg = TeleporterConfig(n_sq=float(rng.uniform(0.1, 1.0)),
                               eta_bell=float(rng.uniform(0.1, 1.0)),
                               eta_meas=float(rng.uniform(0.1, 1.0)),
                               ff_gain_db=60.0)
        out = run_teleport(cfg, make_vacuum(1))
        ref = analytic_noise_budget(cfg).n_out
        _, _, vx, vp = quad_statistics(out, 0)
        worst = max(worst, abs(vx - ref) / ref, abs(vp - ref) / ref)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and elapsed < 1.0
    announce(2, ok, f"worst circuit-vs-analytic relative error {worst:.2e} "
                    f"over 20 random configs in {elapsed:.2f} s")


def test_criterion_03_fidelity_anchors():
    exact_half = fidelity_from_variances(3.0, 3.0)
    exact_two_thirds = fidelity_from_variances(2.0, 2.0)
    raw = fidelity_from_variances(from_db(1.77), from_db(1.73))
    intrinsic = fidelity_from_variances(from_db(1.93), from_db(1.88))
    wavepacket = fidelity_from_variances(from_db(1.92), from_db(2.16))
    ok = (exact_half == 0.5
          and abs(exact_two_thirds - 2 / 3) < 1e-15
          and abs(raw - 0.801) <= 1e-3
          and abs(intrinsic - 0.784) <= 1e-3
          and abs(wavepacket - 0.770) <= 1e-3)
    announce(3, ok, f"F(3,3)={exact_half}, F(2,2)={exact_two_thirds:.15f}, "
                    f"raw {raw:.4f}, intrinsic {intrinsic:.4f}, "
                    f"wavepacket {wavepacket:.4f}")


def test_criterion_04_loss_correction_regression():
    pairs = [(1.77, 1.93), (1.73, 1.88), (4.74, 5.05), (4.58, 4.88)]
    results = []
    ok = True
    for raw_db, expected_db in pairs:
        got = to_db(intrinsic_from_raw(from_db(raw_db), 0.9))
        results.append(f"{raw_db}->{got:.3f}")
        ok = ok and abs(got - expected_db) <= 0.01
    announce(4, ok, "intrinsic dB map " + ", ".join(results))


def test_criterion_05_spectral_pipeline(tmp_path):
    start = time.perf_counter()
    f_ints, raw_gaps = [], []
    for seed in range(10):
        out = tmp_path / f"s{seed}"
        rc = main(["spectrum", QUANTUM_CFG, "--seed", str(seed),
                   "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        plateau = report["plateau_model_db"]
        raw_gaps.append(max(abs(report["vx_raw_db"] - plateau),
                            abs(report["vp_raw_db"] - plateau)))
        f_ints.append(report["f_int"])
    elapsed = time.perf_counter() - start
    ok = (max(raw_gaps) <= 0.02
          and all(abs(f - 0.784) <= 0.005 for f in f_ints)
          and elapsed < 5.0)
    announce(5, ok, f"10 seeds: worst plateau gap {max(raw_gaps):.4f} dB, "
                    f"F_int in [{min(f_ints):.4f}, {max(f_ints):.4f}], "
                    f"{elapsed:.2f} s")


def test_criterion_06_time_domain_pipeline(tmp_path):
    start = time.perf_counter()
    analytic_int_db = to_db(intrinsic_from_raw(
        analytic_noise_budget(TeleporterConfig(**REFERENCE)).n_out, 0.9))
    f_int_primary = None
    margins = []
    ok = True
    for seed in (1, 2, 3):
        q_out = tmp_path / f"q{seed}"
        c_out = tmp_path / f"c{seed}"
        assert main(["timetrace", QUANTUM_CFG, "--seed", str(seed),
                     "--out-dir", str(q_out)]) == 0
        assert main(["timetrace", CLASSICAL_CFG, "--seed", str(seed),
                     "--out-dir", str(c_out)]) == 0
        q = json.loads((q_out / "report.json").read_text())
        c = json.loads((c_out / "report.json").read_text())
        assert q["n_traces"] == 128 and q["n_modes"] >= 128 * 80
        within = (abs(q["vx_int_db"] - analytic_int_db) <= 3 * q["se_db"]
                  and abs(q["vp_int_db"] - analytic_int_db) <= 3 * q["se_db"])
        in_band = 0.76 <= q["f_int"] <= 0.78
        beats = q["f_raw"] > c["f_raw"]
        margins.append(q["f_raw"] - c["f_raw"])
        ok = ok and within and in_band and beats
        if f_int_primary is None:
            f_int_primary = q["f_int"]
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    announce(6, ok, f"F_int {f_int_primary:.4f} (analytic intrinsic "
                    f"{analytic_int_db:+.3f} dB), quantum-classical raw "
                    f"fidelity margin >= {min(margins):.3f} on 3 seeds, "
                    f"{elapsed:.1f} s")


def test_criterion_07_error_bar_formula():
    se = variance_se_db(10_480)
    ok = abs(se - 0.060) <= 0.002
    announce(7, ok, f"se_db(10480 modes) = {se:.4f} dB")


def test_criterion_08_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for v in (1.2, 2.0, 3.0):
        rho = coherent_density(0.0, 25)
        out = classical_noise_channel(rho, (v - 1.0) * np.eye(2),
                                      grid_points=61)
        for dx in (0.0, 0.5, 1.0):
            oracle = oracle_fidelity(out, dx / 2.0)
            state = GaussianState(1, np.zeros(2), v * np.eye(2))
            formula = coherent_vs_gaussian_fidelity([dx, 0.0], state)
            worst = max(worst, abs(oracle - formula))
    f_classical = teleported_coherent_oracle(0.0, 2.0, dim=25, grid_points=61)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-3 and abs(f_classical - 0.5) < 1e-3 and elapsed < 60.0
    announce(8, ok, f"worst oracle-vs-formula gap {worst:.2e} on the 3x3 "
                    f"grid, classical-limit channel F = {f_classical:.5f}, "
                    f"{elapsed:.1f} s")


def test_criterion_09_mode_independence():
    spec = SldSourceSpec(baseband_bandwidth_ghz=16.0, filter_shape="gaussian",
                         ensemble_var_shot=29.0)
    tracks = synth_random_coherent(spec, 500.0, seed=9)
    trace = TimeTrace(x_samples=tracks.mean_x, p_samples=tracks.mean_p,
                      input_mean_x=tracks.mean_x, input_mean_p=tracks.mean_p)
    wide = extract_modes(trace, 42.0)
    narrow = extract_modes(trace, 10.0)
    rho_wide = float(np.mean(np.abs(adjacent_mode_correlation(wide))))
    rho_narrow = float(np.mean(np.abs(adjacent_mode_correlation(narrow))))
    ok = wide.n_modes >= 10_000 and rho_wide < 0.05 and rho_narrow > 0.2
    announce(9, ok, f"adjacent-mode |rho| = {rho_wide:.4f} at 42 ps "
                    f"({wide.n_modes} modes) vs {rho_narrow:.3f} at 10 ps")


def test_criterion_10_reproducibility(tmp_path):
    byte_identical = True
    manifests_ok = True
    for seed, cmd, files in [
        (11, "spectrum", ["spectrum.csv", "report.json"]),
        (12, "timetrace", ["report.json", "traces/x.npy", "traces/p.npy",
                           "traces/inputs.npy", "modes/x.npy", "modes/p.npy",
                           "modes/inputs.npy"]),
    ]:
        dirs = []
        for run in "ab":
            out = tmp_path / f"{cmd}-{run}"
            args = [cmd, QUANTUM_CFG, "--seed", str(seed),
                    "--out-dir", str(out)]
            if cmd == "timetrace":
                args += ["--traces", "4"]
            assert main(args) == 0
            manifests_ok = manifests_ok and verify_manifest(out)
            dirs.append(out)
        for name in files:
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                byte_identical = False
    ok = byte_identical and manifests_ok
    announce(10, ok, f"byte-identical outputs: {byte_identical}, "
                     f"manifest digests verify: {manifests_ok}")
