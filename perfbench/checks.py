"""Output checks and the two accuracy guards, all run outside timed ops.

* :func:`same_outcome` -- a scenario the benchmark timed against a fresh
  per-scenario :func:`repro.studies.simulate_scenario` of the same input:
  identical verdicts, waveform and spectra within a relative tolerance.
* :func:`spectrum_gap_db` -- FD vs transient port spectra at the bins a
  limit mask scores (in the 10 MHz - 2 GHz band, within 40 dB of the
  peak), the rule ``tests/circuit/test_fd_vs_transient.py`` applies.
* :func:`port_nrmse_pct` -- the paper's accuracy figure: the MD2 PW-RBF
  far-end voltage of the first Fig. 2 line against the transistor-level
  ``ref_fe`` stored in ``tests/experiments/golden/fig2_panel1.npz``.
* :func:`fd_error_db` -- median FD-vs-transient spectral gap over a fixed
  sample of Monte Carlo draws (fixed seed: it guards the FD backend's
  accuracy and must repeat exactly from run to run).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

#: documented cross-backend tolerance at mask-relevant bins (dB)
FD_TOL_DB = 6.0
#: batched-vs-serial tolerance, relative to each record's peak
REL_TOL = 1e-6
#: seed and size of the fixed Monte Carlo sample behind fd_error_db
FD_SAMPLE_SEED = 2002
FD_SAMPLE_DRAWS = 4


def _close(a, b, rel: float) -> bool:
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    if a.shape != b.shape:
        return False
    scale = max(float(np.max(np.abs(b))) if b.size else 0.0, 1e-30)
    return bool(np.all(np.abs(a - b) <= rel * scale))


def same_outcome(got, ref, rel: float = REL_TOL) -> str | None:
    """``None`` when ``got`` matches the reference outcome ``ref``,
    else a one-line reason."""
    name = got.scenario.resolved_name()
    if not (got.ok and ref.ok):
        return f"{name}: failed ({got.error or ref.error})"
    if got.passed != ref.passed:
        return f"{name}: verdict {got.passed} != {ref.passed}"
    if {k: v.passed for k, v in got.verdicts_by.items()} != \
            {k: v.passed for k, v in ref.verdicts_by.items()}:
        return f"{name}: per-detector verdicts differ"
    if not _close(got.v_port, ref.v_port, rel):
        return f"{name}: port waveform differs beyond {rel:g}"
    if set(got.spectra) != set(ref.spectra):
        return f"{name}: spectrum keys differ"
    for key, spec in got.spectra.items():
        if not _close(spec.mag, ref.spectra[key].mag, rel):
            return f"{name}: {key} envelope differs beyond {rel:g}"
    return None


def spectrum_gap_db(fd_out, tr_out) -> np.ndarray:
    """|FD - transient| in dB at the mask-relevant bins of the port
    spectrum (empty array when the grids differ)."""
    s_fd = fd_out.spectra["v_port"]
    s_tr = tr_out.spectra["v_port"]
    if s_fd.f.shape != s_tr.f.shape:
        return np.empty(0)
    db_fd, db_tr = s_fd.db(), s_tr.db()
    band = (s_tr.f >= 10e6) & (s_tr.f <= 2e9)
    rel = band & (db_tr > db_tr[band].max() - 40.0)
    return np.abs(db_fd[rel] - db_tr[rel])


def fd_matches_transient(fd_out, model) -> str | None:
    """``None`` when an FD outcome tracks a transient re-simulation of
    the same scenario within :data:`FD_TOL_DB`, else a reason."""
    from repro.studies import simulate_scenario
    name = fd_out.scenario.resolved_name()
    tr_out = simulate_scenario(fd_out.scenario, model)
    if not (fd_out.ok and tr_out.ok):
        return f"{name}: failed ({fd_out.error or tr_out.error})"
    gap = spectrum_gap_db(fd_out, tr_out)
    if gap.size < 5:
        return f"{name}: only {gap.size} comparable bins"
    if float(gap.max()) >= FD_TOL_DB:
        return f"{name}: FD off transient by {gap.max():.2f} dB"
    return None


def port_nrmse_pct(root: Path, model) -> float:
    """NRMSE (%) of the PW-RBF far-end voltage vs the golden reference."""
    from repro.circuit import (Capacitor, Circuit, IdealLine,
                               TransientOptions, run_transient)
    from repro.emc import nrmse
    from repro.experiments.setups import FIG2, TS
    from repro.models import PWRBFDriverElement

    golden = np.load(root / "tests" / "experiments" / "golden"
                     / "fig2_panel1.npz")
    z0, td = FIG2.lines[0]
    ckt = Circuit("mm")
    ckt.add(PWRBFDriverElement.for_pattern("dut", "out", model,
                                           FIG2.pattern, FIG2.bit_time,
                                           FIG2.t_stop))
    ckt.add(IdealLine("tline", "out", "fe", z0, td))
    ckt.add(Capacitor("cload", "fe", "0", FIG2.c_load))
    res = run_transient(ckt, TransientOptions(dt=TS, t_stop=FIG2.t_stop,
                                              method="damped", ic="dcop"))
    return 100.0 * nrmse(res.v("fe"), golden["ref_fe"])


def fd_error_db(model, make_study) -> float:
    """Median FD-vs-transient gap (dB) over the fixed draw sample.

    ``make_study(seed, n_draws)`` builds the Monte Carlo study of the
    ``montecarlo_fd`` workload.
    """
    from repro.studies import simulate_scenario
    study = make_study(FD_SAMPLE_SEED, FD_SAMPLE_DRAWS)
    gaps = []
    for sc in study.scenarios():
        gaps.append(spectrum_gap_db(simulate_scenario(sc, model,
                                                      backend="fd"),
                                    simulate_scenario(sc, model)))
    return float(np.median(np.concatenate(gaps)))
