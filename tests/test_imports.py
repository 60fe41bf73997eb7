"""Cold start: the Monte Carlo and SISO routes never import scipy, and the
multi-user routes never import scipy.integrate.

pytest and the other tests load scipy into this process, so each check runs
in a fresh interpreter and reports what it computed as JSON; the values are
compared bit for bit with the ones this process computes.
"""

import json
import os
import subprocess
import sys

import otfslab
from otfslab import analytic, cli, engine
from otfslab.fading import PathSpec

SRC = os.path.dirname(os.path.dirname(os.path.abspath(otfslab.__file__)))

SCIPY_FREE_ROUTES = r"""
import json, sys

import otfslab, otfslab.cli
from otfslab import analytic, cli, diversity, engine
from otfslab.engine import SweepConfig
from otfslab.fading import PathSpec
from otfslab.modem import OtfsGrid

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

cfg = SweepConfig(grid=OtfsGrid(M=2, N=2), paths=(PathSpec(m=1, omega=1.0),),
                  snr_db=(0.0, 6.0), max_frames=4000, target_bit_errors=100,
                  master_seed=3)
curve = engine.run_sweep(cfg)
pair = engine.paired_comparison(cfg)
mod = analytic.mod_params("qpsk")
siso = analytic.siso_ber(10.0, (PathSpec(m=2, omega=0.5), PathSpec(m=1, omega=0.5)), mod)
gd = (diversity.empirical_gd(curve, 0.0, 6.0), diversity.siso_gd_approx((1,)))
cli.emit_csv(list(pair), sys.argv[1])
before = scipy_modules()

approx = analytic.gamma_approx(*analytic.sinr_moments(10.0, ((PathSpec(m=2, omega=0.3),),)))
multiuser = analytic.multiuser_ber(10.0, approx, mod)
semi = analytic.semi_analytic_mc_ber(10.0, ((PathSpec(m=2, omega=0.3),),), mod,
                                     otfslab.make_stream(7, 0), 20_000)
print(json.dumps({"package": otfslab.__file__, "before": before,
                  "loaded": bool(scipy_modules()),
                  "integrate": "scipy.integrate" in sys.modules,
                  "multiuser": multiuser, "semi": list(semi)}))
"""

FIGURE_3 = r"""
import json

from otfslab import cli, engine

print(json.dumps([[[p.ber, p.se, p.analytic_ber] for p in engine.run_sweep(cfg).points]
                  for cfg, _ in cli.figure_config(3, None, None, None)]))
"""


def fresh_interpreter(script: str, *args) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_monte_carlo_and_siso_routes_leave_scipy_unloaded(tmp_path):
    out = fresh_interpreter(SCIPY_FREE_ROUTES, str(tmp_path / "pair.csv"))
    assert out["package"] == otfslab.__file__
    assert out["before"] == []
    assert (tmp_path / "pair.csv").stat().st_size > 0
    # the scipy routes load it on first use and give this process's values
    assert out["loaded"]
    # the Gamma average is a trapezoid rule of its own, not scipy's quad
    assert not out["integrate"]
    mod = analytic.mod_params("qpsk")
    interferer = ((PathSpec(m=2, omega=0.3),),)
    approx = analytic.gamma_approx(*analytic.sinr_moments(10.0, interferer))
    assert out["multiuser"] == analytic.multiuser_ber(10.0, approx, mod)
    assert out["semi"] == list(analytic.semi_analytic_mc_ber(
        10.0, interferer, mod, otfslab.make_stream(7, 0), 20_000))


def test_figure_3_with_scipy_first_loaded_by_its_point_pool():
    # the semi-analytic points of figure 3 run on a thread pool, whose
    # threads are the first users of scipy.special in a fresh interpreter
    fresh = fresh_interpreter(FIGURE_3)
    here = [[[p.ber, p.se, p.analytic_ber] for p in engine.run_sweep(cfg).points]
            for cfg, _ in cli.figure_config(3, None, None, None)]
    assert fresh == here

