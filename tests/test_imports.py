"""Importing and running funcnet loads no scipy: numpy is its only runtime
dependency."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import sys

import numpy as np

import funcnet
from funcnet import cli, fbnn, fdnn, training
from funcnet.baselines import fflm_fit, fflm_tune_lambda, vnn_init


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


out = sys.argv[1]
data = funcnet.generate("linear", n=24, m=9, m_y=7, seed=1)
cfg = training.TrainConfig(max_iterations=3)
nets = [
    fdnn.init(fdnn.FdnnConfig(9, 7, 1, (2,), (6,)), seed=2),
    fbnn.init(fbnn.FbnnConfig(9, 7, 1, (2,), (6,), 5, 5, 5), seed=3),
    vnn_init(1, 9, 7, (4,), seed=4),
]
for net in nets:
    training.train_fixed(net, data.x, data.y, 3, cfg)
    assert np.isfinite(net.predict(data.x)).all()
assert cli.main(["simulate", "--n", "12", "--m", "9", "--m-y", "7",
                 "--out", out + "/sim"]) == 0

# the closed-form linear fit and every roughness penalty
model = fflm_fit(data, 5, 5, 5, lam=1e-3)
assert np.isfinite(model.predict(data.x)).all()
assert fflm_tune_lambda(data, [0.0, 1e-2], k=2, num_intercept_basis=5,
                        num_pred_basis=5, num_resp_basis=5) in (0.0, 1e-2)
training.train_fixed(nets[1], data.x, data.y, 3, cfg.replace(lam_b=1e-2, lam_w=1e-2))
assert np.isfinite(nets[1].predict(data.x)).all()
assert cli.main(["gradcheck", "--out", out + "/gc"]) == 0
assert cli.main(["benchmark", "--models", "fflm,fdnn,fbnn,vnn", "--replicates", "1",
                 "--n", "30", "--m", "9", "--m-y", "7", "--neurons", "2",
                 "--grid-points", "6", "--hidden", "4", "--num-basis", "5",
                 "--max-iterations", "3", "--out", out + "/bench"]) == 0
assert not scipy_modules(), scipy_modules()[:5]
print("ok")
"""


def test_import_and_networks_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
