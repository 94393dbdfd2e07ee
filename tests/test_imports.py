"""What importing and running funcnet loads: numpy only, until a closed-form
linear fit or a basis-network penalty needs scipy."""

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
from funcnet.baselines import fflm_fit, vnn_init


def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")


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
                 "--out", sys.argv[1]]) == 0
assert not scipy_modules(), scipy_modules()[:5]

# the two paths that need scipy still work, and load it
model = fflm_fit(data, 5, 5, 5)
assert np.isfinite(model.predict(data.x)).all()
assert "scipy.linalg" in sys.modules
value, grads = nets[1].penalty(1.0, 1.0)
assert value > 0 and all(np.isfinite(g).all() for g in grads)
assert "scipy.interpolate" in sys.modules
print("ok")
"""


def test_import_and_networks_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "sim")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "ok"
