"""Byte-identity corpus: one sha256 per run of a fixed matrix.

Each entry runs one upper-level driver, a grid search or the ``sweep``
command on a small problem and hashes every output it gives: the final
theta and every trace field but ``wall_ms``, or the search's argmin and
table, or the sweep's table file.  A change that keeps the arithmetic keeps
every digest.  A change that moves one bit of an output moves its digest;
it updates the pin here and names the entry in CHANGES.md.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from bilevelreg import cli
from bilevelreg.data import add_noise, gen_piecewise_constant
from bilevelreg.forward import Circulant, Mask
from bilevelreg.hypergrad import (
    hypergrad_minimizer,
    hypergrad_unrolled_forward,
    hypergrad_unrolled_reverse,
)
from bilevelreg.losses import MSELoss, SureMCLoss, bind_loss
from bilevelreg.lower import HyperParams, LowerProblem, pack_theta, theta_mask
from bilevelreg.potentials import CornerRounded1Norm
from bilevelreg.signals import Grid
from bilevelreg.solvers import GDConfig
from bilevelreg.upper import (
    Constant,
    PowerLaw,
    TrainSet,
    adam_or_gd_upper,
    ba,
    grid_search,
    hoag,
    stable_run,
    ttsa,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SOLVE = GDConfig(max_iters=2_000, grad_tol=1e-8, warm_start=True)


def mask_1d():
    """Two signals on a 16-point grid with every fourth sample missing;
    two filters, fixed b0, and a learn mask that freezes the taps."""
    grid = Grid((16,))
    keep = np.ones(16)
    keep[::4] = 0.0
    A = Mask(grid, keep)
    xs = [gen_piecewise_constant(grid, 3, (0.0, 1.0), seed=10 + s) for s in range(2)]
    train = TrainSet(xs, [add_noise(x, A, 0.05, seed=20 + s)
                          for s, x in enumerate(xs)], A)
    hp = HyperParams(-1.0, [0.0, -0.5],
                     [np.array([1.0, -1.0]), np.array([0.5, 0.1, -0.6])],
                     CornerRounded1Norm(0.1))
    return hp, train, theta_mask(hp, taps=False)


def blur_2d(n_samples=2):
    """``n_samples`` 8x8 signals under a 3x3 binomial blur; three 2x2
    filters and a learnable b0, every entry of theta learned.  With three
    filters the order of the b0 entry's sum over the filters shows in its
    bits."""
    grid = Grid((8, 8))
    A = Circulant(grid, np.outer([0.25, 0.5, 0.25], [0.25, 0.5, 0.25]))
    xs = [gen_piecewise_constant(grid, 3, (0.0, 1.0), seed=40 + s)
          for s in range(n_samples)]
    train = TrainSet(xs, [add_noise(x, A, 0.05, seed=60 + s)
                          for s, x in enumerate(xs)], A)
    hp = HyperParams(-2.0, [0.1, -0.2, 0.3],
                     [np.array([[1.0, -1.0], [0.5, -0.5]]),
                      np.array([[1.0, 0.5], [-1.0, -0.5]]),
                      np.array([[0.3, -0.7], [-0.6, 1.0]])],
                     CornerRounded1Norm(0.1), learn_beta0=True)
    return hp, train, None


PROBLEMS = {"mask-1d": mask_1d, "blur-2d": blur_2d}

# every driver for three upper iterations, as (theta, trace); every lower
# step is below 2/L on both problems (2/L is 0.127 and 0.134)
DRIVERS = {
    "hoag": lambda hp, train, mask: hoag(
        hp, None, train, MSELoss(), eps_schedule=0.1, step=Constant(0.05),
        max_upper=3, solver_cfg=SOLVE, theta_rel_tol=0.0, learn_mask=mask),
    "ba": lambda hp, train, mask: ba(
        hp, None, 0.05, 0.1, 10, train, MSELoss(), max_upper=3,
        theta_rel_tol=0.0, learn_mask=mask),
    "adam-minimizer": lambda hp, train, mask: adam_or_gd_upper(
        hp, None, train, MSELoss(), engine="minimizer", optimizer="adam",
        step=0.05, max_upper=3, solver_cfg=SOLVE, theta_rel_tol=0.0,
        learn_mask=mask),
    "adam-reverse": lambda hp, train, mask: adam_or_gd_upper(
        hp, None, train, MSELoss(), engine="reverse", optimizer="adam",
        step=0.05, max_upper=3, unroll_steps=20, unroll_step=0.1,
        theta_rel_tol=0.0, learn_mask=mask),
    "gd-forward": lambda hp, train, mask: adam_or_gd_upper(
        hp, None, train, MSELoss(), engine="forward", optimizer="gd",
        step=0.05, max_upper=3, unroll_steps=20, unroll_step=0.1,
        theta_rel_tol=0.0, learn_mask=mask),
    "ttsa": lambda hp, train, mask: ttsa(
        hp, train.A.adjoint(train.y[0]), PowerLaw(0.1, 0.75),
        PowerLaw(0.1, 0.5), train, MSELoss(), batch=2, seed=0, max_iter=3,
        learn_mask=mask),
    "stable": lambda hp, train, mask: stable_run(
        hp, train.A.adjoint(train.y[0]), train, MSELoss(), step_upper=0.01,
        step_lower=0.1, tau=0.5, c_mix=10.0, mu=0.1, max_iter=3, seed=0),
}

# every hypergradient engine once, on the stack of all samples: a driver's
# update can round an ulp of its gradient away, the engine's result cannot
ENGINES = {
    "minimizer": lambda problem, losses, x0: hypergrad_minimizer(
        problem, losses, x0, SOLVE, 1e-10),
    "reverse": lambda problem, losses, x0: hypergrad_unrolled_reverse(
        problem, losses, x0, 20, 0.1),
    "forward": lambda problem, losses, x0: hypergrad_unrolled_forward(
        problem, losses, x0, 20, 0.1),
}

SEARCH_LOSSES = {
    "mse": MSELoss(),
    "sure-mc": SureMCLoss(0.05, n_probes=2, seed=3),
    "sure-mc-eps": SureMCLoss(0.05, probe_eps=1e-4, n_probes=3, seed=1),
}

GOLDEN = {
    "hoag/mask-1d":
        "0ec0529ea61b26efd81aaf4b6c95753499bb376e50b8d4324430a3e9197c75e6",
    "hoag/blur-2d":
        "0d7ab301465c8c8768aa648d9d3ebe49c2ed728079d10a7efeb205e83ae26239",
    "ba/mask-1d":
        "1efbf5052f522139e17baab0a5898dca4799f831cfcd75af319734a60447744a",
    "ba/blur-2d":
        "bbaefd0287f6c35d81091f51b15aea6e15661e7bb27f41f34fa59071e9bf7447",
    "adam-minimizer/mask-1d":
        "ba1591e88ec3f89510ac51a33d595700be2eb439ae4d339779fb11a478b51290",
    "adam-minimizer/blur-2d":
        "9b2ba738b7b23da6285d0eba07192090e50a86b03a1145b8b22419f4e7a78992",
    "adam-reverse/mask-1d":
        "303f861e27c56d4cf49e946e7ac03ad415b341aeb3c8e5fa6d3f6bee0807735b",
    "adam-reverse/blur-2d":
        "ec5fad8a377421dbb04e9d5dc24a251a6cdb071684041b8cbe3afd3726ac0e19",
    "gd-forward/mask-1d":
        "fb05527a55cbf8da234cd95aebfb30023f92d57090dad2c2043d450b8548d335",
    "gd-forward/blur-2d":
        "22f2ac5702f51f0c14f25870b8ebdee54eee515b5de88e30820808dfce76d990",
    "ttsa/mask-1d":
        "f7a5bd6693c541a7cf62d2d1e0df3bff32f7870092858e22384d42415ec4d546",
    "ttsa/blur-2d":
        "1626abc78eecec7644351273d9a00e4cabe471526c70e37b0621fa6cb9c04337",
    "ttsa-batch3/blur-2d-4":
        "b197940ee5b247c9fd471679ca9c8e8a0354610a3ac57213beee9d64eae858ba",
    "stable/mask-1d":
        "47dee6906f082e9e9c9e5f738bc1b48653f024bbfc2923b1cdf7ad69ddc5a105",
    "stable/blur-2d":
        "785537c6f22dca4e3264ba5c88da5f7963408e91b11a76b33c42f0a0c8749d9c",
    "engine-minimizer/mask-1d":
        "0f8c40ea7d5c6d1093c4ba6f399750d18ec4a8256a7546f7b0b9b04f4adfb093",
    "engine-minimizer/blur-2d":
        "03fe8f2b7de17cce40a64156aa943f67623e796a9796d429360766c08b5da737",
    "engine-reverse/mask-1d":
        "65df61fbe58a7087628b18a5db56435e1f0496a54eab4f6cafcaf05e425f7a8e",
    "engine-reverse/blur-2d":
        "e6e94bddc1c82c983d636fc1a8e0cdb7823bac0e37d79c0c9f42195a46dbad13",
    "engine-forward/mask-1d":
        "5661acae0e4a383c0d5cb750b022b8964875e989a6d5003f31f787c9ffe89c91",
    "engine-forward/blur-2d":
        "f75ade44499f3150c21291797526b2eb14afe802340f4bde7bd735d7fced133b",
    "grid_search-mse/mask-1d":
        "ebbc859d131d289adfeaf00a6b67b17babc6b0fa3e826c9f8961c9ff71437c18",
    "grid_search-mse/blur-2d":
        "b343f90dfd3954b9927e2dc40a3b312eb41dd4705053fe39f23ff283f9fcf28d",
    "grid_search-sure-mc/mask-1d":
        "e02826130c0fb33f57ead9da282f6d6c90adfef45f681520c6981b935f3b286e",
    "grid_search-sure-mc/blur-2d":
        "c1459e47597606d9cad771c4624f9480611c27f75b5f054372f474e890825e8a",
    "grid_search-sure-mc-eps/mask-1d":
        "7b06a1d5537736ac8607fd8416f721a869f856cb7f3542c4f3c645b67a62a55d",
    "grid_search-sure-mc-eps/blur-2d":
        "68fec7e543602eca9e19e713285c54af6eee913337d7fb0a8ba10eb680669251",
    "sweep/mse":
        "4b38d4825dc034e3232a36c8f753330f59063cbee7269d6175b3c4875b598046",
    "sweep/sure-mc":
        "f63229a50c02e89abe6478f9b6572be02a91d09577008cd8157227b3037e1008",
}


def driver_digest(driver, problem):
    return run_digest(*DRIVERS[driver](*PROBLEMS[problem]()))


def run_digest(theta, trace):
    h = hashlib.sha256(pack_theta(theta).tobytes())
    for r in trace.records:
        h.update(repr((r.iteration, float(r.loss), float(r.grad_norm), r.lower_iters,
                       sorted((k, float(v)) for k, v in r.extra.items()))).encode())
        h.update(r.theta.tobytes())
    return h.hexdigest()


def engine_digest(engine, problem):
    hp, train, _ = PROBLEMS[problem]()
    Y = np.stack(train.y)
    losses = [bind_loss(MSELoss(), y, train.A, x_true)
              for x_true, y in zip(train.x_true, train.y)]
    res = ENGINES[engine](LowerProblem(train.A, Y, hp), losses, train.A.adjoint(Y))
    residuals = None if res.cg_residual is None else [float(r) for r in res.cg_residual]
    h = hashlib.sha256(res.grad.tobytes())
    h.update(res.x_final.tobytes())
    h.update(repr((res.lower_iters, residuals, res.warning)).encode())
    return h.hexdigest()


def search_digest(loss, problem):
    hp, train, _ = PROBLEMS[problem]()
    best_and_table = grid_search([-3.0, -1.5, 0.0], hp, train, SEARCH_LOSSES[loss],
                                 SOLVE)
    return hashlib.sha256(repr(best_and_table).encode()).hexdigest()


def sweep_digest(loss, tmp_path):
    doc = json.loads((CONFIGS / "sweep.json").read_text())
    if loss == "sure-mc":
        doc["loss"] = {"kind": "sure-mc", "sigma": 0.1, "n_probes": 2}
    table = tmp_path / "sweep.csv"
    doc["output"] = {"table": str(table)}
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(doc))
    assert cli.main(["sweep", "--config", str(config)]) == 0
    return hashlib.sha256(table.read_bytes()).hexdigest()


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_driver_bytes(driver, problem):
    assert driver_digest(driver, problem) == GOLDEN[f"{driver}/{problem}"]


def test_ttsa_batch_of_three_bytes():
    # four samples, three per batch: the lower gradient's batch mean adds
    # three rows, whose order shows in the bits, where two add alike either
    # way (the Hessian and Jacobian do not depend on y, so neither can show)
    hp, train, _ = blur_2d(n_samples=4)
    run = ttsa(hp, train.A.adjoint(train.y[0]), PowerLaw(0.1, 0.75),
               PowerLaw(0.1, 0.5), train, MSELoss(), batch=3, seed=0, max_iter=3)
    assert run_digest(*run) == GOLDEN["ttsa-batch3/blur-2d-4"]


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_engine_bytes(engine, problem):
    assert engine_digest(engine, problem) == GOLDEN[f"engine-{engine}/{problem}"]


@pytest.mark.parametrize("problem", sorted(PROBLEMS))
@pytest.mark.parametrize("loss", sorted(SEARCH_LOSSES))
def test_grid_search_bytes(loss, problem):
    assert search_digest(loss, problem) == GOLDEN[f"grid_search-{loss}/{problem}"]


@pytest.mark.parametrize("loss", ["mse", "sure-mc"])
def test_sweep_bytes(loss, tmp_path):
    assert sweep_digest(loss, tmp_path) == GOLDEN[f"sweep/{loss}"]
