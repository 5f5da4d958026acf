"""Seeded draws are pinned by the sha256 of their canonical JSON.

The digests cover the generators, ``model.direct_sum`` and the block
placement both rely on (``linalg.place``, ``filtrations.filtration_sum``):
a change to any of them must keep every draw byte-identical.
"""

import hashlib
import itertools
import random

import pytest

from loghodge.generate import (
    random_imhs_model,
    random_pure_model,
    random_spectral_model,
)
from loghodge.model import (
    canonical_json,
    direct_sum,
    imhs_check,
    model_from_json,
    model_to_json,
    validate,
)

GENERATORS = {"pure": random_pure_model, "imhs": random_imhs_model,
              "spectral": random_spectral_model}

# (generator, branches, seed) -> digest; pure3-3 is the 2x2x2 Jordan tensor
DRAWS = {
    ("pure", 3, 3): "283068aa958ba2a4593e6101510ba6ac4cf1121744a6dfb2d32aa0105e52cdb4",
    ("pure", 3, 72): "5abb63dc43c6fc0a0e6da210b88158c34244c864df2e96242845604ceae9099f",
    ("pure", 2, 5): "3696ad0f894bf70ad386c74528c1c41a9b87f2bcce328bcd84db6af609fe94d2",
    ("imhs", 3, 2): "375c695fead719dc803018e3ebe3cb7f474c125fd43884520ef0a94567f2d581",
    ("imhs", 3, 16): "e895d22ed52f69e2586036492ddb919178c9a2717f44310769f828af0e83de98",
    ("imhs", 2, 9): "588b37964355df3159743609df6f39bf7ed26c0d6bda058898e941c88bac62ac",
    ("imhs", 1, 13): "5e2c0d94763049260d0bde7445a8ffc4d7f3d44e05f6e3c80aea117e3f4520b5",
    ("spectral", 1, 0): "73e0ccb6ffc5595c5e20a1d2637aa480f43895b893936779283e8601b2a1b7dd",
    ("spectral", 2, 5): "3e08af72f5f98a02bfb76f5132d694a469871b61624af2ca8e77b9d7d7e13131",
    ("spectral", 3, 1): "6f8db276e9ac74eec5e9ee914a67d76d2b22345f989d1c233d11f0bf087b1b10",
}

# (branches, seed of a, seed of b) -> digest of the direct sum of two spectral
# draws; in each, a component of b merges into a component of a other than
# the first, so b's coordinates do not sit in one consecutive block
SPECTRAL_SUMS = {
    (1, 0, 19): "9e651aeff92b3462b8a30e8082c89b59de9f56b129b9af0b56011f5dfa7a62f3",
    (1, 5, 7): "658f2825744c12ee48be2b332f11d77059287c36cbb76dd6111785aee7928eef",
    (2, 0, 19): "a0b1e33fd610453766dd8d0e9f99ea99ef92dfccec27f8a3d288b9393fe87a2a",
    (2, 5, 23): "4e7212e071eefb62f21210222126bf21f04e179fd104f4b2ff2d41939e91dd92",
}

# two components carrying F and S: its sum with itself places the first
# summand at coordinates 0, 1, 4 and the second at 2, 3, 5, so W, F and S are
# all placed at non-consecutive positions
TWO_COMPONENTS = {
    "branches": 1, "base_weight": 1, "perverse_shift": 1,
    "components": [{"alpha": ["0"], "dim": 2, "N": [[["0", "1"], ["0", "0"]]]},
                   {"alpha": ["1/2"], "dim": 1, "N": [[["0"]]]}],
    "W": [{"weight": 0, "basis": [["0", "0", "1"]]},
          {"weight": 1, "basis": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}],
    "F": [{"p": 1, "basis": [["1*i", "1", "0"], ["0", "0", "1"]]},
          {"p": 2, "basis": [["0", "0", "1"]]}, {"p": 3, "basis": []}],
    "S": {"matrix": [["0", "1", "0"], ["-1", "0", "0"], ["0", "0", "1"]],
          "parity": 1},
}
TWO_COMPONENTS_SUM = "2b7f0215f95138cfc5aabf4446316bad71bf4724e39ea851917451f67ffbf210"

# every pure, imhs and spectral draw at n = 0..3, seeds 0-49, then the
# corpus's imhs draw at each (n, seed), hashed as one stream of canonical JSON
WIDE_DRAWS = "5f1136ea67ebb4b3b8f121673fbb88e05cc863f8eb3dd130849852123ff6d338"


def _digest(model) -> str:
    return hashlib.sha256(canonical_json(model_to_json(model)).encode()).hexdigest()


@pytest.mark.parametrize("gen,n,seed", sorted(DRAWS))
def test_seeded_draws_keep_their_bytes(gen, n, seed):
    model = GENERATORS[gen](n, random.Random(seed))
    assert _digest(model) == DRAWS[(gen, n, seed)]


@pytest.mark.parametrize("n,seed_a,seed_b", sorted(SPECTRAL_SUMS))
def test_spectral_sums_keep_their_bytes(n, seed_a, seed_b):
    a = random_spectral_model(n, random.Random(seed_a))
    b = random_spectral_model(n, random.Random(seed_b))
    alphas = [c.alpha for c in a.components]
    assert any(alphas.index(c.alpha) > 0
               for c in b.components if c.alpha in alphas)
    assert _digest(direct_sum(a, b)) == SPECTRAL_SUMS[(n, seed_a, seed_b)]


def test_sum_with_hodge_and_pairing_keeps_its_bytes():
    m = model_from_json(TWO_COMPONENTS)
    doubled = direct_sum(m, m)
    assert [c.dim for c in doubled.components] == [4, 2]
    assert _digest(doubled) == TWO_COMPONENTS_SUM


@pytest.mark.parametrize("gen", ["pure", "imhs"])
def test_zero_branch_draws_pass_validate_and_imhs(gen):
    # with no branch there is no Jordan string to draw; a string that no
    # branch carries left most of these draws failing validate
    for seed in range(30):
        model = GENERATORS[gen](0, random.Random(seed))
        assert model.branches == 0
        assert validate(model).passed, seed
        assert imhs_check(model).passed, seed


def test_wide_draws_keep_their_bytes():
    cases = list(itertools.product(range(4), range(50)))
    draws = [GENERATORS[gen](n, random.Random(seed))
             for n, seed in cases for gen in ("pure", "imhs", "spectral")]
    draws += [random_imhs_model(n, random.Random(seed), with_pairing=False,
                                max_dim=5, max_blocks=2) for n, seed in cases]
    h = hashlib.sha256()
    for model in draws:
        h.update(canonical_json(model_to_json(model)).encode())
    assert h.hexdigest() == WIDE_DRAWS
