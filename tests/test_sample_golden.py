"""Golden sampling digests: how instances are assembled must not change what
``sample_surface_code`` returns.

Each digest is the sha256 over 40 trials of the sample's fields (as sorted
JSON) followed by ``graph.serialize()``, for one distance, winding model and
physical error rate.  The digests were taken from the sampler that built a
fresh ``DefectEdge`` per pair and intersected frozenset supports.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from wplzx.masd.surface import WindingModel, build_code, sample_surface_code

SEED = 20261018
TRIALS = 40

# (distance, winding, p_phys) -> sha256 hex digest
EXPECTED = {
    (3, "uniform", 0.05): "1d383a98d25135cf3bb003b5c95d183dcb2025bfdb068d27d66b48bce7225c5c",
    (3, "uniform", 0.15): "0883bded1087f364b0fb17ebda6d72cc6f1004b5576e8e6dee1132f4c5546e36",
    (3, "two-sector", 0.05): "31023de6ebf3446cc5eacf407b743645cfb1561aefbba67406f1e34647b218b8",
    (3, "two-sector", 0.15): "c57847b0b7743786772c02d877498560c2b42cd935751535b417dfcbccc031bc",
    (3, "constant", 0.05): "641447af866109d7e3ca0e5ff5175bf29e9b88b9d77fd8aa4b53d2b9ce1510bb",
    (3, "constant", 0.15): "3ee80b5ba6d5a23ad1162ccb3e9294f5be26f094484e7c5bf6a18488b0efbfa2",
    (5, "uniform", 0.05): "fd7647785fdcadc9ee3d0aa2d9e63097252927224dc208a9d43cf24394f4013c",
    (5, "uniform", 0.15): "702e9547fb702ed19bd8bfbac22840ceb9c3e3af21c63a864fbfee10acde21fe",
    (5, "two-sector", 0.05): "4c13e114d134828ad001a21a33fb7b29aae981933eaa73aff7f2b0c599876070",
    (5, "two-sector", 0.15): "8123b2ad947bfc3a22f953c1f0af78050c1657aca7c5c462adf1c6f47bae120d",
    (5, "constant", 0.05): "fdd5bb5f0b90a9061ec764a1135113ce8aae9b19df4ce528ded1cfd522880782",
    (5, "constant", 0.15): "5a1722def0b005e178ce7c964b65a21a118d1e58bed6960c2640b962c191a439",
    (7, "uniform", 0.05): "37feca24219a69b0ca36020d49e15b1e1f7d876c797595d144d735ad0e2885fd",
    (7, "uniform", 0.15): "7057740afdbda66852b2d3373b301cec8df7c71ae798aba956f86ddc8866fefb",
    (7, "two-sector", 0.05): "1d6e5925277e371cccdb6e0a9c15097851284d7b56063e56992a4b4e7e5b272c",
    (7, "two-sector", 0.15): "4141d3b874881cb083ae491b0116022edb30c4532789c67098496f32935c2c7d",
    (7, "constant", 0.05): "e5dbdc41e7d79034e95663105b2873ce2cecb0cf771b07a0a58e77f034b57c17",
    (7, "constant", 0.15): "74579e874985c35177dd7e36507cd56048f40c514a485a254435ae2a72ecf4f0",
}


def _digest(distance: int, kind: str, p_phys: float) -> str:
    code = build_code(distance)
    model = WindingModel(kind=kind)
    h = hashlib.sha256()
    for t in range(TRIALS):
        sample, graph = sample_surface_code(distance, p_phys, SEED, trial=t, winding=model, code=code)
        h.update(json.dumps(dataclasses.asdict(sample), sort_keys=True).encode())
        h.update(b"\n")
        h.update(graph.serialize().encode())
    return h.hexdigest()


@pytest.mark.parametrize("distance, kind, p_phys", sorted(EXPECTED))
def test_sampling_matches_golden_digest(distance, kind, p_phys):
    assert _digest(distance, kind, p_phys) == EXPECTED[(distance, kind, p_phys)]
