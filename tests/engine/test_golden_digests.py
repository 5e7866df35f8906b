"""Pinned image and statistics digests for every renderer and boundary method.

Each case renders one frame and hashes two things: the image bytes and
the canonical JSON of ``protocol.encode_stats`` (every counter, including
``per_tile_alpha``).  The digests were captured before the exact-ellipse
test was rewritten as written-out products and before the bitmask
kernel's slot enumeration changed, so any kernel change that moves a
single hit, pixel or counter fails here, whatever the reference path
says.

The small scenes render through both the sequential renderer and the
engine; the two bench scenes (playroom and train at 0.125) through the
engine only, which keeps the file within tier-1's budget.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.hierarchical import HierarchicalGSTGRenderer
from repro.core.pipeline import GSTGRenderer
from repro.engine import RenderEngine
from repro.gaussians.camera import Camera
from repro.raster.renderer import BaselineRenderer
from repro.scenes.synthetic import load_scene
from repro.serve.protocol import encode_stats
from repro.tiles.boundary import BoundaryMethod
from tests.conftest import make_cloud

RENDERERS = {
    "gstg": lambda method: GSTGRenderer(16, 64, method),
    "baseline": lambda method: BaselineRenderer(16, method),
    "hierarchical": lambda method: HierarchicalGSTGRenderer(16, 64, 128, method),
}


def _small(seed: int, width: int, height: int):
    """A deterministic cloud on a camera whose edge groups are partial."""
    rng = np.random.default_rng(seed)
    cloud = make_cloud(
        160, rng, depth_range=(2.0, 14.0), spread=4.0, scale_range=(0.02, 0.8)
    )
    return cloud, Camera(width=width, height=height, fx=90.0, fy=90.0)


def _bench(name: str):
    scene = load_scene(name, resolution_scale=0.125, seed=0)
    return scene.cloud, scene.camera


SCENES = {
    "small_a": lambda: _small(7, 150, 98),
    "small_b": lambda: _small(11, 77, 53),
    "playroom": lambda: _bench("playroom"),
    "train": lambda: _bench("train"),
}
SMALL = ("small_a", "small_b")


def digests(result) -> "tuple[str, str]":
    """``(image sha256, stats sha256)`` of one render result."""
    stats = json.dumps(
        encode_stats(result.stats), sort_keys=True, separators=(",", ":")
    )
    return (
        hashlib.sha256(np.ascontiguousarray(result.image).tobytes()).hexdigest(),
        hashlib.sha256(stats.encode("ascii")).hexdigest(),
    )


#: (scene, method) -> sha256 of the image bytes.  Every renderer draws the
#: same image for a method: GS-TG and its two-level variant are lossless.
IMAGES = {
    ("playroom", "aabb"):
        "6b11578f04c79a13378138863dddee8b037c17bead3400851c30e993019aa038",
    ("playroom", "ellipse"):
        "df6b8a785d89f6267e2bdf771e82bb0573b33dc4ff13319c5276fe6403aaf3f8",
    ("playroom", "obb"):
        "f209d7dbd37e57c4f5211a0166a18b91ee7f4ac0b3a5c68f2bdd6c1017c4f094",
    ("small_a", "aabb"):
        "3a466a7f575f7aa163099fb31387539d3b580bd13f51a6063294b419b406d43c",
    ("small_a", "ellipse"):
        "0e7e7dccd36959b13812a0fff1c7439c656fb2c613559be7e1b0dbae55726de0",
    ("small_a", "obb"):
        "564aece96a9bdffd31a8c52502e8375e7683dc2fd77ac3ace6a05f333f499d0f",
    ("small_b", "aabb"):
        "dd24ae40dc6d5b4a503319711ae6fd380837b436c418bc250bc55a6d906069ef",
    ("small_b", "ellipse"):
        "020c54e97d063085bb74c971cb0de6ecf7464d22abcd85937805110793cefefc",
    ("small_b", "obb"):
        "dd24ae40dc6d5b4a503319711ae6fd380837b436c418bc250bc55a6d906069ef",
    ("train", "aabb"):
        "a0fc91d00991981212e36a9f9486f73821fb53a00c153c48ef48d6aa23d33e70",
    ("train", "ellipse"):
        "e8ede9fa07a6638d94b310b70a7997380360445e3c05e3db0672f1781d38bdbf",
    ("train", "obb"):
        "d3ad01d856c63349295928c5737eb4a19a2566501d36047cfc6b9af7a83212d4",
}

#: (scene, renderer, method) -> sha256 of the canonical stats JSON.
STATS = {
    ("playroom", "baseline", "aabb"):
        "feecd5c06e61947401945f1b8c5167f06e6c7564d2609c36252c301269cc903a",
    ("playroom", "baseline", "obb"):
        "c0351b41675b37751471c25bc2bed6dc9e8c1da85845c097139658e6ec15d5b5",
    ("playroom", "baseline", "ellipse"):
        "b26c7ae02d92b47998d929129e99e4b6cf9ca4c1ee5b48da4c1ec7dc43699062",
    ("playroom", "gstg", "aabb"):
        "1008b1e2207db7a1f9bc24e02fda90d9f63960d0c9478893871c07ec91aa6710",
    ("playroom", "gstg", "obb"):
        "8e1478464439c341ab3cfc74cf652360d82a37e59668b01d8bd33331c30b0e6a",
    ("playroom", "gstg", "ellipse"):
        "ff3aef5adf8518d9e192af33820d179d6b825cfdd215abac4dde554ada1bb417",
    ("playroom", "hierarchical", "aabb"):
        "d1ad500803ceb4c2c71aa266460132e67e51e67e203e327e7ed67a14c30c9cb2",
    ("playroom", "hierarchical", "obb"):
        "8831b56e441384439e3af67df4f4a7feff695074efd3dedbc973506c42f65961",
    ("playroom", "hierarchical", "ellipse"):
        "296380e2c910a72403a3b60c9516fb3b8b6ca73f607c986a1af22fa8ef9c0154",
    ("small_a", "baseline", "aabb"):
        "95afea94e944e0c43614565c704087561fc5e92de8dcd4fdbd3b675060b1e1a7",
    ("small_a", "baseline", "obb"):
        "7621ed95d636141982740870be013d396533d5d91d99a4401bcf8e642fff9694",
    ("small_a", "baseline", "ellipse"):
        "ebe0889133c31fdc28276174c8f7fe3d7f0fb03ad5e95b97a2d837b2e9d38f74",
    ("small_a", "gstg", "aabb"):
        "8b810f0c59063a294acaeb0d16a6c7d7d1a716060d1f74b0a0455eb099c77047",
    ("small_a", "gstg", "obb"):
        "33370a325265aef5016f5657d3b46e13a71117dcbc01ea27ae45af13dd114710",
    ("small_a", "gstg", "ellipse"):
        "fab2808bb894a7a672feda1ca687f4a80fde657d5b5b1f50ab374d210be9c1eb",
    ("small_a", "hierarchical", "aabb"):
        "16e93e6084e130662016123e261aa68f5f384490b21aada6f127813106ad6956",
    ("small_a", "hierarchical", "obb"):
        "76f03eb53773fa56a6b2795499d5458295cb56526e9fc5f6ce5253185885d206",
    ("small_a", "hierarchical", "ellipse"):
        "e665ba4e0c4f2af6a8dc7edc846c5c0bc576a6ed167e7b6706c7d3d09b9b7a13",
    ("small_b", "baseline", "aabb"):
        "45b4a7367fc6551fd07048a5ac0384c3a1f8bad0252a4f502f122531b901d8c0",
    ("small_b", "baseline", "obb"):
        "369de7033a5ead613f10f9d880043a2e579263ec21234717a0f8a201a7e5db6c",
    ("small_b", "baseline", "ellipse"):
        "0262ad940a3536acc9a891596e5b997b856542ca084018bd825ea415e68f5260",
    ("small_b", "gstg", "aabb"):
        "e9c0faa306601db255d6ee14189915b10c3f77c691dc8dc9412198c117cdfda0",
    ("small_b", "gstg", "obb"):
        "055d8e2279862c8a8c168fff99db13a6f7ef948829a60a5ad4c97ae1bf0f3fab",
    ("small_b", "gstg", "ellipse"):
        "7bf3d8d16cf2e5f78dfe5637f4723cfa0efc0b9f7571fa8016387b3021f62450",
    ("small_b", "hierarchical", "aabb"):
        "6977d6cea426d241b1de13d5a3fc1f02409875c2858540513dc6425470d1554b",
    ("small_b", "hierarchical", "obb"):
        "cc1cb38cc99611a20b89d9ab7a762d9ab2c74633e5b4a743d162656da14271ea",
    ("small_b", "hierarchical", "ellipse"):
        "cc18d805706c2e404796d9202fe58bebf831d22cdd8f78fc3c6a8b3092f7576f",
    ("train", "baseline", "aabb"):
        "4022194b79a851e96b6f6f353d4ef341d13bbd1e5ad1e96bdf4bb875f13b8aba",
    ("train", "baseline", "obb"):
        "d81aaf093001a45c0cc1280ac1858a524fb1da9bd69c556b136a8558b18dfd2d",
    ("train", "baseline", "ellipse"):
        "80d85445fe806039484115183e9f0e7fcfdf66376b8e2c1acd08c361e1a8a48f",
    ("train", "gstg", "aabb"):
        "631b93530a39e75be072ef13678f95c218aca87b78a578899d37e27073557cc4",
    ("train", "gstg", "obb"):
        "ebdd0565d0b64c1af3cfeb47595b2c0fae14b4ea5ad0f7bdec18306885149b63",
    ("train", "gstg", "ellipse"):
        "9adb1431a17848694291c9200291834a3241664bb29b3bd78b598ee1369047cc",
    ("train", "hierarchical", "aabb"):
        "bc006234614dad49a4bda70605d0a4b2ec912d907e7eaf0235e23b1e09886aea",
    ("train", "hierarchical", "obb"):
        "9182c58d28000a3c7278c08c579c532c2ecd8f819326628c29fed1a1c07f5b58",
    ("train", "hierarchical", "ellipse"):
        "4c5814014a2090d07226651d6fa75b52c2208c21ca29501b72f5c8b840feef4e",
}


@pytest.fixture(scope="module")
def scenes():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = SCENES[name]()
        return cache[name]

    return get


@pytest.mark.parametrize("method", list(BoundaryMethod), ids=lambda m: m.value)
@pytest.mark.parametrize("renderer", sorted(RENDERERS))
@pytest.mark.parametrize("scene", sorted(SCENES))
def test_digests_match_parent(scenes, scene, renderer, method):
    cloud, camera = scenes(scene)
    made = RENDERERS[renderer](method)
    image, stats = digests(RenderEngine(made).render(cloud, camera))
    assert image == IMAGES[scene, method.value]
    assert stats == STATS[scene, renderer, method.value]
    if scene in SMALL:
        assert digests(made.render(cloud, camera)) == (image, stats)
