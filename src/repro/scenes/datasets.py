"""Dataset registry — Table II of the paper.

Resolution and type of every evaluated scene, plus the synthesis
parameters our procedural substitute uses for each (scene scale, cluster
structure, Gaussian budget).  The train/test split conventions of the
paper (every 8th / 64th / 128th image) are recorded for completeness and
used by the camera-path generator.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SceneSpec:
    """Static description of one evaluation scene.

    Attributes
    ----------
    name:
        Lower-case scene key ("train", "truck", ...).
    dataset:
        Source dataset name as in Table II.
    width, height:
        Full image resolution from Table II.
    scene_type:
        "outdoor" or "indoor".
    test_split_every:
        The paper's train/test convention: every Nth image is a test view.
    num_gaussians:
        Synthetic Gaussian budget at ``resolution_scale=1.0`` (scaled-down
        stand-in for the pre-trained model's millions; see
        ``docs/architecture.md``, *Why the scenes are synthetic*).
    world_extent:
        Half-extent of the synthetic scene bounding volume (world units).
    num_clusters:
        Number of Gaussian clusters in the procedural layout.
    footprint_log_mean_px, footprint_log_std_px:
        Log-normal parameters of the 3-sigma screen-space footprint radius
        (pixels), fitted so the AABB shared-with-adjacent-tiles fractions
        reproduce Table I (and hence the Fig. 5 / Fig. 7 trends).
    footprint_cap_px:
        Upper clip on the sampled footprint radius; trained models do not
        contain arbitrarily huge Gaussians, and the lognormal tail would
        otherwise dominate tiles-per-Gaussian.
    opacity_a, opacity_b:
        Beta-distribution parameters of Gaussian opacities.  Denser, more
        opaque reconstructions (aerial scenes) terminate pixels earlier
        via the transmittance early exit, which shapes the rasterization
        workload exactly as scene density does in the paper.
    """

    name: str
    dataset: str
    width: int
    height: int
    scene_type: str
    test_split_every: int
    num_gaussians: int
    world_extent: float
    num_clusters: int
    footprint_log_mean_px: float
    footprint_log_std_px: float
    footprint_cap_px: float
    opacity_a: float = 2.0
    opacity_b: float = 1.2


SCENES: "dict[str, SceneSpec]" = {
    "train": SceneSpec(
        name="train",
        dataset="Tanks&Temples",
        width=1959,
        height=1090,
        scene_type="outdoor",
        test_split_every=8,
        num_gaussians=22000,
        world_extent=12.0,
        num_clusters=14,
        footprint_log_mean_px=2.816,
        footprint_log_std_px=1.6,
        footprint_cap_px=64.0,
        opacity_a=2.0,
        opacity_b=1.2,
    ),
    "truck": SceneSpec(
        name="truck",
        dataset="Tanks&Temples",
        width=1957,
        height=1091,
        scene_type="outdoor",
        test_split_every=8,
        num_gaussians=24000,
        world_extent=14.0,
        num_clusters=12,
        footprint_log_mean_px=1.965,
        footprint_log_std_px=1.4,
        footprint_cap_px=64.0,
        opacity_a=4.5,
        opacity_b=1.0,
    ),
    "drjohnson": SceneSpec(
        name="drjohnson",
        dataset="Deep Blending",
        width=1332,
        height=876,
        scene_type="indoor",
        test_split_every=8,
        num_gaussians=18000,
        world_extent=7.0,
        num_clusters=10,
        footprint_log_mean_px=2.4,
        footprint_log_std_px=1.45,
        footprint_cap_px=72.0,
        opacity_a=5.0,
        opacity_b=1.0,
    ),
    "playroom": SceneSpec(
        name="playroom",
        dataset="Deep Blending",
        width=1264,
        height=832,
        scene_type="indoor",
        test_split_every=8,
        num_gaussians=16000,
        world_extent=6.0,
        num_clusters=9,
        footprint_log_mean_px=2.266,
        footprint_log_std_px=1.45,
        footprint_cap_px=80.0,
        opacity_a=4.5,
        opacity_b=1.0,
    ),
    "rubble": SceneSpec(
        name="rubble",
        dataset="Mill-19",
        width=4608,
        height=3456,
        scene_type="outdoor",
        test_split_every=64,
        num_gaussians=40000,
        world_extent=30.0,
        num_clusters=20,
        footprint_log_mean_px=2.9,
        footprint_log_std_px=1.5,
        footprint_cap_px=72.0,
        opacity_a=7.0,
        opacity_b=0.9,
    ),
    "residence": SceneSpec(
        name="residence",
        dataset="UrbanScene3D",
        width=5472,
        height=3648,
        scene_type="outdoor",
        test_split_every=128,
        num_gaussians=48000,
        world_extent=36.0,
        num_clusters=24,
        footprint_log_mean_px=3.15,
        footprint_log_std_px=1.5,
        footprint_cap_px=96.0,
        opacity_a=7.0,
        opacity_b=0.8,
    ),
}

#: Dataset -> scene names, mirroring the rows of Table II.
DATASETS: "dict[str, list[str]]" = {
    "Tanks&Temples": ["train", "truck"],
    "Deep Blending": ["drjohnson", "playroom"],
    "Mill-19": ["rubble"],
    "UrbanScene3D": ["residence"],
}

#: The four scenes used by the profiling/GPU experiments (Figs. 3-13).
PROFILING_SCENES = ("train", "truck", "drjohnson", "playroom")

#: All six scenes used by the hardware evaluation (Figs. 14-15).
HARDWARE_SCENES = (
    "train",
    "truck",
    "drjohnson",
    "playroom",
    "rubble",
    "residence",
)


def get_scene_spec(name: str) -> SceneSpec:
    """Look up a scene by (case-insensitive) name."""
    key = name.lower()
    if key not in SCENES:
        raise KeyError(
            f"unknown scene {name!r}; available: {sorted(SCENES)}"
        )
    return SCENES[key]
