"""Scene substrate: the Table II dataset registry and synthetic scenes.

The paper evaluates on pre-trained 3D-GS models of six real scenes; this
reproduction substitutes seeded procedural Gaussian clouds with the same
image resolutions and matched footprint statistics (see
``docs/architecture.md``, *Why the scenes are synthetic*).
"""

from repro.scenes.datasets import DATASETS, SCENES, SceneSpec, get_scene_spec
from repro.scenes.synthetic import Scene, load_scene, synthesize_cloud
from repro.scenes.trajectory import ViewSet, make_view_set, orbit_cameras, split_views

__all__ = [
    "DATASETS",
    "SCENES",
    "Scene",
    "SceneSpec",
    "ViewSet",
    "get_scene_spec",
    "load_scene",
    "make_view_set",
    "orbit_cameras",
    "split_views",
    "synthesize_cloud",
]
