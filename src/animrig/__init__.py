"""Skeleton-driven mesh animation.

Blend skinning over a kinematic chain with stretchable bones, skinning-weight
computation (Gaussian mixture and bone-heat diffusion), global and part-level
chamfer losses, per-frame motion fitting against a supervising mesh sequence,
and training-free cross-skeleton motion retargeting.
"""

from .chamfer import chamfer_global, chamfer_local
from .deform import DeformedMesh, blend_skin, export_frame_meshes
from .fitting import FitConfig, FitReport, FitRig, FrameObjective, fit_motion
from .geometry import (
    EmptyInputError,
    MeshFormatError,
    TriMesh,
    UnsupportedTopologyError,
    bbox_diagonal,
    load_mesh,
    save_mesh,
)
from .retarget import (
    InteriorField,
    JointCorrespondence,
    build_interior_field,
    embed_skeleton,
    transfer_motion,
)
from .skeleton import (
    MotionClip,
    MotionFrame,
    RigidTransform,
    Skeleton,
    forward_kinematics,
    posed_joints,
)
from .skinning import (
    EllipsoidBones,
    PartDecomposition,
    SkinWeights,
    gaussian_skinning,
    heat_diffusion_skinning,
    part_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "DeformedMesh",
    "EllipsoidBones",
    "EmptyInputError",
    "FitConfig",
    "FitReport",
    "FitRig",
    "FrameObjective",
    "InteriorField",
    "JointCorrespondence",
    "MeshFormatError",
    "MotionClip",
    "MotionFrame",
    "PartDecomposition",
    "RigidTransform",
    "Skeleton",
    "SkinWeights",
    "TriMesh",
    "UnsupportedTopologyError",
    "bbox_diagonal",
    "blend_skin",
    "build_interior_field",
    "chamfer_global",
    "chamfer_local",
    "embed_skeleton",
    "export_frame_meshes",
    "fit_motion",
    "forward_kinematics",
    "gaussian_skinning",
    "heat_diffusion_skinning",
    "load_mesh",
    "part_decompose",
    "posed_joints",
    "save_mesh",
    "transfer_motion",
]
