"""C-staggered SCVT mesh substrate (the horizontal mesh of Figure 1)."""

from .cache import (
    CACHE_FORMAT_VERSION,
    MeshFormatError,
    cache_dir,
    cached_mesh,
    clear_memory_cache,
    mesh_cache_path,
)
from .connectivity import FILL, Connectivity, build_connectivity
from .mesh import MESH_FAMILY, Mesh
from .metrics import Metrics, build_metrics
from .permute import rotate_cell_rings
from .quality import MeshQuality, assess_quality
from .trisk import TriskWeights, build_trisk_weights
from .voronoi import RawVoronoi, extract_voronoi

__all__ = [
    "FILL",
    "Connectivity",
    "build_connectivity",
    "MESH_FAMILY",
    "Mesh",
    "Metrics",
    "build_metrics",
    "MeshQuality",
    "rotate_cell_rings",
    "assess_quality",
    "TriskWeights",
    "build_trisk_weights",
    "RawVoronoi",
    "extract_voronoi",
    "cached_mesh",
    "cache_dir",
    "clear_memory_cache",
    "mesh_cache_path",
    "CACHE_FORMAT_VERSION",
    "MeshFormatError",
]
