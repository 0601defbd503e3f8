"""Source-to-source transformation passes of the Brook Auto compiler.

These passes implement the "trivial modifications" the paper applies to
the Brook+ reference applications to make them fit the Brook Auto subset
and the OpenGL ES 2 hardware limits:

* :mod:`split_outputs` - split a kernel with N output streams into N
  kernels with one output each (GL ES 2 has a single render target).
* :mod:`scalarize` - replace vector-typed stream parameters with one
  scalar stream per component.
* :mod:`constant_fold` - fold constant arithmetic, which both shrinks the
  generated shaders and helps the loop-bound analysis.
* :mod:`fuse` - merge compatible producer -> consumer kernel pairs into
  a single kernel, turning the intermediate stream into a local variable
  (driven by ``rt.fuse([...])`` rather than by the compiler driver).
"""

from .constant_fold import fold_constants
from .fuse import FusionResult, check_fusable, fuse_compiled, fuse_definitions
from .scalarize import scalarize_kernel
from .split_outputs import split_kernel_outputs

__all__ = [
    "fold_constants",
    "scalarize_kernel",
    "split_kernel_outputs",
    "FusionResult",
    "check_fusable",
    "fuse_definitions",
    "fuse_compiled",
]
