"""scipy's f2py LAPACK wrappers, loaded by file path without importing `scipy.linalg`.

`flapack` is the extension module `scipy/linalg/_flapack`, whose wrappers
are the objects `scipy.linalg.lapack` exports. widthlab calls four of them:
`dsytrd`, `dstevd` and `dormqr` in `spectral.nystrom_spectrum` and
`dtrtrs` in `interpolation._solve_lower`. Importing the
package itself takes about 0.25 s, mostly numpy submodules that its array-API
shim loads (`numpy.f2py`, `numpy.testing`), and about 20 MB. The module is
registered as `scipy.linalg._flapack`, so a later `import scipy.linalg`
reuses it, and an earlier one is reused here.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

_NAME = "scipy.linalg._flapack"


def _load():
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    scipy = importlib.util.find_spec("scipy")  # locates the package without running its __init__
    if scipy is None:
        raise ImportError("widthlab needs scipy's LAPACK wrappers, and scipy is not installed", name=_NAME)
    path = Path(scipy.submodule_search_locations[0], "linalg", "_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not path.is_file():
        raise ImportError(f"scipy's LAPACK wrappers are not at {path}", name=_NAME, path=str(path))
    spec = importlib.util.spec_from_file_location(_NAME, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    spec.loader.exec_module(module)
    return module


flapack = _load()
