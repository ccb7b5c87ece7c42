"""Build, load and call ``_attractor.c``, one library of two functions, the
attractor's point walk ``ifs_attractor_hits`` and overlay circles
``ifs_circle_hits``: ``attractor_image`` is the only caller of either.

The library is compiled on first use with the system ``cc`` into the per-user
cache folder (``$XDG_CACHE_HOME/ifslab`` if absolute, else ``~/.cache/ifslab``)
and loaded with ``ctypes``.  The file name holds a CRC-32 of the source,
the flags, the machine and the Python cache tag, so an edited source or
another interpreter builds a file of its own; the build writes a temporary
name and renames it, so a reader never loads a half-written file.  A cached file that
does not load or lacks a function is built again.  When no compiler runs, the build
fails or the folder cannot be written, ``attractor_kernel`` returns None, for both
functions, and the caller draws ``cli._numpy_image``, which has the same bytes.

The flags keep the arithmetic IEEE double, operation by operation:
``-ffp-contract=off`` forbids fused multiply-adds and ``-fno-fast-math``
any reordering, so the kernel's sums and pixel expressions have the bits of
numpy's.  ``-pthread`` links the threads of the point walk, which walks the
image as ``BANDS`` bands of rows at most, one thread each, and never more
bands than the process may run CPUs or the image has rows: the image is the
same for every band count.  The circles are drawn on the calling thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import platform
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("_attractor.c")
FLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-pthread", "-shared", "-fPIC")
# on 2 cores, 3 bands walk slower than 2
BANDS = 2

_DOUBLES = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
_IMAGE = np.ctypeslib.ndpointer(np.uint8, flags=("C_CONTIGUOUS", "WRITEABLE"))
_D, _L = ctypes.c_double, ctypes.c_long
_FUNCTIONS = {
    "ifs_attractor_hits": (ctypes.c_int, [
        _DOUBLES, ctypes.c_int, ctypes.c_int, _D, _D, _D, _D, _L, _L, _IMAGE,
        np.ctypeslib.ndpointer(np.int64, flags=("C_CONTIGUOUS", "WRITEABLE")), ctypes.c_int]),
    "ifs_circle_hits": (None, [
        _DOUBLES, _L, _DOUBLES, _DOUBLES, _L, _D, _D, _D, _D, _L, _L, _IMAGE, ctypes.c_ubyte]),
}


def library_path() -> Path:
    """Where the kernel built from the current source is cached.  The key is
    a CRC-32: numpy has loaded zlib already, while ``hashlib`` would load
    OpenSSL, some 3.6 MB, into every ``attractor`` process."""
    key = zlib.crc32(b"\0".join([
        SOURCE.read_bytes(), " ".join(FLAGS).encode(), platform.machine().encode(),
        sys.implementation.cache_tag.encode(),
    ]))
    cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache):  # relative: invalid by the XDG spec
        cache = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(cache, "ifslab", f"attractor-{key:08x}.so")


def _build(path: Path):
    """Compile the source to ``path`` through a temporary file in its folder, loaded
    by that file's name: ``dlopen`` of ``path`` would return an older handle.  A
    failed build removes the temporary file and every folder it made that is
    still empty."""
    made, folder = [], path.parent
    while not folder.exists():
        made.append(folder)
        folder = folder.parent
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=path.name, suffix=".tmp", dir=path.parent)
        os.close(fd)
        subprocess.run(["cc", *FLAGS, "-o", tmp, str(SOURCE), "-lm"],
                       check=True, capture_output=True, timeout=120)
        library = _load(tmp)
        os.replace(tmp, path)
        return library
    except BaseException:
        if tmp is not None and os.path.exists(tmp):
            os.remove(tmp)
        for folder in made:  # deepest first
            with contextlib.suppress(OSError):  # not made, or another build wrote into it
                folder.rmdir()
        raise


def _load(path: Path):
    library = ctypes.CDLL(str(path))
    for name, (restype, argtypes) in _FUNCTIONS.items():
        function = getattr(library, name)
        function.restype, function.argtypes = restype, argtypes
    return library


@functools.cache
def attractor_kernel():
    """The library of ``_attractor.c``, loaded once per process, or None when
    it cannot be built or loaded: both of its functions, or neither."""
    try:
        path = library_path()
        try:
            return _load(path)
        except (OSError, AttributeError):  # not built yet, or does not load
            return _build(path)
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def attractor_image(kernel, table: np.ndarray, circles, window, width: int, height: int,
                    bands: int | None = None) -> tuple[np.ndarray, tuple[int, int]]:
    """The flat W*H uint8 image, 1 on the pixels hit by the nodes of the level
    whose ``ifs._letter_weights`` table is ``table`` in ``window`` (x0, y0,
    x1, y1), then 2 on those of the ``circles`` of ``cli._overlay_circles``,
    else 0, with the kernel's counts of leaves walked and subtrees skipped,
    summed over the ``bands`` bands of rows the points are walked in (by
    default ``min(BANDS, CPUs, height)``)."""
    x0, y0, x1, y1 = window
    if bands is None:
        bands = min(BANDS, _cpus(), height)
    img = np.zeros(height * width, dtype=np.uint8)
    counts = np.zeros(2, dtype=np.int64)
    status = kernel.ifs_attractor_hits(table.view(np.float64), table.shape[1], table.shape[0] - 1,
                                       x0, y1, x1 - x0, y1 - y0, width, height, img, counts, bands)
    if status != 0:
        raise ValueError(f"the attractor kernel refused level {table.shape[0] - 1} "
                         f"in {bands} bands")
    sx, sy = width / (x1 - x0), height / (y1 - y0)
    for centres, dx, dy in circles:
        for block in centres:
            kernel.ifs_circle_hits(block.view(np.float64), block.size, dx, dy, dx.size,
                                   x0, y1, sx, sy, width, height, img, 2)
    return img, (int(counts[0]), int(counts[1]))
