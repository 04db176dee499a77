"""Print the OpenBLAS core and thread count each loaded OpenBLAS library uses.

The d >= 2 golden files follow the OpenBLAS kernel, which OpenBLAS picks from
the CPU, so a test log names it. Run from the repository root (pytest does
not collect this file)::

    PYTHONPATH=src python tests/blas_probe.py
"""

import ctypes
import os

import qtimeloop  # loads numpy's OpenBLAS and sets the package's thread default


def main() -> None:
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    for path in paths:
        lib = ctypes.CDLL(path)
        corename, threads = lib.scipy_openblas_get_corename64_, lib.scipy_openblas_get_num_threads64_
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        threads.argtypes, threads.restype = [], ctypes.c_int
        print(os.path.basename(path), "core", corename().decode(), "threads", threads())


if __name__ == "__main__":
    main()
