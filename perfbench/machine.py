"""A record of the machine and environment a run measured on."""

from __future__ import annotations

import os
import platform
from pathlib import Path


def cpu_count() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    """Total size per cache level, counting each shared instance once."""
    seen, sizes = set(), {}
    for index in sorted(Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index*")):
        kind = _read(index / "type").strip()
        if kind == "Instruction":
            continue
        level = "L" + _read(index / "level").strip()
        shared = _read(index / "shared_cpu_list").strip()
        if (level, shared) in seen:
            continue
        seen.add((level, shared))
        text = _read(index / "size").strip()
        kib = int(text[:-1]) if text.endswith("K") else 0
        sizes[level] = sizes.get(level, 0) + kib
    return {level: f"{kib} KiB" if kib < 1024 else f"{kib / 1024:g} MiB"
            for level, kib in sorted(sizes.items())}


def _ram_mib() -> float:
    for line in _read("/proc/meminfo").splitlines():
        if line.startswith("MemTotal:"):
            return int(line.split()[1]) / 1024
    return 0.0


def _filesystem(path: Path) -> dict:
    """Mount point and type of the filesystem holding ``path``."""
    path = str(path.resolve())
    found = {"mount": "", "type": "unknown"}
    for line in _read("/proc/self/mountinfo").splitlines():
        fields = line.split()
        mount = fields[4]
        inside = path == mount or path.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) >= len(found["mount"]):
            found = {"mount": mount, "type": fields[fields.index("-") + 1]}
    return found


def _blas() -> dict:
    import numpy

    config = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {key: config.get(key) for key in ("name", "version", "openblas configuration")}


def describe(work_dir: Path, op_env: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "ram_mib": round(_ram_mib()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": {k: op_env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "io_filesystem": _filesystem(work_dir),
    }
