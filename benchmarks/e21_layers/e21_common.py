"""Shared pieces of the e21 layered macro-benchmark.

Everything both the end-to-end runner (``e21_workloads``) and the traced
per-layer ladder (``e21_ladder``) need: the load model's constants, the
seeded dataset and query stream, the environment guard, provenance, and the
small statistics helpers the metric definitions are written in.

The program under test receives only what :func:`make_dataset` and the
stream generators return — arrays and plain bounds — never the seed.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
SRC = REPO_ROOT / "src"
# the contract forbids naming a path outside ``paths`` on the command line,
# so the entry point finds the program's source tree itself
if not (SRC / "repro").is_dir():
    raise SystemExit(f"e21: no program to measure: {SRC / 'repro'} does not exist")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.engine.query import Aggregate, Query, RangeSelection  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    WorkloadSpec,
    generate_column_data,
    random_workload,
)

#: the load model (ISSUE 11): one table, uniform int64 keys, 0.1 % ranges
TABLE = "t"
KEY = "key"
PAY = "pay"
ROWS = 1_000_000
DOMAIN_HIGH = 10_000_000
RANGE_WIDTH = 10_000
BATCH_SIZE = 64
#: the only threads besides the single client: the program's own pools
MAX_WORKERS = 2
#: ``--seconds`` the op counts in ``e21_workloads`` / ``e21_ladder`` were
#: sized for on the recording host; other values scale the counts linearly
REFERENCE_SECONDS = 15.0
#: bytes of user data per row (int64 key + float64 pay)
ROW_BYTES = 16

#: where run artefacts (data directories, span files, reports) live — inside
#: the checkout, because the benchmark may write nowhere else
OUT_DIR = HERE / "out"
SCRATCH_DIR = HERE / "scratch"

Bounds = Tuple[float, float]


# -- environment guard and provenance ------------------------------------------


def refuse_instrumented_environment() -> None:
    """Exit unless witnesses and the legacy scale knob are unset.

    A witness multiplies per-query cost and ``REPRO_BENCH_SCALE`` changes
    what the older benchmarks mean; a number measured with either set is
    not comparable with one measured without.
    """
    offending = sorted(
        name
        for name in os.environ
        if name == "REPRO_BENCH_SCALE"
        or (name.startswith("REPRO_") and name.endswith("_WITNESS"))
    )
    if offending:
        raise SystemExit(
            "e21: refusing to measure with " + ", ".join(offending) + " set"
        )


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _filesystem_type(path: Path) -> str:
    """Type of the filesystem holding ``path`` (longest matching mount)."""
    try:
        mounts = Path("/proc/mounts").read_text().splitlines()
    except OSError:
        return "unknown"
    target = str(path.resolve())
    best, best_type = "", "unknown"
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount_point = fields[1]
        if target.startswith(mount_point.rstrip("/") + "/") or target == mount_point:
            if len(mount_point) >= len(best):
                best, best_type = mount_point, fields[2]
    return best_type


def _git_commit() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def provenance(seed: int, rows: int, seconds: float) -> Dict[str, object]:
    """Where and how a set of numbers was measured."""
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scratch_fs": _filesystem_type(HERE),
        "seed": seed,
        "rows": rows,
        "seconds": seconds,
        "git_commit": _git_commit(),
    }


def recycle_freed_memory() -> bool:
    """Ask glibc to keep freed arrays in the heap instead of unmapping them.

    Every cold start builds a fresh database; by default each of its
    multi-megabyte arrays is a new mapping whose pages fault in one by one,
    and on a lazily backed VM a never-touched page costs 20-90 us against
    0.5 us for a recycled one — first-query latency then measures the
    hypervisor, not the program.  With the mmap threshold out of reach and
    trimming off, a discarded database's memory is what the next one is
    built in.  Same effect as ``MALLOC_MMAP_THRESHOLD_``/``MALLOC_TRIM_THRESHOLD_``
    in the environment; must run before the first large allocation.
    Returns False where there is no glibc to ask.
    """
    m_trim_threshold, m_mmap_threshold = -1, -3  # <malloc.h>
    try:
        libc = ctypes.CDLL("libc.so.6")
        return bool(
            libc.mallopt(m_mmap_threshold, 1 << 30)
            and libc.mallopt(m_trim_threshold, (1 << 31) - 1)
        )
    except (OSError, AttributeError):
        return False


# -- dataset and query streams ----------------------------------------------------


@dataclass(frozen=True)
class Dataset:
    """The generated table: the only thing the program sees of the seed."""

    keys: np.ndarray  # int64, uniform in [0, DOMAIN_HIGH)
    pay: np.ndarray  # float64

    @property
    def rows(self) -> int:
        return len(self.keys)

    def columns(self) -> Dict[str, np.ndarray]:
        return {KEY: self.keys, PAY: self.pay}


def make_dataset(seed: int, rows: int = ROWS) -> Dataset:
    keys = generate_column_data(rows, 0, DOMAIN_HIGH, seed=seed)
    pay = np.random.default_rng(seed + 1).uniform(0.0, 1000.0, size=rows)
    return Dataset(keys=keys, pay=pay)


def query_stream(seed: int, count: int, int_bounds: bool) -> List[Bounds]:
    """``count`` uniformly placed ``[lo, lo + RANGE_WIDTH)`` ranges.

    Float bounds are what ``RangeQuery``/``RangeSelection`` are typed as;
    Python-int bounds are the README's call style.  Both styles reach the
    same kernels through different numpy promotion paths, which is why the
    workloads differ in them.
    """
    spec = WorkloadSpec(
        domain_low=0.0,
        domain_high=float(DOMAIN_HIGH),
        query_count=max(1, count),
        selectivity=RANGE_WIDTH / DOMAIN_HIGH,
        seed=seed,
    )
    queries = random_workload(spec)[:count]
    if int_bounds:
        return [(int(q.low), int(q.low) + RANGE_WIDTH) for q in queries]
    return [(float(q.low), float(q.high)) for q in queries]


def make_query(bounds: Bounds) -> Query:
    """select + late reconstruction + aggregate: ``sum(pay) where key in bounds``."""
    return Query(
        table=TABLE,
        selections=[RangeSelection(KEY, bounds[0], bounds[1])],
        aggregates=[Aggregate(PAY, "sum")],
    )


SUM_PAY = f"sum({PAY})"


# -- statistics --------------------------------------------------------------------


def scaled(count: int, scale: float, minimum: int = 1) -> int:
    """An op count sized for ``REFERENCE_SECONDS``, scaled to this run."""
    return max(minimum, int(round(count * scale)))


def median(samples: Sequence[float]) -> float:
    return float(statistics.median(samples))


def percentile(samples: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def supported(sample_count: int, q: float) -> bool:
    """True when at least ten samples lie beyond percentile ``q``."""
    return sample_count * (100.0 - q) / 100.0 >= 10.0


def steady(samples: Sequence[float]) -> Sequence[float]:
    """The last two-thirds of an adaptive structure's per-query samples."""
    return samples[len(samples) // 3:]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- scratch space -------------------------------------------------------------------


def fresh_scratch(tag: str) -> Path:
    """A new empty directory for this process's data directories."""
    path = SCRATCH_DIR / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def remove_scratch(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH_DIR.rmdir()  # only succeeds once the last run has left
    except OSError:
        pass
