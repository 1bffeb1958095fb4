"""Constructive regularity decomposition by energy increment.

The energy of a subspace partition is the mean squared coset average of
the function; it never decreases under refinement, tops out at the mean
square of the function, and jumps by more than eps^3 whenever a subspace
fails the eps-regularity scan and is refined by the worst witness
character of each irregular coset (an irregular coset carries a local
coefficient above eps on more than an eps fraction of the space).  The
loop therefore reaches an eps-regular subspace within ceil(1/eps^3)
rounds unless it hits the index guard first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fourier import (
    FunctionTable,
    RegularityReport,
    _pullback_reps,
    as_fraction,
    check_subspace_regularity,
)
from .gf2 import DEFAULT_DENSE_LIMIT, Subspace


class DecompositionError(RuntimeError):
    """The energy-increment invariant failed during refinement."""


def energy(f: FunctionTable, h: Subspace, dense_limit: int = DEFAULT_DENSE_LIMIT) -> float:
    """Mean over x of the squared mean of f over the coset of x."""
    reps = _pullback_reps(f, h, dense_limit)
    span = h.span_array(dense_limit)
    means = f.values[reps[:, None] ^ span[None, :]].mean(axis=1)
    return float(np.square(means).mean())


def _refine(
    h: Subspace, report: RegularityReport, single: bool
) -> tuple[Subspace, tuple[int, ...]]:
    """Intersect H with the annihilator of the report's witness
    characters: all of them deduplicated, or just the globally worst."""
    if report.witness_etas.size == 0:
        added: tuple[int, ...] = ()
    elif single:
        k = int(np.argmax(np.abs(report.witness_values)))
        added = (int(report.witness_etas[k]),)
    else:
        added = tuple(sorted({int(e) for e in report.witness_etas}))
    span = Subspace.from_vectors(h.n, added)
    return h.intersect(span.orthogonal_complement()), added


@dataclass(frozen=True)
class IterationRecord:
    """State of the scanned subspace before one refinement round."""

    iteration: int
    dim: int
    index: int
    energy: float
    irregular_cosets: int
    added_characters: tuple[int, ...]
    energy_gain: float


@dataclass(frozen=True, eq=False)
class DecompositionTrace:
    """Full log of a decomposition run.

    status is "regular" when the final subspace passed the scan,
    "index-guard" or "iteration-guard" when a guard tripped first (the
    trace is then partial but still consistent).
    """

    epsilon: Fraction
    schedule: str
    status: str
    iterations: tuple[IterationRecord, ...]
    final_subspace: Subspace
    final_report: RegularityReport
    final_energy: float

    @property
    def succeeded(self) -> bool:
        return self.status == "regular"

    def csv(self) -> str:
        """Per-round index/energy summary, final state included."""
        lines = ["iteration,index,energy"]
        for rec in self.iterations:
            lines.append(f"{rec.iteration},{rec.index},{rec.energy!r}")
        lines.append(f"{len(self.iterations)},{self.final_subspace.index},{self.final_energy!r}")
        return "\n".join(lines) + "\n"


def find_regular_subspace(
    f: FunctionTable,
    epsilon: "float | str | Fraction",
    max_index_log2: int = DEFAULT_DENSE_LIMIT,
    max_iterations: int | None = None,
    single_witness: bool = False,
    dense_limit: int = DEFAULT_DENSE_LIMIT,
) -> DecompositionTrace:
    """Iterate refinement from the full space until eps-regularity.

    eps must lie in (0, 1/2).  Each round must gain more than eps^3 of
    energy (checked), so the iteration guard ceil(1/eps^3) can only trip
    on a defect; the index guard caps the partition size instead of
    looping toward an unaffordable one.
    """
    eps = as_fraction(epsilon)
    if not Fraction(0) < eps < Fraction(1, 2):
        raise ValueError(f"epsilon must be in (0, 1/2), got {eps}")
    gain_floor = float(eps) ** 3
    iteration_guard = max_iterations if max_iterations is not None else math.ceil(1 / eps**3)

    h = Subspace.full(f.n)
    current_energy = energy(f, h, dense_limit)
    records: list[IterationRecord] = []
    status = "regular"
    while True:
        report = check_subspace_regularity(f, h, eps, dense_limit)
        if report.is_regular:
            status = "regular"
            break
        if len(records) >= iteration_guard:
            status = "iteration-guard"
            break
        refined, added = _refine(h, report, single_witness)
        if refined.n - refined.dim > max_index_log2:
            status = "index-guard"
            break
        refined_energy = energy(f, refined, dense_limit)
        gain = refined_energy - current_energy
        if not gain > gain_floor - 1e-12:
            raise DecompositionError(
                f"energy gain {gain} did not exceed eps^3 = {gain_floor}"
            )
        records.append(
            IterationRecord(
                iteration=len(records),
                dim=h.dim,
                index=h.index,
                energy=current_energy,
                irregular_cosets=report.irregular_cosets,
                added_characters=added,
                energy_gain=gain,
            )
        )
        h = refined
        current_energy = refined_energy

    return DecompositionTrace(
        epsilon=eps,
        schedule="single-witness" if single_witness else "batched",
        status=status,
        iterations=tuple(records),
        final_subspace=h,
        final_report=report,
        final_energy=current_energy,
    )
