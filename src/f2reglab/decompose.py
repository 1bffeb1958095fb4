"""Constructive regularity decomposition by energy increment.

The energy of a subspace partition is the mean squared coset average of
the function; it never decreases under refinement, tops out at the mean
square of the function, and jumps by more than eps^3 whenever a subspace
fails the eps-regularity scan and is refined by the worst witness
character of each irregular coset (an irregular coset carries a local
coefficient above eps on more than an eps fraction of the space).  The
loop therefore reaches an eps-regular subspace within ceil(1/eps^3)
rounds unless it hits the index guard first.

On a count table (values k/s) the decomposition transforms the integer
counts once: by Parseval over H-perp, each round's energy is the exact
rational sum of squared transform entries over H-perp divided by
(s 2^n)^2, and each round's scan reads the same transform through
`fourier._dual_worst`.  The gain check then compares exact rationals.
Float tables scan by pullback and compare float energies with a 1e-12
slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fourier import (
    FunctionTable,
    RegularityReport,
    _block_rows,
    _check_n,
    _count_dtype,
    _count_spectrum,
    _dual_report,
    as_fraction,
    check_subspace_regularity,
)
from .gf2 import DEFAULT_DENSE_LIMIT, Subspace


class DecompositionError(RuntimeError):
    """The energy-increment invariant failed during refinement."""


def energy(f: FunctionTable, h: Subspace) -> float:
    """Mean over x of the squared mean of f over the coset of x.

    On a count table with denominator s this is the correctly rounded
    exact value: with S_j the integer count sum of coset j, the mean of
    (S_j / (s 2^dim))^2 over the 2^c cosets is 2^c * sum of S_j^2 over
    (s 2^n)^2, which by Parseval on the quotient equals the sum over
    H-perp of the squared full transform (`_parseval_energy`).
    """
    _check_n(f, "subspace", h.n)
    reps = h.coset_representative_array(f.n)
    span, step = h.span_array(f.n), _block_rows(h.dim)
    exact = f.counts is not None
    sums = np.empty(reps.shape[0], _count_dtype(f.denominator, h.dim) if exact else np.float64)
    # a block of cosets at a time; each row is still reduced on its own
    for start in range(0, reps.shape[0], step):
        points = reps[start : start + step, None] ^ span
        if exact:
            sums[start : start + step] = f.counts[points].sum(axis=1, dtype=sums.dtype)
        else:
            sums[start : start + step] = f.values[points].mean(axis=1)
        del points  # before the next block's index is built
    if not exact:
        return float(np.square(sums).mean())
    scale = (f.denominator << f.n) ** 2
    return float(Fraction(_square_sum(sums, scale) * reps.shape[0], scale))


def _square_sum(a: np.ndarray, bound: int) -> int:
    """Exact sum of the squares of integer entries, given a bound on it.

    The terms are non-negative, so every partial sum is at most the
    total: int64 holds them all when the bound is below 2^63, and numpy
    would wrap silently above it, where Python ints take over.  Both
    energies bound their sums by (s 2^n)^2.
    """
    if bound < 1 << 63:
        a = a.astype(np.int64, copy=False)
        return int(np.dot(a, a))
    return sum(x * x for x in a.tolist())


def _parseval_energy(spectrum: np.ndarray, h: Subspace, denominator: int) -> Fraction:
    """Exact energy of a count table on h from its full integer transform
    F (`_count_spectrum`): the sum of F(u)^2 over u in H-perp, over
    (s 2^n)^2 for the denominator s (Parseval over H-perp)."""
    scale = (denominator << h.n) ** 2
    return Fraction(_square_sum(spectrum[h.orthogonal_complement().span_array(h.n)], scale), scale)


def _refine(
    h: Subspace, report: RegularityReport, single: bool
) -> tuple[Subspace, tuple[int, ...]]:
    """Intersect H with the annihilator of the report's witness
    characters: all of them deduplicated, or just the globally worst.
    The report is irregular, so it has a witness."""
    if single:
        k = int(np.argmax(np.abs(report.witness_values)))
        added = (int(report.witness_etas[k]),)
    else:
        added = tuple(sorted({int(e) for e in report.witness_etas}))
    return Subspace.annihilator(h.n, h._dual_rows() + list(added)), added


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
) -> DecompositionTrace:
    """Iterate refinement from the full space until eps-regularity.

    eps must lie in (0, 1/2).  Each round must gain more than eps^3 of
    energy (checked), so the iteration guard ceil(1/eps^3) can only trip
    on a defect; the index guard caps the partition size instead of
    looping toward an unaffordable one.

    A count table is transformed once (`_count_spectrum`).  Every
    round's scan is read from that transform (`_dual_report`, equal to
    `check_subspace_regularity`) and its energy is exact
    (`_parseval_energy`), so the gain check compares Fractions; the
    trace records the energies as floats, and each gain as the
    difference of those floats.  Float tables scan by pullback and keep
    a 1e-12 slack on the float gain.
    """
    eps = as_fraction(epsilon)
    if not Fraction(0) < eps < Fraction(1, 2):
        raise ValueError(f"epsilon must be in (0, 1/2), got {eps}")
    iteration_guard = max_iterations if max_iterations is not None else math.ceil(1 / eps**3)

    if f.counts is None:
        def scan(h: Subspace) -> RegularityReport:
            return check_subspace_regularity(f, h, eps)

        def measure(h: Subspace) -> float:
            return energy(f, h)

        gain_floor: "Fraction | float" = float(eps) ** 3 - 1e-12
    else:
        spectrum = _count_spectrum(f)

        def scan(h: Subspace) -> RegularityReport:
            return _dual_report(h, eps, spectrum, f.denominator)

        def measure(h: Subspace) -> Fraction:
            return _parseval_energy(spectrum, h, f.denominator)

        gain_floor = eps**3

    h = Subspace.full(f.n)
    current_energy = measure(h)
    records: list[IterationRecord] = []
    status = "regular"
    while True:
        report = scan(h)
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
        refined_energy = measure(refined)
        if not refined_energy - current_energy > gain_floor:
            raise DecompositionError(
                f"energy gain {float(refined_energy - current_energy)} did not exceed "
                f"eps^3 = {float(eps) ** 3}"
            )
        records.append(
            IterationRecord(
                iteration=len(records),
                dim=h.dim,
                index=h.index,
                energy=float(current_energy),
                irregular_cosets=report.irregular_cosets,
                added_characters=added,
                energy_gain=float(refined_energy) - float(current_energy),
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
        final_energy=float(current_energy),
    )
