"""Metrics and estimated-to-ground-truth endmember matching."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_io import _csv_text, write_file
from .datatypes import AbundanceMap, SpectraMatrix
from .net import angle


def sad_metric(e, e_hat):
    """Spectral angle between two signatures, in radians (scale-invariant)."""
    return float(angle(np.atleast_2d(e), np.atleast_2d(e_hat), 0.0).s[0, 0])


def rmse_metric(y, y_hat):
    """Root mean square error between two equal-length vectors."""
    y = np.asarray(y, dtype=np.float64).ravel()
    y_hat = np.asarray(y_hat, dtype=np.float64).ravel()
    if y.shape != y_hat.shape:
        raise ValueError("rmse_metric requires equal lengths")
    return float(np.sqrt(np.mean((y - y_hat) ** 2)))


def _assign(cost, greedy):
    """One-to-one row -> column assignment over an angle cost matrix."""
    if cost.shape[0] < cost.shape[1]:
        raise ValueError("need at least as many estimates as ground-truth rows")
    if greedy:
        assignment = {}
        taken = set()
        for j in range(cost.shape[1]):
            order = np.argsort(cost[:, j])
            i = next(int(i) for i in order if int(i) not in taken)
            taken.add(i)
            assignment[i] = j
        return assignment
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(cost)
    return {int(i): int(j) for i, j in zip(rows, cols)}


def match_endmembers(estimated: SpectraMatrix, truth: SpectraMatrix, greedy=False):
    """One-to-one assignment estimated-index -> truth-index by angle cost.

    Default: optimal bipartite matching (guaranteed bijection on matched
    indices).  ``greedy=True`` matches each ground truth to its most
    similar remaining estimate instead.
    """
    return _assign(angle(estimated.rows, truth.rows, 0.0).s, greedy)


@dataclass
class EvalReport:
    assignment: dict
    per_endmember_sad: list
    per_endmember_rmse: list | None
    avg_sad: float
    avg_rmse: float | None
    unmatched_estimates: list = field(default_factory=list)

    def write_csv(self, path):
        rows = [("estimated", "truth", "sad", "rmse")]
        for (i, j), sad, rmse in zip(
                sorted(self.assignment.items(), key=lambda kv: kv[1]),
                self.per_endmember_sad,
                self.per_endmember_rmse or [""] * len(self.per_endmember_sad)):
            rows.append((i, j, f"{sad:.10g}", rmse if rmse == "" else f"{rmse:.10g}"))
        rows.append(("avg", "", f"{self.avg_sad:.10g}",
                     "" if self.avg_rmse is None else f"{self.avg_rmse:.10g}"))
        write_file(path, _csv_text(rows))

    def to_text(self):
        """Human-readable table; values reported x 10^-2."""
        lines = ["endmember   SAD (x1e-2)   RMSE (x1e-2)"]
        for n, (i, j) in enumerate(sorted(self.assignment.items(), key=lambda kv: kv[1])):
            sad = self.per_endmember_sad[n] * 100.0
            if self.per_endmember_rmse is not None:
                rmse = f"{self.per_endmember_rmse[n] * 100.0:12.2f}"
            else:
                rmse = "           -"
            lines.append(f"#{j + 1} (est {i + 1})  {sad:10.2f}  {rmse}")
        avg_rmse = "           -" if self.avg_rmse is None else f"{self.avg_rmse * 100.0:12.2f}"
        lines.append(f"avg         {self.avg_sad * 100.0:10.2f}  {avg_rmse}")
        if self.unmatched_estimates:
            lines.append(f"unmatched estimates (excluded from averages): "
                         f"{[i + 1 for i in self.unmatched_estimates]}")
        return "\n".join(lines)


def check_ground_truth(count, bands, gt_spectra: SpectraMatrix,
                       gt_abundances: AbundanceMap | None = None, n_pixels=None):
    """Raise ValueError unless ``count`` estimated spectra of ``bands`` bands,
    and abundances over ``n_pixels`` pixels, can be scored against the ground
    truth, which ``evaluate`` needs."""
    if bands != gt_spectra.bands:
        raise ValueError("band count mismatch between estimates and ground truth")
    if count < gt_spectra.count:
        raise ValueError("need at least as many estimates as ground-truth rows")
    if gt_abundances is not None:
        if gt_abundances.k != gt_spectra.count:
            raise ValueError(f"the ground-truth abundance map has {gt_abundances.k} columns "
                             f"for {gt_spectra.count} ground-truth rows")
        if gt_abundances.n_pixels != n_pixels:
            raise ValueError(f"the ground-truth abundance map covers {gt_abundances.n_pixels} "
                             f"pixels, the estimates {n_pixels}")


def evaluate(estimated: SpectraMatrix, gt_spectra: SpectraMatrix,
             abundances: AbundanceMap | None = None,
             gt_abundances: AbundanceMap | None = None,
             greedy=False) -> EvalReport:
    """Match endmembers, then per-endmember angle error and abundance RMSE.

    RMSE is computed per matched endmember over all pixels when both
    abundance maps are given; estimates beyond the ground-truth count are
    reported but excluded from the averages.
    """
    scored = abundances is not None and gt_abundances is not None
    check_ground_truth(estimated.count, estimated.bands, gt_spectra,
                       gt_abundances if scored else None,
                       abundances.n_pixels if scored else None)
    if scored and abundances.k != estimated.count:
        raise ValueError(f"the estimated abundance map has {abundances.k} columns "
                         f"for {estimated.count} estimates")
    cost = angle(estimated.rows, gt_spectra.rows, 0.0).s
    assignment = _assign(cost, greedy)
    pairs = sorted(assignment.items(), key=lambda kv: kv[1])
    sads = [float(cost[i, j]) for i, j in pairs]

    rmses = None
    if scored:
        rmses = [rmse_metric(gt_abundances.values[:, j], abundances.values[:, i])
                 for i, j in pairs]

    unmatched = [i for i in range(estimated.count) if i not in assignment]
    return EvalReport(
        assignment=assignment,
        per_endmember_sad=sads,
        per_endmember_rmse=rmses,
        avg_sad=float(np.mean(sads)),
        avg_rmse=None if rmses is None else float(np.mean(rmses)),
        unmatched_estimates=unmatched)
