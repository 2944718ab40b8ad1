"""Acquisition ordering protocols.

P1 acquires spectra in native (or seeded-shuffle) order.  P2 reorders the
stream so that geometrically extreme, mutually diverse spectra arrive
first: spectra are embedded in the 2-D phasor plane (real and imaginary
parts of the first Fourier harmonic of each max-normalized spectrum),
convex hull layers are peeled until enough candidates accumulate, the
candidates are clustered, and clusters then take turns contributing their
most central remaining member, with each round shuffled.

The points are sorted once by (x, y, index); each hull layer is one
monotone-chain pass (lower and upper chain) over the sites that remain
in that order, so peeling never sorts again.  The round-robin reads one
(clusters x candidates) squared-distance matrix, computed once.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .datamodel import FloatArray, SpectraMatrix
from .fourier import FourierBasis, build_basis

KMEANS_MAX_ITERS = 100


@dataclass(frozen=True)
class AcquisitionOrder:
    """A permutation prefix: the order spectra should be acquired in."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) < 1:
            raise ValueError("order must contain at least one index")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("order contains duplicate indices")
        if min(self.indices) < 0:
            raise ValueError("order contains negative indices")


@dataclass(frozen=True)
class P2Config:
    n_essential: int | None  # None orders every spectrum
    n_clusters: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_essential is not None and self.n_essential < 1:
            raise ValueError("n_essential must be >= 1")
        too_many = self.n_essential is not None and self.n_clusters > self.n_essential
        if self.n_clusters < 1 or too_many:
            raise ValueError("n_clusters must be in [1, n_essential]")


def protocol_p1(n: int, shuffle_seed: int | None = None) -> AcquisitionOrder:
    """Native order, or a seeded uniform shuffle when a seed is given."""
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(n)
    if shuffle_seed is not None:
        idx = np.random.default_rng(shuffle_seed).permutation(n)
    return AcquisitionOrder(tuple(int(i) for i in idx))


def _sorted_sites(points: FloatArray) -> list[tuple[float, float, int]]:
    """(x, y, index) of every point as plain floats, sorted by (x, y, index).

    Raises ValueError naming the first row that is not finite, since the
    sort needs a total order.
    """
    bad = np.flatnonzero(~np.all(np.isfinite(points), axis=1))
    if bad.size:
        raise ValueError(f"phasor point of row {int(bad[0])} is not finite: {points[bad[0]]}")
    order = np.lexsort((np.arange(points.shape[0]), points[:, 1], points[:, 0]))
    return [(x, y, int(i)) for (x, y), i in zip(points[order].tolist(), order)]


def _hull_layer(sites: list[tuple[float, float, int]]) -> list[int]:
    """Hull vertex indices, counterclockwise from the lowest (x, y) site.

    ``sites`` is sorted by (x, y, index).  A run of coincident sites (+0.0
    and -0.0 compare equal) counts once, as its first, lowest index.  The
    lower and upper monotone chains run on plain floats: the orientation
    tests are the same IEEE operations as on NumPy scalars, without a NumPy
    call per operation.
    """
    unique: list[tuple[float, float, int]] = []
    px = py = None
    for site in sites:
        x, y, _ = site
        if x != px or y != py:
            unique.append(site)
            px, py = x, y
    if len(unique) <= 2:
        return [i for _, _, i in unique]

    def chain(seq: Iterable[tuple[float, float, int]]) -> list[tuple[float, float, int]]:
        out: list[tuple[float, float, int]] = []
        for site in seq:
            x, y, _ = site
            while len(out) > 1:
                ox, oy, _ = out[-2]
                ax, ay, _ = out[-1]
                if (ax - ox) * (y - oy) - (ay - oy) * (x - ox) > 0.0:
                    break
                out.pop()
            out.append(site)
        return out

    hull = [i for _, _, i in chain(unique)[:-1]]
    # On nearly collinear sites, rounding can leave a site on both chains.
    on_lower = set(hull)
    hull.extend(i for _, _, i in chain(reversed(unique))[:-1] if i not in on_lower)
    return hull


def convex_hull_phasor(points: FloatArray) -> np.ndarray:
    """Indices of convex hull vertices in counterclockwise order.

    Collinear points interior to an edge are excluded; a fully collinear
    input yields its two extreme points, and a single (possibly repeated)
    point yields one index.  Ties between coincident points resolve to the
    lowest original index.  Raises ValueError on a non-finite point.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must have shape (n, 2)")
    if pts.shape[0] < 1:
        raise ValueError("need at least one point")
    return np.array(_hull_layer(_sorted_sites(pts)), dtype=int)


def _kmeans(
    points: FloatArray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, FloatArray]:
    """Lloyd iterations from a k-means++ seeding; empty clusters are re-seeded."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = points[first]
    closest = np.sum((points - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(np.sum(closest))
        if total == 0.0:
            pick = int(rng.integers(n))
        else:
            pick = int(rng.choice(n, p=closest / total))
        centroids[j] = points[pick]
        closest = np.minimum(closest, np.sum((points - centroids[j]) ** 2, axis=1))

    labels = np.full(n, -1)
    for _ in range(KMEANS_MAX_ITERS):
        dist = np.sum((points[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(dist, axis=1)
        spread = dist[np.arange(n), new_labels].copy()
        for j in range(k):
            members = points[new_labels == j]
            if members.shape[0] > 0:
                centroids[j] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster at the point farthest from its
                # centroid; mark it so a second empty cluster picks elsewhere.
                far = int(np.argmax(spread))
                centroids[j] = points[far]
                new_labels[far] = j
                spread[far] = -1.0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, centroids


def phasor_embedding(
    spectra: SpectraMatrix | FloatArray, basis: FourierBasis | None = None
) -> FloatArray:
    """(n, 2) coordinates: first-harmonic Re/Im of each intensity-normalized spectrum.

    Normalizing by total intensity makes the embedding of a mixture a convex
    combination of its endmembers' embeddings, so convex-hull vertices are
    the least-mixed spectra in the set.  A row whose total is not positive
    is embedded as it is.  A row whose total is positive but within rounding
    of zero, ``sum(y) <= L * eps * sum(|y|)`` (a baseline-subtracted spectrum,
    say), has no intensity to normalize by: dividing by it would throw the
    point ~1/eps outside the cloud, where it would become a hull vertex, so
    it raises ValueError naming the row.
    """
    rows = np.asarray(spectra)
    if basis is not None and basis.n_channels != rows.shape[1]:
        raise ValueError(f"basis of {basis.n_channels} channels does not match "
                         f"spectra of {rows.shape[1]} channels")
    if basis is None or basis.n_harmonics < 2:
        basis = build_basis(rows.shape[1], 2)
    totals = np.sum(rows, axis=1, keepdims=True)
    eps = np.finfo(np.float64).eps
    rounding = rows.shape[1] * eps * np.sum(np.abs(rows), axis=1, keepdims=True)
    near_zero = np.flatnonzero((totals > 0.0) & (totals <= rounding))
    if near_zero.size:
        raise ValueError(
            f"spectrum row {near_zero[0]} has a total of {totals[near_zero[0], 0]:.3g}, "
            "within rounding of zero; it cannot be intensity-normalized"
        )
    safe = np.where(totals > 0.0, totals, 1.0)
    normalized = rows / safe
    m = basis.n_harmonics
    reduced = (basis.operator @ normalized.T).T  # (n, 2M)
    return np.column_stack([reduced[:, 1], reduced[:, m + 1]])


def protocol_p2(
    spectra: SpectraMatrix | FloatArray,
    basis: FourierBasis,
    config: P2Config,
) -> AcquisitionOrder:
    """Diversity-first ordering from hull peeling plus cluster round-robin.

    Phases: (1) embed each spectrum as a 2-D phasor point; (2) peel convex
    hull layers until at least n_essential candidates are found or points
    run out; (3) k-means the candidates into n_clusters groups; (4) in
    rounds, each cluster contributes the unclaimed candidate nearest its
    centroid, the round is shuffled, and rounds repeat until n_essential
    indices are ordered; an n_essential of None stands for n, the spectrum
    count.  A degenerate embedding (all points coincide) falls back to the
    first n_essential native indices with a warning; a spectrum that is not
    finite raises ValueError naming its row, and a basis built for another
    channel count one naming both counts.
    """
    rows = SpectraMatrix(spectra).values
    n = rows.shape[0]
    if config.n_essential is None:
        config = replace(config, n_essential=n)  # checks n_clusters against n
    n_essential = min(config.n_essential, n)
    points = phasor_embedding(rows, basis)
    sites = _sorted_sites(points)

    if np.all(points == points[0]):
        warnings.warn(
            "phasor embedding is degenerate; falling back to protocol P1",
            stacklevel=2,
        )
        return protocol_p1(n_essential)

    rng = np.random.default_rng(config.seed)

    candidates: list[int] = []
    while len(candidates) < n_essential and sites:
        layer = _hull_layer(sites)
        candidates.extend(layer)
        peeled = set(layer)
        sites = [site for site in sites if site[2] not in peeled]

    cand = np.array(sorted(candidates))
    k = min(config.n_clusters, cand.size)
    _, centroids = _kmeans(points[cand], k, rng)

    # Squared distance of every candidate to every centroid, computed once.
    dist = np.sum((points[cand][None, :, :] - centroids[:, None, :]) ** 2, axis=2)
    open_pos = np.arange(cand.size)
    ordered: list[int] = []
    while len(ordered) < n_essential and open_pos.size:
        round_indices: list[int] = []
        for j in range(k):
            if open_pos.size == 0:
                break
            arg = int(np.argmin(dist[j, open_pos]))
            round_indices.append(int(cand[open_pos[arg]]))
            open_pos = np.delete(open_pos, arg)
        ordered.extend(int(i) for i in rng.permutation(round_indices))
    return AcquisitionOrder(tuple(ordered[:n_essential]))


def save_order_csv(order: AcquisitionOrder, path: str | os.PathLike[str]) -> None:
    """Persist an order as a single column of indices."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(str(i) for i in order.indices) + "\n")


def load_order_csv(path: str | os.PathLike[str]) -> AcquisitionOrder:
    """Read a single-column order file, one index per line."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    indices = []
    for line_no, line in enumerate(lines, start=1):
        if not line or line.startswith("#"):
            continue
        try:
            indices.append(int(line))
        except ValueError:
            raise ValueError(f"{path}: line {line_no}: non-integer index {line!r}") from None
    if not indices:
        raise ValueError(f"{path}: holds no index lines")
    try:
        return AcquisitionOrder(tuple(indices))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
